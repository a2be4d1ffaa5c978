// paper_sim: the 16 Table I analogs under the four Fig. 7 design points on
// the default 4-GPU DGX-1, single RHS and a fused 8-RHS batch. The only
// traffic through core/mg_engine, comm_nvshmem / comm_unified and src/sim.
// The simulated makespan is the paper's own result and repeats exactly for
// a seed (checked on every revisit); the wall clock the simulator takes is
// reported per layer.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = msptrsv::core;

namespace {

constexpr const char* kDesigns[] = {"mg-unified", "mg-unified-task",
                                    "mg-shmem", "mg-zerocopy"};
constexpr std::size_t kNumDesigns = std::size(kDesigns);
constexpr index_t kWide = 8;
/// The paper's Fig. 7 speedups over 4GPU-Unified (average / peak).
constexpr double kPaperAvg[] = {1.0, 0.89, 2.33, 3.53};
constexpr double kPaperPeak[] = {1.0, 0.0, 8.1, 9.86};
constexpr double kResidualLimit = 1e-9;

struct Cell {
  std::size_t matrix = 0;
  std::size_t design = 0;
  core::SolverPlan plan;
  bool visited = false;
  double makespan_k1 = 0.0;  // first visit; later visits must repeat it
  double makespan_kw = 0.0;
  msptrsv::sim::RunReport report_k1;
  std::vector<double> wall_k1_us, wall_kw_us;
};

std::vector<Cell> build_cells(const std::vector<Factor>& mats) {
  std::vector<Cell> cells;
  for (std::size_t d = 0; d < kNumDesigns; ++d) {
    const core::SolveOptions opt =
        expect_ok(core::registry::options_for(kDesigns[d]), "design key");
    for (std::size_t m = 0; m < mats.size(); ++m) {
      Span span("sim.analyze");
      cells.push_back({m, d,
                       expect_ok(core::SolverPlan::analyze_borrowed(
                                     mats[m].lower, opt),
                                 "sim analyze"),
                       false, 0.0, 0.0, {}, {}, {}});
    }
  }
  return cells;
}

bool close_to(const std::vector<value_t>& x, const std::vector<value_t>& ref) {
  return x.size() == ref.size() &&
         core::max_relative_difference(x, ref) <= kResidualLimit;
}

class PaperSim final : public Phase {
 public:
  explicit PaperSim(const RunConfig& cfg) : cfg_(cfg) {}

  void setup(bool home, Outcome& out) override {
    // ---- inputs and serial references (untimed) ----------------------------
    mats_ = sim_factors(cfg_.seed);
    const core::SolveOptions serial =
        expect_ok(core::registry::options_for("serial"), "serial key");
    for (const Factor& f : mats_) {
      const CscMatrix& l = f.lower;
      bw_.push_back(
          rhs_block(l.rows, kWide, derive_seed(cfg_.seed, "rhs:" + f.name)));
      b1_.emplace_back(bw_.back().begin(), bw_.back().begin() + l.rows);
      const core::SolverPlan ref =
          expect_ok(core::SolverPlan::analyze_borrowed(l, serial), "serial");
      ref1_.push_back(expect_ok(ref.solve(b1_.back()), "serial solve").x);
      refw_.push_back(
          expect_ok(ref.solve_batch(bw_.back(), kWide), "serial batch").x);
      out.check(core::relative_residual(l, ref1_.back(), b1_.back()) <=
                kResidualLimit);
    }

    // ---- set-up: analyze every (design, matrix) plan -----------------------
    std::vector<double> setup_s;
    for (int rep = 0; rep < (home ? kSetupRepeats : 1); ++rep) {
      cells_.clear();
      const std::uint64_t t0 = now_ns();
      cells_ = build_cells(mats_);
      setup_s.push_back(seconds_since(t0));
    }
    if (home) out.e2e("setup_s", summarize(setup_s), "s");
  }

  void measure(double seconds, Outcome& out) override {
    const std::uint64_t start = now_ns();
    do {
      visit(cells_[cursor_], out);
      cursor_ = (cursor_ + 1) % cells_.size();
    } while (seconds_since(start) < seconds);
  }

  void report(Outcome& out) override {
    // Every cell is priced at least once (a short window may not have
    // reached them all).
    for (Cell& c : cells_) {
      if (!c.visited) visit(c, out);
    }
    std::vector<std::vector<double>> mk(kNumDesigns);
    for (const Cell& c : cells_) mk[c.design].push_back(c.makespan_k1);
    std::vector<double> geo(kNumDesigns);
    for (std::size_t d = 0; d < kNumDesigns; ++d) geo[d] = geomean(mk[d]);

    std::printf("paper_sim     design           makespan_us  speedup over "
                "unified (geomean / peak)  paper Fig. 7 (avg / peak)\n");
    for (std::size_t d = 0; d < kNumDesigns; ++d) {
      std::vector<double> sp;
      for (std::size_t m = 0; m < mats_.size(); ++m) {
        sp.push_back(mk[0][m] / mk[d][m]);
      }
      std::printf("paper_sim     %-16s %11.1f  %8.2fx / %6.2fx             "
                  "%5.2fx / ",
                  kDesigns[d], geo[d], geomean(sp),
                  *std::max_element(sp.begin(), sp.end()), kPaperAvg[d]);
      if (kPaperPeak[d] > 0) {
        std::printf("%.2fx\n", kPaperPeak[d]);
      } else {
        std::printf("-\n");
      }
    }
    out.e2e("sim_makespan_us", geo[kNumDesigns - 1], "us", mats_.size());

    // One pass prices every cell once at each width; its wall time is the
    // sum of the cells' medians, so the figure does not depend on how many
    // passes (or which part of one) the window covered.
    double pass_s = 0.0;
    for (const Cell& c : cells_) {
      pass_s += (median(c.wall_k1_us) + median(c.wall_kw_us)) / 1e6;
    }
    const auto pass_rhs = static_cast<double>(cells_.size() * (1 + kWide));
    out.layer("sim.rhs_per_s", pass_rhs / pass_s, "1/s");

    std::vector<double> speedup, imbalance;
    double remote = 0, nvshmem = 0, faults = 0, migrated = 0;
    for (const Cell& c : cells_) {
      const auto& r = c.report_k1;
      if (c.design == kNumDesigns - 1) {
        speedup.push_back(mk[0][c.matrix] / c.makespan_k1);
        imbalance.push_back(r.load_imbalance());
        remote += static_cast<double>(r.remote_updates);
        nvshmem += r.nvshmem_bytes;
      }
      if (c.design == 0) {
        faults += static_cast<double>(r.page_faults);
        migrated += r.page_migrated_bytes;
      }
    }
    for (std::size_t d = 0; d < kNumDesigns; ++d) {
      std::vector<double> w1, ww;
      for (const Cell& c : cells_) {
        if (c.design != d) continue;
        w1.push_back(median(c.wall_k1_us));
        ww.push_back(median(c.wall_kw_us) / kWide);
      }
      const std::string p = kDesigns[d];
      out.layer("sim." + p + ".makespan_us", geo[d], "us");
      out.layer("mg_engine." + p + ".wall_us_k1", geomean(w1), "us");
      out.layer("mg_engine." + p + ".wall_us_per_rhs_k8", geomean(ww), "us");
    }
    out.layer("sim.zerocopy_speedup", geomean(speedup), "x");
    out.layer("sim.remote_updates", remote, "count");
    out.layer("sim.nvshmem_bytes", nvshmem, "bytes");
    out.layer("sim.page_faults", faults, "count");
    out.layer("sim.migrated_bytes", migrated, "bytes");
    out.layer("sim.busy_imbalance", median(imbalance), "ratio");
  }

 private:
  /// One cell at 1 RHS and at the fused width, timed and checked.
  void visit(Cell& c, Outcome& out) {
    const std::size_t m = c.matrix;
    std::uint64_t t0 = now_ns();
    auto r1 = [&] {
      Span s("sim.solve_k1", c.design + 1);
      return c.plan.solve(b1_[m]);
    }();
    const double w1 = static_cast<double>(now_ns() - t0) / 1e3;
    t0 = now_ns();
    auto rw = [&] {
      Span s("sim.solve_batch", c.design + 1);
      return c.plan.solve_batch(bw_[m], kWide);
    }();
    const double ww = static_cast<double>(now_ns() - t0) / 1e3;
    c.wall_k1_us.push_back(w1);
    c.wall_kw_us.push_back(ww);
    const bool ok1 = r1.ok() && close_to(r1.value().x, ref1_[m]);
    const bool okw = rw.ok() && close_to(rw.value().x, refw_[m]);
    out.check(ok1);
    out.check(okw);
    if (!ok1 || !okw) return;
    const double mk1 = r1.value().report.solve_us;
    const double mkw = rw.value().report.solve_us;
    if (!c.visited) {
      c.visited = true;
      c.makespan_k1 = mk1;
      c.makespan_kw = mkw;
      c.report_k1 = r1.value().report;
    } else {
      // The simulation is deterministic: pricing the same solve
      // differently on a later visit is a failure.
      out.check(mk1 == c.makespan_k1 && mkw == c.makespan_kw);
    }
  }

  const RunConfig& cfg_;
  std::vector<Factor> mats_;
  std::vector<std::vector<value_t>> b1_, bw_, ref1_, refw_;
  std::vector<Cell> cells_;
  std::size_t cursor_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_paper_sim(const RunConfig& cfg) {
  return std::make_unique<PaperSim>(cfg);
}

}  // namespace perfbench
