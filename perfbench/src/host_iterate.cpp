// host_iterate: an embedded preconditioner apply, in process, closed loop,
// one caller. Three ILU-style L/U pairs (analyze + analyze_upper on the
// transpose) are solved under every host key at 1 and 16 RHS. The cells
// run round-robin, interleaved with STREAM triad passes, so machine drift
// hits every cell and the roof alike; each cell reports its median.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = msptrsv::core;
namespace sp = msptrsv::sparse;

namespace {

constexpr const char* kKeys[] = {"serial", "cpu-levelset", "cpu-syncfree",
                                 "cpu-taskgraph", "auto"};
constexpr std::size_t kNumKeys = std::size(kKeys);
constexpr index_t kWide = 16;

struct Pair {
  core::SolverPlan lower;
  core::SolverPlan upper;
};

struct Cell {
  std::size_t factor = 0;
  std::size_t key = 0;
  Pair plans;
  /// Serial-sweep cells (and "auto" when it picked the serial sweep) are
  /// push-based and checked to 1e-10; every pull-based key bit for bit.
  bool bitwise = true;
  std::vector<double> k1_us;
  std::vector<double> k16_us;
  std::vector<double> pack_us, kernel_us, unpack_us;
};

struct FactorData {
  std::string name;
  CscMatrix lower;
  CscMatrix upper;
  std::vector<value_t> b16;
  std::vector<value_t> b1;  // first column of b16
  std::vector<value_t> ref1;
  std::vector<value_t> ref16;
  double bytes16 = 0.0;
  std::size_t pair_bytes = 0;
};

/// Lower-bound bytes one fused k-RHS solve must move: the row form's
/// structure and values once, every RHS element once through gather, b
/// and x (bench_micro's roofline model).
double bytes_model(const CscMatrix& l, index_t k) {
  const auto n = static_cast<double>(l.rows);
  const auto nnz = static_cast<double>(l.nnz());
  const double kd = static_cast<double>(k);
  const double structure = (n + 1) * sizeof(msptrsv::offset_t) +
                           nnz * sizeof(index_t) + nnz * sizeof(value_t);
  const double rhs = (nnz - n) * kd * sizeof(value_t) +
                     2.0 * n * kd * sizeof(value_t);
  return structure + rhs;
}

Pair analyze_pair(const FactorData& f, core::SolveOptions opt) {
  Span span("host.analyze_pair");
  Pair p{expect_ok(core::SolverPlan::analyze(f.lower, opt), "analyze"),
         expect_ok(core::SolverPlan::analyze_upper(f.upper, opt),
                   "analyze_upper")};
  return p;
}

core::SolveOptions options_for(const char* key, int threads) {
  core::SolveOptions opt =
      expect_ok(core::registry::options_for(key), "registry key");
  opt.cpu_threads = threads;
  return opt;
}

std::vector<Cell> build_cells(const std::vector<FactorData>& data,
                              int threads) {
  std::vector<Cell> cells;
  for (std::size_t f = 0; f < data.size(); ++f) {
    for (std::size_t k = 0; k < kNumKeys; ++k) {
      Cell c{f, k, analyze_pair(data[f], options_for(kKeys[k], threads)),
             true, {}, {}, {}, {}, {}};
      const core::TunedDecision* tuned = c.plans.lower.tuned();
      c.bitwise = k != 0 && !(tuned != nullptr &&
                              tuned->backend == core::Backend::kSerial);
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

bool matches(const Cell& c, const std::vector<value_t>& x,
             const std::vector<value_t>& ref) {
  if (c.bitwise) return same_bits(x, ref);
  return x.size() == ref.size() &&
         core::max_relative_difference(x, ref) <= 1e-10;
}

/// One L-then-U apply of `b` (k columns); returns the solution, or an
/// empty vector when either solve failed.
std::vector<value_t> apply(Cell& c, const std::vector<value_t>& b, index_t k,
                           std::uint64_t request, bool record_phases) {
  Span span(k == 1 ? "host.apply_k1" : "host.apply_k16", request);
  core::Expected<core::SolveResult> y = [&] {
    Span s("plan.solve_lower", request);
    return k == 1 ? c.plans.lower.solve(b) : c.plans.lower.solve_batch(b, k);
  }();
  if (!y.ok()) return {};
  core::Expected<core::SolveResult> x = [&] {
    Span s("plan.solve_upper", request);
    return k == 1 ? c.plans.upper.solve(y.value().x)
                  : c.plans.upper.solve_batch(y.value().x, k);
  }();
  if (!x.ok()) return {};
  if (record_phases) {
    const auto& p = y.value().phases;
    c.pack_us.push_back(p.pack_us);
    c.kernel_us.push_back(p.kernel_us);
    c.unpack_us.push_back(p.unpack_us);
  }
  return std::move(x.value().x);
}

class HostIterate final : public Phase {
 public:
  explicit HostIterate(const RunConfig& cfg) : cfg_(cfg) {}

  void setup(bool home, Outcome& out) override {
    // ---- inputs and references (untimed) -----------------------------------
    for (Factor& f : host_factors(cfg_.seed)) {
      FactorData d;
      d.name = f.name;
      d.upper = sp::transpose(f.lower);
      d.lower = std::move(f.lower);
      d.b16 = rhs_block(d.lower.rows, kWide,
                        derive_seed(cfg_.seed, "rhs:" + d.name));
      d.b1.assign(d.b16.begin(), d.b16.begin() + d.lower.rows);
      d.bytes16 = bytes_model(d.lower, kWide) + bytes_model(d.upper, kWide);
      data_.push_back(std::move(d));
    }
    // Reference: single-thread cpu-levelset, the bit-exact pull-based order.
    for (FactorData& d : data_) {
      const Pair ref = analyze_pair(d, options_for("cpu-levelset", 1));
      d.pair_bytes = ref.lower.resident_bytes() + ref.upper.resident_bytes();
      d.ref1 = expect_ok(ref.upper.solve(
                             expect_ok(ref.lower.solve(d.b1), "ref solve").x),
                         "ref solve")
                   .x;
      d.ref16 = expect_ok(ref.upper.solve_batch(
                              expect_ok(ref.lower.solve_batch(d.b16, kWide),
                                        "ref batch")
                                  .x,
                              kWide),
                          "ref batch")
                    .x;
    }

    // ---- set-up: analyze every (factor, key) pair --------------------------
    std::vector<double> setup_s;
    for (int rep = 0; rep < (home ? kSetupRepeats : 1); ++rep) {
      cells_.clear();
      const std::uint64_t t0 = now_ns();
      cells_ = build_cells(data_, cfg_.threads);
      setup_s.push_back(seconds_since(t0));
    }
    if (home) out.e2e("setup_s", summarize(setup_s), "s");

    // Warm-up: first solves materialize workspaces and worker gangs.
    for (Cell& c : cells_) {
      const FactorData& d = data_[c.factor];
      out.check(matches(c, apply(c, d.b1, 1, 0, false), d.ref1));
      out.check(matches(c, apply(c, d.b16, kWide, 0, false), d.ref16));
    }
    triad_ = std::make_unique<Triad>(cfg_.threads);
  }

  void measure(double seconds, Outcome& out) override {
    const std::uint64_t start = now_ns();
    do {
      round(out);
    } while (seconds_since(start) < seconds);
  }

  void report(Outcome& out) override {
    // The tracing-overhead estimate needs a round of each kind.
    while (spans_enabled() && (round_us_[0].empty() || round_us_[1].empty())) {
      round(out);
    }
    std::vector<double> rate_k1, rate_k16;
    std::printf("host_iterate  %-8s %-14s %10s %12s %10s %6s\n", "factor",
                "key", "k1_us", "k16_us/rhs", "k16_GB/s", "n");
    for (const Cell& c : cells_) {
      const double k1 = median(c.k1_us);
      const double k16 = median(c.k16_us);
      rate_k1.push_back(1e6 / k1);
      rate_k16.push_back(1e6 * kWide / k16);
      std::printf("host_iterate  %-8s %-14s %10.1f %12.2f %10.2f %6zu\n",
                  data_[c.factor].name.c_str(), kKeys[c.key], k1, k16 / kWide,
                  data_[c.factor].bytes16 / k16 / 1e3, c.k1_us.size());
    }
    const Fingerprint& m = cfg_.machine;
    for (const FactorData& d : data_) {
      std::printf("host_iterate  factor %-8s rows=%d nnz=%lld L+U plan "
                  "bytes=%zu (%s the L2 total %zu)\n",
                  d.name.c_str(), d.lower.rows,
                  static_cast<long long>(d.lower.nnz()), d.pair_bytes,
                  d.pair_bytes > m.l2_total_bytes ? "above" : "below",
                  m.l2_total_bytes);
    }
    const double triad_med = median(triad_gbps_);
    std::printf("host_iterate  triad %.2f GB/s computed (median of %zu passes "
                "interleaved with the cells; 3 arrays x %zu MiB = %zu MiB, %s "
                "the %zu MiB LLC)\n",
                triad_med, triad_gbps_.size(), kTriadElems * 8 >> 20,
                3 * kTriadElems * 8 >> 20,
                3 * kTriadElems * 8 > m.llc_bytes ? "above" : "below",
                m.llc_bytes >> 20);

    std::size_t applies = 0;
    for (const Cell& c : cells_) applies += c.k1_us.size();
    out.e2e("rhs_per_s_k1", geomean(rate_k1), "1/s", applies);
    out.e2e("rhs_per_s_k16", geomean(rate_k16), "1/s", applies);

    for (std::size_t k = 0; k < kNumKeys; ++k) {
      std::vector<double> k1, k16, gbps;
      for (const Cell& c : cells_) {
        if (c.key != k) continue;
        const double t16 = median(c.k16_us);
        k1.push_back(median(c.k1_us));
        k16.push_back(t16 / kWide);
        gbps.push_back(data_[c.factor].bytes16 / t16 / 1e3);
      }
      const std::string p = std::string("kernel.") + kKeys[k];
      out.layer(p + ".k1_us", geomean(k1), "us");
      out.layer(p + ".k16_us_per_rhs", geomean(k16), "us");
      out.layer(p + ".k16_gbps", geomean(gbps), "GB/s");
    }
    out.layer("kernel.triad_gbps", triad_med, "GB/s");
    std::vector<double> pack, kern, unpack;
    for (const Cell& c : cells_) {
      pack.insert(pack.end(), c.pack_us.begin(), c.pack_us.end());
      kern.insert(kern.end(), c.kernel_us.begin(), c.kernel_us.end());
      unpack.insert(unpack.end(), c.unpack_us.begin(), c.unpack_us.end());
    }
    out.layer("plan.pack_us", median(pack), "us");
    out.layer("plan.kernel_us", median(kern), "us");
    out.layer("plan.unpack_us", median(unpack), "us");
    if (spans_enabled()) {
      out.layer("trace.overhead_pct",
                100.0 * (median(round_us_[1]) / median(round_us_[0]) - 1.0),
                "%");
    }
  }

 private:
  /// Every cell once at each width, factor by factor, with a triad pass
  /// after each factor.
  void round(Outcome& out) {
    // In a traced run every other round records no spans, so the round
    // times pair up into the tracing-overhead estimate.
    const bool traced_round = spans_enabled() && rounds_ % 2 == 0;
    ++rounds_;
    spans_pause(spans_enabled() && !traced_round);
    const std::uint64_t r0 = now_ns();
    for (std::size_t f = 0; f < data_.size(); ++f) {
      const FactorData& d = data_[f];
      for (Cell& c : cells_) {
        if (c.factor != f) continue;
        std::uint64_t t0 = now_ns();
        std::vector<value_t> x = apply(c, d.b1, 1, ++request_, false);
        c.k1_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        out.check(matches(c, x, d.ref1));
        t0 = now_ns();
        x = apply(c, d.b16, kWide, ++request_, c.key != 0);
        c.k16_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        out.check(matches(c, x, d.ref16));
      }
      triad_gbps_.push_back(triad_->pass_gbps());
    }
    round_us_[traced_round ? 1 : 0].push_back(
        static_cast<double>(now_ns() - r0) / 1e3);
    spans_pause(false);
  }

  const RunConfig& cfg_;
  std::vector<FactorData> data_;
  std::vector<Cell> cells_;
  std::unique_ptr<Triad> triad_;
  std::vector<double> triad_gbps_;
  std::vector<double> round_us_[2];  // [spans recorded?]
  std::uint64_t request_ = 0;
  int rounds_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_host_iterate(const RunConfig& cfg) {
  return std::make_unique<HostIterate>(cfg);
}

}  // namespace perfbench
