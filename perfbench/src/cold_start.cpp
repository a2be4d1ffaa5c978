// cold_start: the plan lifecycle, repeated. Each cycle, for every factor's
// lower and upper plan:
//   1. analyze, then first solve;
//   2. load from a blob (SolverPlan::load; and, for lower factors, a fresh
//      PlanCache whose disk tier holds the blob), then first solve;
//   3. an in-memory PlanCache hit, then solve;
//   4. update_values with new values on the same pattern, then solve.
// Loaded and cache-hit plans must answer bit for bit like the analyzed
// twin the blob was saved from; refreshed plans like a twin analyzed on the
// new values.
#include <cstdio>
#include <filesystem>

#include "bench.hpp"
#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = msptrsv::core;
namespace sp = msptrsv::sparse;

namespace {

constexpr const char* kKey = "auto";

struct Side {
  std::string label;  // "<factor>.L" / "<factor>.U"
  bool upper = false;
  CscMatrix matrix;   // lower or upper factor as given to analyze*
  std::vector<value_t> b;
  std::vector<value_t> fresh_values;
  std::string blob_path;
  std::vector<value_t> expect;          // twin's answer
  std::vector<value_t> expect_refresh;  // refreshed twin's answer
};

core::Expected<core::SolverPlan> analyze(const Side& s,
                                         const core::SolveOptions& opt) {
  return s.upper ? core::SolverPlan::analyze_upper(s.matrix, opt)
                 : core::SolverPlan::analyze(s.matrix, opt);
}

std::vector<value_t> solve(const core::SolverPlan& p, const Side& s) {
  auto r = p.solve(s.b);
  return r.ok() ? std::move(r.value().x) : std::vector<value_t>{};
}

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Per-cycle figures; each vector gets one entry per cycle.
struct CycleLog {
  std::vector<double> a2s, l2s, r2s;
  std::vector<double> analyze_ms, analyze_upper_ms, first_ms, update_ms,
      mem_hit_us, disk_hit_ms;
  // Traced runs only.
  std::vector<double> steady_ms, serialize_ms, deserialize_ms, blob_bytes,
      load_gbps, levels_ms, coarsen_ms, csr_ms;
};

class ColdStart final : public Phase {
 public:
  explicit ColdStart(const RunConfig& cfg)
      : cfg_(cfg),
        opt_(expect_ok(core::registry::options_for(kKey), "registry key")),
        dir_(cfg.workdir + "/cold_start") {}
  ~ColdStart() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ColdStart(const ColdStart&) = delete;
  ColdStart& operator=(const ColdStart&) = delete;

  void setup(bool home, Outcome& out) override {
    // ---- inputs and refreshed twins (untimed) ------------------------------
    for (Factor& f : cold_factors(cfg_.seed)) {
      const std::vector<value_t> b =
          rhs_block(f.lower.rows, 1, derive_seed(cfg_.seed, "rhs:" + f.name));
      for (const bool upper : {false, true}) {
        Side s;
        s.label = f.name + (upper ? ".U" : ".L");
        s.upper = upper;
        s.matrix = upper ? sp::transpose(f.lower) : f.lower;
        s.b = b;
        s.fresh_values = refreshed_values(
            s.matrix, derive_seed(cfg_.seed, "values:" + s.label));
        s.blob_path = dir_ + "/" + s.label + ".plan";
        Side twin = s;
        twin.matrix.val = s.fresh_values;
        s.expect_refresh = solve(expect_ok(analyze(twin, opt_), "twin"), s);
        sides_.push_back(std::move(s));
      }
    }

    // ---- set-up: analyze every plan and persist its blob -------------------
    // The blobs a cycle loads, and the lower factors' PlanCache disk tier.
    std::vector<double> setup_s;
    for (int rep = 0; rep < (home ? kSetupRepeats : 1); ++rep) {
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_ + "/cache");
      const std::uint64_t t0 = now_ns();
      core::PlanCache seeding;
      seeding.set_disk_directory(dir_ + "/cache");
      for (Side& s : sides_) {
        Span span("cold.setup_plan");
        const core::SolverPlan twin = expect_ok(analyze(s, opt_), "analyze");
        expect_ok(twin.save(s.blob_path), "save");
        if (!s.upper) {
          expect_ok(seeding.get_or_analyze(s.matrix, opt_), "seed cache");
        }
        if (rep == 0) {
          s.expect = solve(twin, s);
          const core::TunedDecision* d = twin.tuned();
          std::printf("cold_start    %-12s rows=%d nnz=%lld auto picked %s "
                      "(schedule %d, gang %d)\n",
                      s.label.c_str(), s.matrix.rows,
                      static_cast<long long>(s.matrix.nnz()),
                      d ? core::backend_name(d->backend).c_str() : "-",
                      d ? d->schedule : -1, d ? d->gang_width : -1);
        }
      }
      setup_s.push_back(seconds_since(t0));
    }
    if (home) out.e2e("setup_s", summarize(setup_s), "s");
  }

  void measure(double seconds, Outcome& out) override {
    const std::uint64_t start = now_ns();
    do {
      cycle(out);
    } while (seconds_since(start) < seconds);
  }

  void report(Outcome& out) override {
    const Timing ta = summarize(log_.a2s), tl = summarize(log_.l2s),
                 tr = summarize(log_.r2s);
    std::printf("cold_start    %zu factors x L/U, %zu cycles: analyze->solve "
                "%.2f ms, load->solve %.2f ms, refactor->solve %.2f ms "
                "(medians per cycle)\n",
                sides_.size() / 2, ta.count, ta.median, tl.median, tr.median);
    out.e2e("refactor_to_solve_ms", tr, "ms");
    out.layer("cold.analyze_to_solve_ms", ta.median, "ms");
    out.layer("cold.load_to_solve_ms", tl.median, "ms");

    out.layer("plan.analyze_ms", median(log_.analyze_ms), "ms");
    out.layer("plan.analyze_upper_ms", median(log_.analyze_upper_ms), "ms");
    out.layer("plan.first_solve_ms", median(log_.first_ms), "ms");
    out.layer("plan.update_values_ms", median(log_.update_ms), "ms");
    out.layer("cache.mem_hit_us", median(log_.mem_hit_us), "us");
    out.layer("cache.disk_hit_ms", median(log_.disk_hit_ms), "ms");
    out.layer("cache.hit_ratio",
              lookups_ > 0 ? static_cast<double>(served_from_cache_) /
                                 static_cast<double>(lookups_)
                           : 0.0,
              "ratio");
    out.layer("plan.steady_solve_ms", median(log_.steady_ms), "ms");
    out.layer("plan.serialize_ms", median(log_.serialize_ms), "ms");
    out.layer("plan.deserialize_ms", median(log_.deserialize_ms), "ms");
    out.layer("blob.bytes", median(log_.blob_bytes), "bytes");
    out.layer("blob.load_gbps", median(log_.load_gbps), "GB/s");
    out.layer("sparse.levels_ms", median(log_.levels_ms), "ms");
    out.layer("sparse.coarsen_ms", median(log_.coarsen_ms), "ms");
    out.layer("sparse.csr_ms", median(log_.csr_ms), "ms");
  }

 private:
  void cycle(Outcome& out) {
    Span cycle_span("cold.cycle", ++cycles_);
    double a = 0, l = 0, r = 0, an = 0, anu = 0, first = 0, upd = 0;
    double mem = 0, disk = 0;
    double steady = 0, ser = 0, deser = 0, bytes = 0, levels = 0,
           coarsen = 0, csr = 0;
    core::PlanCache cache;  // fresh every cycle: its first lookup goes to disk
    cache.set_disk_directory(dir_ + "/cache");
    for (const Side& s : sides_) {
      // 1. analyze, then first solve.
      std::uint64_t t0 = now_ns();
      core::SolverPlan plan = [&] {
        Span sp_("plan.analyze");
        return expect_ok(analyze(s, opt_), "analyze");
      }();
      const double t_an = ms_since(t0);
      std::vector<value_t> x = [&] {
        Span sp_("plan.first_solve");
        return solve(plan, s);
      }();
      a += ms_since(t0);
      first += ms_since(t0) - t_an;
      (s.upper ? anu : an) += t_an;
      out.check(same_bits(x, s.expect));

      // 2. load from the blob, then first solve.
      t0 = now_ns();
      const core::SolverPlan loaded = [&] {
        Span sp_("plan.load");
        return expect_ok(core::SolverPlan::load(s.blob_path, opt_), "load");
      }();
      x = [&] {
        Span sp_("plan.first_solve_loaded");
        return solve(loaded, s);
      }();
      l += ms_since(t0);
      out.check(same_bits(x, s.expect));

      // 2b/3. PlanCache disk tier (fresh cache), then the in-memory hit.
      if (!s.upper) {
        t0 = now_ns();
        const core::SolverPlan from_disk = [&] {
          Span sp_("cache.disk_lookup");
          return expect_ok(cache.get_or_analyze(s.matrix, opt_), "cache");
        }();
        disk += ms_since(t0);
        out.check(same_bits(solve(from_disk, s), s.expect));
        t0 = now_ns();
        const core::SolverPlan hit = [&] {
          Span sp_("cache.mem_lookup");
          return expect_ok(cache.get_or_analyze(s.matrix, opt_), "cache");
        }();
        mem += static_cast<double>(now_ns() - t0) / 1e3;
        out.check(same_bits(solve(hit, s), s.expect));
        lookups_ += 2;
      }

      // 4. update_values on the analyzed plan, then solve.
      t0 = now_ns();
      {
        Span sp_("plan.update_values");
        expect_ok(plan.update_values(s.fresh_values), "update_values");
      }
      upd += ms_since(t0);
      x = [&] {
        Span sp_("plan.refreshed_solve");
        return solve(plan, s);
      }();
      r += ms_since(t0);
      out.check(same_bits(x, s.expect_refresh));

      if (cfg_.trace) {
        // Layer breakdown: steady solve, persistence, sparse analysis.
        t0 = now_ns();
        out.check(same_bits(solve(loaded, s), s.expect));
        steady += ms_since(t0);
        t0 = now_ns();
        const std::vector<std::uint8_t> blob =
            expect_ok(loaded.serialize(), "serialize");
        ser += ms_since(t0);
        t0 = now_ns();
        const core::SolverPlan back =
            expect_ok(core::SolverPlan::deserialize(blob, opt_), "deserialize");
        deser += ms_since(t0);
        bytes += static_cast<double>(blob.size());
        out.check(same_bits(solve(back, s), s.expect));
        if (!s.upper) {
          t0 = now_ns();
          const sp::LevelAnalysis lv = sp::analyze_levels(s.matrix);
          levels += ms_since(t0);
          t0 = now_ns();
          const sp::TaskGraph tg = sp::coarsen_levels(s.matrix, lv);
          coarsen += ms_since(t0);
          out.check(tg.n == s.matrix.rows);
          t0 = now_ns();
          const sp::CsrMatrix rows = sp::csr_from_csc(s.matrix);
          csr += ms_since(t0);
          out.check(rows.nnz() == s.matrix.nnz());
        }
      }
    }
    const core::PlanCache::Stats st = cache.stats();
    served_from_cache_ += st.hits + st.disk_hits;
    const double lowers = static_cast<double>(sides_.size() / 2);
    log_.a2s.push_back(a);
    log_.l2s.push_back(l);
    log_.r2s.push_back(r);
    log_.analyze_ms.push_back(an);
    log_.analyze_upper_ms.push_back(anu);
    log_.first_ms.push_back(first);
    log_.update_ms.push_back(upd);
    log_.mem_hit_us.push_back(mem / lowers);  // per lookup
    log_.disk_hit_ms.push_back(disk / lowers);
    if (cfg_.trace) {
      log_.steady_ms.push_back(steady);
      log_.serialize_ms.push_back(ser);
      log_.deserialize_ms.push_back(deser);
      log_.blob_bytes.push_back(bytes);
      log_.load_gbps.push_back(bytes / (deser * 1e6));
      log_.levels_ms.push_back(levels);
      log_.coarsen_ms.push_back(coarsen);
      log_.csr_ms.push_back(csr);
    }
  }

  const RunConfig& cfg_;
  const core::SolveOptions opt_;
  const std::string dir_;
  std::vector<Side> sides_;
  CycleLog log_;
  std::uint64_t cycles_ = 0;
  std::uint64_t lookups_ = 0, served_from_cache_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_cold_start(const RunConfig& cfg) {
  return std::make_unique<ColdStart>(cfg);
}

}  // namespace perfbench
