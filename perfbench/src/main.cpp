// perfbench: the repository benchmark.
//
//   perfbench --workload <host_iterate|served_fleet|cold_start|paper_sim>
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// Every run executes all four phases so every metric is present in every
// result (see bench.hpp): the named workload is the home phase, measured
// for S seconds, and the others are companions with a shorter window of
// their own; the windows are cut into kSlices interleaved slices.
// With --trace 0 the last line
// carries the end-to-end metrics, with --trace 1 the per-layer metrics
// (spans recorded by this program around each public call; the library's
// own tracer stays disarmed). The last stdout line is the JSON result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "bench.hpp"
#include "spans.hpp"
#include "support/trace.hpp"

namespace perfbench {

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

bool same_bits(const std::vector<msptrsv::value_t>& a,
               const std::vector<msptrsv::value_t>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(msptrsv::value_t)) == 0);
}

void fail_run(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

constexpr int kSlices = 4;
constexpr std::size_t kSpanCapacity = 400000;

struct PhaseEntry {
  const char* name;
  std::unique_ptr<Phase> (*make)(const RunConfig&);
  /// Measurement window as a companion, sized to what its end-to-end
  /// metrics need to repeat: medians over host rounds and cold-start
  /// cycles need several seconds; served_fleet's figures are all
  /// per-layer; paper_sim's end-to-end metric is an exact model count.
  double companion_seconds;
};
constexpr PhaseEntry kPhases[] = {
    {"host_iterate", make_host_iterate, 5.0},
    {"served_fleet", make_served_fleet, 3.0},
    {"cold_start", make_cold_start, 5.0},
    {"paper_sim", make_paper_sim, 2.0},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<host_iterate|served_fleet|cold_start|paper_sim> "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n",
               why);
  std::exit(2);
}

double finite(double v) { return std::isfinite(v) ? v : -1.0; }

void print_json_metrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), finite(m.value),
                m.unit.c_str());
  }
  std::printf("}");
}

/// The full record of one run: machine fingerprint, outcome counts, and
/// every reported metric with its sample count and tail percentile.
bool write_result(const std::string& path, const RunConfig& cfg,
                  const Outcome& out, const std::vector<Metric>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Fingerprint& m = cfg.machine;
  std::fprintf(f,
               "{\"seed\": %llu, \"seconds\": %g, \"trace\": %d,\n"
               " \"fingerprint\": {\"nproc\": %d, \"numa_nodes\": %d, "
               "\"avx2\": %s, \"l2_total_bytes\": %zu, \"llc_bytes\": %zu},\n"
               " \"attempted\": %llu, \"failed\": %llu, \"wrong\": %llu,\n"
               " \"metrics\": [\n",
               static_cast<unsigned long long>(cfg.seed), cfg.seconds,
               cfg.trace ? 1 : 0, m.nproc, m.numa_nodes,
               m.avx2 ? "true" : "false", m.l2_total_bytes, m.llc_bytes,
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.wrong));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& x = metrics[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\", "
                 "\"samples\": %zu, \"tail_pct\": %g, \"tail\": %.17g}%s\n",
                 x.name.c_str(), finite(x.value), x.unit.c_str(), x.samples,
                 x.tail_bp / 100.0, finite(x.tail),
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fputs(" ]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig cfg;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--workdir") {
      cfg.workdir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) usage("flags take one value each");
  bool known = false;
  for (const PhaseEntry& p : kPhases) known = known || workload == p.name;
  if (!known) usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !(cfg.seconds > 0)) {
    usage("--seed and a positive --seconds are required");
  }
  if (cfg.workdir.empty()) usage("--workdir is required");
  std::filesystem::create_directories(cfg.workdir);

  // The library's tracer stays disarmed whatever the environment says: the
  // traced run records the benchmark's own spans.
  msptrsv::support::trace::trace_set_enabled(false);
  if (cfg.trace) spans_enable(kSpanCapacity);

  cfg.machine = machine_fingerprint();
  cfg.threads = cfg.machine.nproc;
  std::printf("perfbench fingerprint %s\n", describe(cfg.machine).c_str());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);

  Outcome out;
  std::vector<std::unique_ptr<Phase>> phases;
  std::vector<double> window;
  for (const PhaseEntry& p : kPhases) {
    const bool home = workload == p.name;
    const std::uint64_t t0 = now_ns();
    phases.push_back(p.make(cfg));
    phases.back()->setup(home, out);
    window.push_back(home ? cfg.seconds : p.companion_seconds);
    std::printf("perfbench %s set up (%s) in %.1f s\n", p.name,
                home ? "home" : "companion", seconds_since(t0));
    std::fflush(stdout);
  }
  const std::uint64_t measure_t0 = now_ns();
  for (int slice = 0; slice < kSlices; ++slice) {
    for (std::size_t i = 0; i < phases.size(); ++i) {
      phases[i]->measure(window[i] / kSlices, out);
    }
  }
  std::printf("perfbench measured in %.1f s\n", seconds_since(measure_t0));
  for (auto& p : phases) p->report(out);
  std::fflush(stdout);

  if (cfg.trace) {
    const auto totals = span_totals();
    std::printf("perfbench spans recorded=%zu dropped=%zu\n", spans_recorded(),
                spans_dropped());
    for (const auto& [name, t] : totals) {
      std::printf(
          "perfbench span %-28s n=%8llu total=%12.1f us self=%12.1f us\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_us, t.self_us);
    }
    const std::string path = cfg.workdir + "/spans_" + workload + ".json";
    if (!spans_write(path)) fail_run("cannot write " + path);
    std::printf("perfbench spans written to %s\n", path.c_str());
  }

  const std::vector<Metric>& metrics =
      cfg.trace ? out.per_layer : out.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("perfbench metric %-40s %16.6g %-6s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    if (m.tail_bp > 0) std::printf(" p%g=%.6g", m.tail_bp / 100.0, m.tail);
    std::printf("\n");
  }
  const std::string result_path = cfg.workdir + "/result_" + workload +
                                  "_seed" + std::to_string(cfg.seed) +
                                  "_trace" + (cfg.trace ? "1" : "0") + ".json";
  if (!write_result(result_path, cfg, out, metrics)) {
    fail_run("cannot write " + result_path);
  }
  std::printf("perfbench result written to %s\n", result_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              out.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_json_metrics(metrics);
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}
