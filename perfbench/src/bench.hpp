// Shared run types of the benchmark program.
//
// Every invocation runs all four phases (host_iterate, served_fleet,
// cold_start, paper_sim), so each result carries every metric. The phase
// named by --workload is the run's HOME phase: it repeats its set-up to
// report setup_s and is measured for the full --seconds; the other three
// are measured for a shorter companion window. The phases' measurement
// windows are cut into slices and interleaved, so a burst of load from
// elsewhere on the machine lands on a minority of every phase's samples
// (which the medians then discard) instead of on all of one phase's.
// A metric's home workload -- the one later claims cite -- is the phase
// that defines it (see README.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/msptrsv.hpp"
#include "fingerprint.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory inside the checkout (blob files, span dumps).
  std::string workdir;
  /// Host threads the load and the kernels may use (nproc).
  int threads = 1;
  Fingerprint machine;
};

/// Set-up repetitions of the home phase; setup_s is their median.
inline constexpr int kSetupRepeats = 9;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value, and for a timing the highest percentile
  /// with at least ten samples beyond it (0 when there is none).
  std::size_t samples = 0;
  int tail_bp = 0;
  double tail = 0.0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The subset of `failed` that were wrong answers (or errors where an
  /// answer was due); refusals under load are failures but not wrong.
  std::uint64_t wrong = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    end_to_end.push_back({name, value, unit, samples, 0, 0.0});
  }
  /// A timing reported by its median.
  void e2e(const std::string& name, const Timing& t, const std::string& unit) {
    end_to_end.push_back({name, t.median, unit, t.count, t.tail_bp, t.tail});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit, 0, 0, 0.0});
  }
  /// Counts one checked operation; a wrong answer is a failure.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++wrong;
    }
  }
};

/// One workload's traffic, driven in slices.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Generates the inputs (untimed) and runs the set-up: kSetupRepeats
  /// times, reporting setup_s, when `home`; once otherwise.
  virtual void setup(bool home, Outcome& out) = 0;
  /// Measures for about `seconds` more (at least one unit of work),
  /// continuing where the previous slice stopped.
  virtual void measure(double seconds, Outcome& out) = 0;
  /// Runs what only the traced run needs and reports the metrics.
  virtual void report(Outcome& out) = 0;
};

std::unique_ptr<Phase> make_host_iterate(const RunConfig& cfg);
std::unique_ptr<Phase> make_served_fleet(const RunConfig& cfg);
std::unique_ptr<Phase> make_cold_start(const RunConfig& cfg);
std::unique_ptr<Phase> make_paper_sim(const RunConfig& cfg);

/// Seconds since `t0_ns` (steady clock).
double seconds_since(std::uint64_t t0_ns);

/// Bitwise equality of two solution vectors.
bool same_bits(const std::vector<msptrsv::value_t>& a,
               const std::vector<msptrsv::value_t>& b);

/// Ends the run (exit 3, no result line).
[[noreturn]] void fail_run(const std::string& why);

/// The value of a call that must not fail in set-up; anything else ends
/// the run.
template <class T>
T expect_ok(msptrsv::core::Expected<T>&& e, const char* what) {
  if (!e.ok()) fail_run(std::string(what) + ": " + e.message());
  return std::move(e.value());
}

}  // namespace perfbench
