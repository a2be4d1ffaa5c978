// Self-tests of the benchmark's own code: seeded inputs, the percentile
// and tail helpers, the geometric mean and the ladder search. Exits 0 when
// every check holds, 1 otherwise (printing each failure).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::fabs(b);
}

void test_inputs() {
  using perfbench::inputs_hash;
  for (const char* w :
       {"host_iterate", "served_fleet", "cold_start", "paper_sim"}) {
    const std::uint64_t a = inputs_hash(w, 7);
    expect(a == inputs_hash(w, 7), std::string(w) + ": same seed, same inputs");
    expect(a != inputs_hash(w, 8),
           std::string(w) + ": different seed, different inputs");
  }
  const auto arrivals = perfbench::poisson_arrivals(2000.0, 2.0, 11);
  expect(arrivals.size() > 3600 && arrivals.size() < 4400,
         "poisson arrivals: count near rate x seconds");
  const auto draws = perfbench::zipf_draws(20000, 12, 1.1, 5);
  std::vector<int> hist(12, 0);
  for (const auto d : draws) ++hist[d];
  expect(hist[0] > hist[1] && hist[1] > hist[5] && hist[5] > hist[11],
         "zipf draws: popularity falls with rank");
}

void test_percentiles() {
  using perfbench::highest_tail_bp;
  // Ten samples beyond: p99 needs n >= 1000, p99.9 needs n >= 10000.
  expect(highest_tail_bp(1000) == 9900, "n=1000 -> p99");
  expect(highest_tail_bp(999) == 9500, "n=999 -> p95 (p99 leaves 9)");
  expect(highest_tail_bp(10000) == 9990, "n=10000 -> p99.9");
  expect(highest_tail_bp(200) == 9500, "n=200 -> p95");
  expect(highest_tail_bp(19) == 0, "n=19 -> none (p50 leaves 9)");
  expect(highest_tail_bp(20) == 5000, "n=20 -> p50");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(1001 - i));
  const perfbench::Timing t = perfbench::summarize(v);
  expect(t.count == 1000, "summarize: count");
  expect(t.median == 500.0, "summarize: nearest-rank median of 1..1000");
  expect(t.tail_bp == 9900 && t.tail == 990.0, "summarize: p99 of 1..1000");
  expect(perfbench::percentile(v, 10000) == 1000.0, "percentile: p100 = max");
  expect(perfbench::percentile({}, 5000) == 0.0, "percentile: empty");
}

void test_aggregates() {
  expect(near(perfbench::geomean({1.0, 4.0, 16.0}), 4.0), "geomean {1,4,16}");
  expect(near(perfbench::geomean({2.0, 8.0}), 4.0), "geomean {2,8}");
  expect(perfbench::geomean({1.0, 0.0}) == 0.0, "geomean with a zero");
  expect(perfbench::geomean({}) == 0.0, "geomean of nothing");

  // Rungs 0..6 of 15 pass: bisection finds 6 in at most 4 probes.
  int tried = 0;
  const int top = perfbench::search_ladder(15, [&](std::size_t i) {
    ++tried;
    return i <= 6;
  });
  expect(top == 6, "ladder: highest passing rung");
  expect(tried <= 4, "ladder: bisection probes log2(rungs + 1) rungs");
  expect(perfbench::search_ladder(15, [](std::size_t) { return false; }) == -1,
         "ladder: no rung passes");
  expect(perfbench::search_ladder(15, [](std::size_t) { return true; }) == 14,
         "ladder: every rung passes");
  expect(perfbench::search_ladder(1, [](std::size_t) { return true; }) == 0,
         "ladder: single rung");
}

}  // namespace

int main() {
  test_inputs();
  test_percentiles();
  test_aggregates();
  std::printf("perfbench selftest: %s (%d failure%s)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
