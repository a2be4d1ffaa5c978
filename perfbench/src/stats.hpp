// Order statistics and aggregate helpers shared by every workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Percentiles are given in basis points (9900 = p99) and use the
/// nearest-rank definition: the ceil(bp * n / 10000)-th smallest sample.

/// Nearest-rank percentile of `values` (any order). 0 when empty.
double percentile(std::vector<double> values, int bp);

/// The highest of p50, p75, p90, p95, p99, p99.5, p99.9, p99.95, p99.99
/// with at least ten samples strictly beyond its rank, in basis points; 0
/// when even p50 leaves fewer than ten.
int highest_tail_bp(std::size_t n);

/// A timing as the benchmark reports it: the median, the highest
/// percentile with ten samples beyond it, and the sample count.
struct Timing {
  std::size_t count = 0;
  double median = 0.0;
  int tail_bp = 0;
  double tail = 0.0;
};
Timing summarize(std::vector<double> values);

double median(std::vector<double> values);

/// Geometric mean of positive values (0 when empty or any value <= 0).
double geomean(const std::vector<double>& values);

/// Ladder search: the index of the highest rung that passes, found by
/// bisection over `rungs` rates in ascending order (a rung is assumed to
/// pass whenever a higher one does), or -1 when rung 0 fails. `passes(i)`
/// runs rung i; about log2(rungs) + 1 rungs are run.
int search_ladder(std::size_t rungs,
                  const std::function<bool(std::size_t)>& passes);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xCBF29CE484222325ULL);

}  // namespace perfbench
