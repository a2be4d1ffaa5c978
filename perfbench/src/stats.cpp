#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr int kTailLadderBp[] = {5000, 7500, 9000, 9500, 9900,
                                 9950, 9990, 9995, 9999};

/// 1-based nearest rank of percentile `bp` in `n` samples (at least 1).
std::size_t rank_of(int bp, std::size_t n) {
  const std::size_t r =
      (static_cast<std::size_t>(bp) * n + 9999) / 10000;  // ceil
  return std::max<std::size_t>(1, r);
}

}  // namespace

double percentile(std::vector<double> values, int bp) {
  if (values.empty()) return 0.0;
  const std::size_t r = std::min(rank_of(bp, values.size()), values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<long>(r - 1),
                   values.end());
  return values[r - 1];
}

int highest_tail_bp(std::size_t n) {
  int best = 0;
  for (const int bp : kTailLadderBp) {
    if (n >= rank_of(bp, n) + 10) best = bp;
  }
  return best;
}

Timing summarize(std::vector<double> values) {
  Timing t;
  t.count = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  t.median = values[rank_of(5000, values.size()) - 1];
  t.tail_bp = highest_tail_bp(values.size());
  if (t.tail_bp > 0) t.tail = values[rank_of(t.tail_bp, values.size()) - 1];
  return t;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 5000);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

int search_ladder(std::size_t rungs,
                  const std::function<bool(std::size_t)>& passes) {
  // Invariant: rung `lo` passed (or lo == -1), rung `hi` failed (or
  // hi == rungs).
  long lo = -1;
  auto hi = static_cast<long>(rungs);
  while (hi - lo > 1) {
    const long mid = lo + (hi - lo) / 2;
    if (passes(static_cast<std::size_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<int>(lo);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace perfbench
