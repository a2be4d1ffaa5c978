// Machine fingerprint recorded with every result, and the STREAM triad
// the host kernels' computed GB/s is read against.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Fingerprint {
  int nproc = 1;
  int numa_nodes = 1;
  bool avx2 = false;
  std::size_t l2_bytes_per_core = 0;
  /// L2 per core times online cores: the working-set line host plans
  /// are sized against.
  std::size_t l2_total_bytes = 0;
  std::size_t llc_bytes = 0;
};

Fingerprint machine_fingerprint();
std::string describe(const Fingerprint& f);

/// Doubles per triad array: 3 arrays of 4M doubles (96 MiB in all).
inline constexpr std::size_t kTriadElems = std::size_t{1} << 22;

/// One STREAM triad pass a = b + s*c over kTriadElems doubles split across
/// `threads` threads; returns computed GB/s (3 x 8 bytes per element,
/// write-allocate traffic not counted -- the STREAM convention).
class Triad {
 public:
  explicit Triad(int threads);
  double pass_gbps();

 private:
  int threads_;
  std::vector<double> a_, b_, c_;
};

}  // namespace perfbench
