#include "fingerprint.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

/// Parses a sysfs cache size such as "2048K" / "300M".
std::size_t parse_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) value <<= 10;
  if (i < text.size() && (text[i] == 'M' || text[i] == 'm')) value <<= 20;
  return value;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

Fingerprint machine_fingerprint() {
  Fingerprint f;
  f.nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  int nodes = 0;
  while (!read_line("/sys/devices/system/node/node" + std::to_string(nodes) +
                    "/cpulist")
              .empty()) {
    ++nodes;
  }
  f.numa_nodes = std::max(1, nodes);
  f.avx2 = __builtin_cpu_supports("avx2");
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    const std::string type = read_line(dir + "type");
    if (type == "Instruction") continue;
    const std::size_t size = parse_size(read_line(dir + "size"));
    if (level == "2") f.l2_bytes_per_core = size;
    if (size > f.llc_bytes) f.llc_bytes = size;
  }
  f.l2_total_bytes = f.l2_bytes_per_core * static_cast<std::size_t>(f.nproc);
  return f;
}

std::string describe(const Fingerprint& f) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "nproc=%d numa_nodes=%d avx2=%d l2_per_core=%zuKiB "
                "l2_total=%zuKiB llc=%zuKiB",
                f.nproc, f.numa_nodes, f.avx2 ? 1 : 0,
                f.l2_bytes_per_core >> 10, f.l2_total_bytes >> 10,
                f.llc_bytes >> 10);
  return buf;
}

Triad::Triad(int threads)
    : threads_(std::max(1, threads)),
      a_(kTriadElems, 0.0),
      b_(kTriadElems, 1.0),
      c_(kTriadElems, 2.0) {}

double Triad::pass_gbps() {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  const std::size_t slice = kTriadElems / static_cast<std::size_t>(threads_);
  for (int t = 0; t < threads_; ++t) {
    const std::size_t lo = static_cast<std::size_t>(t) * slice;
    const std::size_t hi = t + 1 == threads_ ? kTriadElems : lo + slice;
    workers.emplace_back([this, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) a_[i] = b_[i] + 3.0 * c_[i];
    });
  }
  for (std::thread& w : workers) w.join();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return 3.0 * 8.0 * static_cast<double>(kTriadElems) / s / 1e9;
}

}  // namespace perfbench
