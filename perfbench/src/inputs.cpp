#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "stats.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace sp = msptrsv::sparse;
using msptrsv::offset_t;
using msptrsv::support::Xoshiro256;

std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t state = fnv1a(tag.data(), tag.size()) ^ seed;
  return msptrsv::support::splitmix64(state);
}

CscMatrix table1_analog(const std::string& name, index_t max_rows,
                        std::uint64_t seed) {
  const sp::SuiteEntry& e = sp::find_entry(name);
  const index_t rows = std::min<index_t>(e.paper_rows, max_rows);
  const double scale =
      static_cast<double>(rows) / static_cast<double>(e.paper_rows);
  const double dep =
      static_cast<double>(e.paper_nnz) / static_cast<double>(e.paper_rows);
  const offset_t nnz =
      std::max<offset_t>(rows, static_cast<offset_t>(dep * rows));
  index_t levels = std::min<index_t>(e.paper_levels, rows);
  if (scale < 1.0 && static_cast<double>(rows) / levels < 4.0) {
    levels = std::max<index_t>(
        1, static_cast<index_t>(std::llround(
               rows / std::max(1.0, e.paper_parallelism))));
  }
  levels = std::max<index_t>(1, std::min(levels, rows));
  double locality = 0.5;
  switch (e.kind) {
    case sp::SuiteEntry::Kind::kMesh: locality = 0.65; break;
    case sp::SuiteEntry::Kind::kStructural: locality = 0.55; break;
    case sp::SuiteEntry::Kind::kCircuit: locality = 0.4; break;
    case sp::SuiteEntry::Kind::kGraph: locality = 0.1; break;
  }
  return sp::gen_layered_dag(rows, levels, nnz, locality,
                             derive_seed(seed, "table1:" + name));
}

std::vector<Factor> host_factors(std::uint64_t seed) {
  // Sizes are chosen so the mesh's L/U pair overflows the L2 total of a
  // 4-core box while the circuit and chain pairs fit inside it (the
  // working-set property the kernels' speed depends on); the run prints
  // every plan's resident bytes against the measured L2 total.
  std::vector<Factor> out;
  out.push_back({"mesh", table1_analog("roadNet-CA", 70000, seed)});
  out.push_back({"circuit", table1_analog("dc2", 24000, seed)});
  out.push_back({"chain", sp::gen_chain_heavy(8, 400, 512, 4,
                                              derive_seed(seed, "chain"))});
  return out;
}

std::vector<Factor> tenant_factors(std::uint64_t seed) {
  // Shapes are fixed per tenant (1.5k-5.6k rows, 8-52 levels, 3-5.75
  // nnz/row, locality 0-1) so every seed serves the same mix of sizes; the
  // seed draws each factor's structure.
  std::vector<Factor> out;
  for (int t = 0; t < 12; ++t) {
    const index_t n = 1500 + 375 * t;
    const index_t levels = 8 + 4 * t;
    const auto nnz = static_cast<offset_t>(n * (3.0 + 0.25 * t));
    const std::string name = "tenant" + std::to_string(t);
    out.push_back({name, sp::gen_layered_dag(n, levels, nnz, t / 11.0,
                                             derive_seed(seed, name))});
  }
  return out;
}

std::vector<Factor> cold_factors(std::uint64_t seed) {
  std::vector<Factor> out;
  out.push_back({"delaunay", table1_analog("delaunay_n20", 200000, seed)});
  out.push_back({"webbase", table1_analog("webbase-1M", 150000, seed)});
  return out;
}

std::vector<Factor> sim_factors(std::uint64_t seed) {
  constexpr index_t kFigureRowCap = 40000;  // bench_common's --max-rows
  std::vector<Factor> out;
  for (const sp::SuiteEntry& e : sp::table1_entries()) {
    out.push_back({e.name, table1_analog(e.name, kFigureRowCap, seed)});
  }
  return out;
}

std::vector<value_t> rhs_block(index_t n, index_t k, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(k));
  for (value_t& v : b) v = rng.uniform_real(-1.0, 1.0);
  return b;
}

std::vector<value_t> refreshed_values(const CscMatrix& m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<value_t> v = m.val;
  for (index_t j = 0; j < m.cols; ++j) {
    for (offset_t p = m.col_ptr[static_cast<std::size_t>(j)];
         p < m.col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      if (m.row_idx[static_cast<std::size_t>(p)] != j) {
        v[static_cast<std::size_t>(p)] *= rng.uniform_real(0.5, 1.0);
      }
    }
  }
  return v;
}

std::vector<double> poisson_arrivals(double rate, double seconds,
                                     std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

std::vector<std::uint32_t> zipf_draws(std::size_t count, std::size_t tenants,
                                      double s, std::uint64_t seed) {
  std::vector<double> cdf(tenants);
  double total = 0.0;
  for (std::size_t i = 0; i < tenants; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> out(count);
  for (std::uint32_t& d : out) {
    const double u = rng.uniform01() * total;
    d = static_cast<std::uint32_t>(
        std::min<std::size_t>(tenants - 1,
                              static_cast<std::size_t>(
                                  std::upper_bound(cdf.begin(), cdf.end(), u) -
                                  cdf.begin())));
  }
  return out;
}

Schedule open_loop_schedule(double rate, double seconds, std::size_t tenants,
                            std::uint64_t seed) {
  Schedule s;
  s.offsets = poisson_arrivals(rate, seconds, seed);
  s.tenant = zipf_draws(s.offsets.size(), tenants, 1.1, seed ^ 0x5a5a);
  return s;
}

namespace {

std::uint64_t hash_matrix(const CscMatrix& m, std::uint64_t h) {
  h = fnv1a(&m.rows, sizeof m.rows, h);
  h = fnv1a(m.col_ptr.data(), m.col_ptr.size() * sizeof(offset_t), h);
  h = fnv1a(m.row_idx.data(), m.row_idx.size() * sizeof(index_t), h);
  return fnv1a(m.val.data(), m.val.size() * sizeof(value_t), h);
}

}  // namespace

std::uint64_t inputs_hash(const std::string& workload, std::uint64_t seed) {
  std::vector<Factor> factors;
  if (workload == "host_iterate") factors = host_factors(seed);
  if (workload == "served_fleet") factors = tenant_factors(seed);
  if (workload == "cold_start") factors = cold_factors(seed);
  if (workload == "paper_sim") factors = sim_factors(seed);
  std::uint64_t h = fnv1a(workload.data(), workload.size());
  for (const Factor& f : factors) {
    h = hash_matrix(f.lower, h);
    const std::vector<value_t> b =
        rhs_block(f.lower.rows, 1, derive_seed(seed, "rhs:" + f.name));
    h = fnv1a(b.data(), b.size() * sizeof(value_t), h);
  }
  if (workload == "served_fleet") {
    const Schedule s = open_loop_schedule(2000.0, 1.0, factors.size(),
                                          derive_seed(seed, "arrivals"));
    h = fnv1a(s.offsets.data(), s.offsets.size() * sizeof(double), h);
    h = fnv1a(s.tenant.data(), s.tenant.size() * sizeof(std::uint32_t), h);
  }
  return h;
}

}  // namespace perfbench
