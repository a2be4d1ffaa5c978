// Seeded input generation for every workload. The program under test only
// ever sees what these functions return: the same seed gives byte-identical
// inputs (inputs_hash pins it), a different seed gives different ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/msptrsv.hpp"

namespace perfbench {

using msptrsv::index_t;
using msptrsv::value_t;
using msptrsv::sparse::CscMatrix;

/// One generated lower factor (its ILU-style upper partner is the
/// transpose, built where a workload needs it).
struct Factor {
  std::string name;
  CscMatrix lower;
};

/// Stream seed for one named use of the run seed.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag);

/// Table I analog: the suite recipe of sparse/suite.cpp (rows capped at
/// `max_rows`, dependency nnz/n preserved, #levels preserved or derived
/// from the parallelism) drawn from a seeded stream instead of the fixed
/// per-name one, so each benchmark seed sees a fresh factor with the
/// published structure.
CscMatrix table1_analog(const std::string& name, index_t max_rows,
                        std::uint64_t seed);

/// host_iterate: wide mesh (roadNet-CA analog), few-level circuit (dc2
/// analog), deep chain-heavy factor.
std::vector<Factor> host_factors(std::uint64_t seed);
/// served_fleet: small tenant factors.
std::vector<Factor> tenant_factors(std::uint64_t seed);
/// cold_start: larger factors whose analysis costs tens of milliseconds.
std::vector<Factor> cold_factors(std::uint64_t seed);
/// paper_sim: the 16 Table I analogs at the figure benches' row cap.
std::vector<Factor> sim_factors(std::uint64_t seed);

/// k right-hand sides of length n, column-major, entries in [-1, 1).
std::vector<value_t> rhs_block(index_t n, index_t k, std::uint64_t seed);

/// Same pattern, new values: every off-diagonal scaled by a seeded factor
/// in [0.5, 1), diagonal kept (diagonal dominance is preserved).
std::vector<value_t> refreshed_values(const CscMatrix& m, std::uint64_t seed);

/// Open-loop arrival offsets in seconds: a Poisson process of `rate` per
/// second over [0, seconds).
std::vector<double> poisson_arrivals(double rate, double seconds,
                                     std::uint64_t seed);

/// `count` tenant draws from a Zipf(s) popularity law over `tenants`.
std::vector<std::uint32_t> zipf_draws(std::size_t count, std::size_t tenants,
                                      double s, std::uint64_t seed);

/// One open-loop step of served_fleet: Poisson arrivals at `rate`, each
/// sent to a Zipf(1.1)-popular tenant.
struct Schedule {
  std::vector<double> offsets;
  std::vector<std::uint32_t> tenant;
};
Schedule open_loop_schedule(double rate, double seconds, std::size_t tenants,
                            std::uint64_t seed);

/// Content hash of a workload's generated inputs ("host_iterate",
/// "served_fleet", "cold_start", "paper_sim").
std::uint64_t inputs_hash(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
