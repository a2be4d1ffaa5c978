// served_fleet: an open loop of single-RHS requests through net::Router
// over loopback to in-process SolveServer shards, spread over small tenant
// factors with Zipf-skewed popularity, at two fixed offered rates ("low",
// well under the throughput knee; "high", past the p99 knee and below the
// throughput knee). A traced run also searches
// a fixed rate ladder for the highest rate whose p99 meets a fixed limit.
//
// The loop is honest: every request is timed from when it was DUE, so a
// stall charges its wait to every request queued behind it. Every chunk
// is kept; the generator's lateness is recorded per request (p99
// reported), and a step that sent more than a tenth of its requests over
// kMaxLateUs late (p90 lateness past the bound) is INVALID: it reports no
// latency (NaN, printed as -1). A refused, shed or wrong reply counts as
// missing every limit.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = msptrsv::core;
namespace net = msptrsv::net;
namespace svc = msptrsv::service;

namespace {

constexpr int kShards = 2;
/// Offered rates in RHS per second. Fixed, never calibrated per run: the
/// metric must mean the same load on every commit. README.md records the
/// rate scans these were chosen from.
constexpr double kLowRate = 2000.0;
constexpr double kHighRate = 6000.0;
/// The ladder: x1.1 steps from 1000/s up to about 13000/s.
constexpr int kRungs = 28;
double rung_rate(std::size_t i) {
  return 1000.0 * std::pow(1.1, static_cast<double>(i));
}
constexpr double kP99LimitUs = 5000.0;
/// Generator lateness (p90) past which a step is invalid: the generator
/// then did not keep the schedule, rather than sharing a box-wide stall
/// with the shards (which timing from the due time already charges).
constexpr double kMaxLateUs = 1000.0;
constexpr std::size_t kRhsPerTenant = 4;
/// Window of one ladder probe (traced runs only).
constexpr double kProbeSeconds = 0.6;
constexpr const char* kTenantKeys[] = {"auto", "cpu-syncfree"};

struct Tenant {
  CscMatrix lower;
  std::string key;
  std::vector<std::vector<value_t>> rhs;
  std::vector<std::vector<value_t>> expect;  // direct plan.solve answers
};

struct Fleet {
  std::vector<std::unique_ptr<net::SolveServer>> servers;
  std::unique_ptr<net::Router> router;
  std::vector<net::RoutedHandle> handles;

  ~Fleet() {
    router.reset();  // connections close before the shards drain
    for (auto& s : servers) s->stop();
  }
};

std::unique_ptr<Fleet> start_fleet(const std::vector<Tenant>& tenants) {
  Span span("served.setup");
  auto fleet = std::make_unique<Fleet>();
  net::RouterOptions ropt;
  for (int s = 0; s < kShards; ++s) {
    fleet->servers.push_back(std::make_unique<net::SolveServer>());
    expect_ok(fleet->servers.back()->start(), "server start");
    ropt.endpoints.push_back({"127.0.0.1", fleet->servers.back()->port()});
  }
  fleet->router = std::make_unique<net::Router>(ropt);
  for (const Tenant& t : tenants) {
    fleet->handles.push_back(
        expect_ok(fleet->router->open(t.lower, t.key), "router open"));
  }
  return fleet;
}

/// Histogram of what was recorded between two snapshots.
svc::LatencyHistogramSnapshot hist_delta(
    const svc::LatencyHistogramSnapshot& after,
    const svc::LatencyHistogramSnapshot& before) {
  svc::LatencyHistogramSnapshot d = after;
  d.count -= before.count;
  d.sum_us -= before.sum_us;
  for (std::size_t i = 0; i < std::min(before.counts.size(), d.counts.size());
       ++i) {
    d.counts[i] -= before.counts[i];
  }
  return d;
}

/// Service counters summed over the shards -- as totals, or accumulated
/// as the growth over the chunks run at one rate.
struct ServiceTotals {
  std::uint64_t completed = 0, batches = 0, coalesced_rhs = 0,
                packed_plans = 0, rejected = 0, shed = 0;
  double dispatched_rhs = 0.0;
  std::array<svc::LatencyHistogramSnapshot, msptrsv::support::trace::kNumPhases>
      phase_hist{};

  static ServiceTotals of(const Fleet& fleet) {
    ServiceTotals t;
    for (const auto& server : fleet.servers) {
      const svc::ServiceStatsSnapshot s = server->service().stats();
      t.completed += s.completed;
      t.batches += s.batches;
      t.coalesced_rhs += s.coalesced_rhs;
      t.packed_plans += s.packed_plans;
      t.rejected += s.rejected;
      t.shed += s.shed;
      t.dispatched_rhs +=
          s.mean_coalesce_width * static_cast<double>(s.batches);
      for (std::size_t p = 0; p < t.phase_hist.size(); ++p) {
        t.phase_hist[p].merge(s.phase_hist[p]);
      }
    }
    return t;
  }
  void add_growth(const ServiceTotals& after, const ServiceTotals& before) {
    completed += after.completed - before.completed;
    batches += after.batches - before.batches;
    coalesced_rhs += after.coalesced_rhs - before.coalesced_rhs;
    packed_plans += after.packed_plans - before.packed_plans;
    rejected += after.rejected - before.rejected;
    shed += after.shed - before.shed;
    dispatched_rhs += after.dispatched_rhs - before.dispatched_rhs;
    for (std::size_t p = 0; p < phase_hist.size(); ++p) {
      phase_hist[p].merge(
          hist_delta(after.phase_hist[p], before.phase_hist[p]));
    }
  }
  double width() const {
    return batches > 0 ? dispatched_rhs / static_cast<double>(batches) : 0.0;
  }
};

/// Samples of one open-loop step, gathered over one or more chunks.
struct Step {
  double rate = 0.0;
  /// Per request, from its due time; +inf for a refused or wrong reply
  /// (which misses every limit).
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  std::size_t wrong = 0;    // errors and wrong bits
  std::size_t refused = 0;  // kOverloaded / kDeadlineExceeded
  /// Requests still unanswered when the step's window closed (the worst
  /// chunk's).
  std::size_t backlog_end = 0;

  void add(const Step& o) {
    rate = o.rate;
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    lateness_us.insert(lateness_us.end(), o.lateness_us.begin(),
                       o.lateness_us.end());
    wrong += o.wrong;
    refused += o.refused;
    backlog_end = std::max(backlog_end, o.backlog_end);
  }
  double p99_us() const { return percentile(latency_us, 9900); }
  double late_p99_us() const { return percentile(lateness_us, 9900); }
  double late_p90_us() const { return percentile(lateness_us, 9000); }
  bool valid() const { return late_p90_us() <= kMaxLateUs; }
  /// `v` when the step is valid; NaN (no latency) otherwise.
  double if_valid(double v) const {
    return valid() ? v : std::numeric_limits<double>::quiet_NaN();
  }
  bool backlog_growing() const {
    // A stable queue holds about rate x limit requests at most.
    return static_cast<double>(backlog_end) >
           std::max(8.0, rate * kP99LimitUs / 1e6);
  }
  bool meets_limit() const {
    return valid() && wrong == 0 && refused == 0 && p99_us() <= kP99LimitUs &&
           !backlog_growing();
  }
};

struct Pending {
  std::size_t index = 0;
  std::future<core::Expected<std::vector<value_t>>> reply;
};

/// One collector per shard connection: replies on a connection arrive in
/// submission order (the server's completion pump is FIFO), so waiting on
/// them in order stamps each at its arrival.
class Collector {
 public:
  Collector(const std::vector<Tenant>& tenants,
            const std::vector<std::uint32_t>& tenant_of,
            const std::vector<std::uint64_t>& due_ns,
            std::vector<std::uint64_t>& done_ns, std::vector<int>& verdict)
      : tenants_(tenants), tenant_of_(tenant_of), due_ns_(due_ns),
        done_ns_(done_ns), verdict_(verdict), thread_([this] { loop(); }) {}
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      core::Expected<std::vector<value_t>> r = p.reply.get();
      const std::uint64_t done = now_ns();
      const std::size_t i = p.index;
      done_ns_[i] = done;
      const Tenant& t = tenants_[tenant_of_[i]];
      if (!r.ok()) {
        const bool refusal = r.status() == core::SolveStatus::kOverloaded ||
                             r.status() == core::SolveStatus::kDeadlineExceeded;
        verdict_[i] = refusal ? 2 : 1;
      } else {
        verdict_[i] = same_bits(r.value(), t.expect[i % kRhsPerTenant]) ? 0 : 1;
      }
      span_emit("served.request", due_ns_[i], done, i + 1);
    }
  }

  const std::vector<Tenant>& tenants_;
  const std::vector<std::uint32_t>& tenant_of_;
  const std::vector<std::uint64_t>& due_ns_;
  std::vector<std::uint64_t>& done_ns_;
  std::vector<int>& verdict_;  // 0 ok, 1 wrong/error, 2 refused
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  std::thread thread_;  // last: started after the members it uses
};

void wait_until(std::uint64_t due_ns) {
  const std::uint64_t now = now_ns();
  // Sleep to within 400 us of the due time, then spin: a sleeping
  // thread's wake-up slop on a busy box would otherwise show as lateness.
  if (due_ns > now + 500000) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - 400000));
  }
  while (now_ns() < due_ns) {
  }
}

Step run_chunk(Fleet& fleet, const std::vector<Tenant>& tenants, double rate,
               double seconds, std::uint64_t seed) {
  Span span("served.chunk");
  const Schedule schedule =
      open_loop_schedule(rate, seconds, tenants.size(), seed);
  const std::vector<std::uint32_t>& tenant_of = schedule.tenant;
  const std::size_t n = schedule.offsets.size();
  std::vector<std::uint64_t> due(n), done(n, 0);
  std::vector<int> verdict(n, 1);
  Step r;
  r.rate = rate;
  r.lateness_us.reserve(n);
  const std::uint64_t t0 = now_ns() + 2000000;  // 2 ms lead-in
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + static_cast<std::uint64_t>(schedule.offsets[i] * 1e9);
  }
  {
    std::vector<std::unique_ptr<Collector>> collectors;
    for (int s = 0; s < kShards; ++s) {
      collectors.push_back(
          std::make_unique<Collector>(tenants, tenant_of, due, done, verdict));
    }
    for (std::size_t i = 0; i < n; ++i) {
      wait_until(due[i]);
      r.lateness_us.push_back(static_cast<double>(now_ns() - due[i]) / 1e3);
      const net::RoutedHandle& h = fleet.handles[tenant_of[i]];
      const Tenant& t = tenants[tenant_of[i]];
      Pending p{i, {}};
      {
        Span s("router.submit_batch", i + 1);
        p.reply = fleet.router->submit_batch(h, t.rhs[i % kRhsPerTenant], 1);
      }
      collectors[h.shard]->push(std::move(p));
    }
  }  // collectors drain and join
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  r.latency_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (done[i] > end) ++r.backlog_end;
    if (verdict[i] == 1) ++r.wrong;
    if (verdict[i] == 2) ++r.refused;
    r.latency_us.push_back(verdict[i] == 0
                               ? static_cast<double>(done[i] - due[i]) / 1e3
                               : std::numeric_limits<double>::infinity());
  }
  return r;
}

void print_step(const char* label, const Step& r) {
  const Timing t = summarize(r.latency_us);
  std::printf("served_fleet  %-6s rate=%7.0f/s n=%6zu p50=%8.1fus "
              "p99=%8.1fus p%.2f=%8.1fus wrong=%zu refused=%zu "
              "gen_late_p90=%6.1fus gen_late_p99=%6.1fus backlog_end=%zu "
              "%s%s\n",
              label, r.rate, t.count, t.median, r.p99_us(), t.tail_bp / 100.0,
              t.tail, r.wrong, r.refused, r.late_p90_us(), r.late_p99_us(),
              r.backlog_end,
              r.valid() ? "valid" : "INVALID",
              r.meets_limit() ? " meets-limit" : "");
}

/// Sequential median of `calls` invocations, in microseconds.
template <class F>
double sequential_us(int calls, F&& call) {
  std::vector<double> us;
  for (int i = 0; i < calls; ++i) {
    const std::uint64_t t0 = now_ns();
    call();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

class ServedFleet final : public Phase {
 public:
  explicit ServedFleet(const RunConfig& cfg) : cfg_(cfg) {}

  void setup(bool home, Outcome& out) override {
    // ---- inputs and direct-solve answers (untimed) -------------------------
    std::size_t t = 0;
    for (Factor& f : tenant_factors(cfg_.seed)) {
      Tenant tn;
      tn.key = kTenantKeys[t++ % std::size(kTenantKeys)];
      const std::vector<value_t> block =
          rhs_block(f.lower.rows, kRhsPerTenant,
                    derive_seed(cfg_.seed, "rhs:" + f.name));
      direct_.push_back(expect_ok(
          core::SolverPlan::analyze(
              f.lower, expect_ok(core::registry::options_for(tn.key), "key")),
          "direct analyze"));
      const auto n = static_cast<std::size_t>(f.lower.rows);
      for (std::size_t j = 0; j < kRhsPerTenant; ++j) {
        tn.rhs.emplace_back(block.begin() + static_cast<long>(j * n),
                            block.begin() + static_cast<long>((j + 1) * n));
        tn.expect.push_back(
            expect_ok(direct_.back().solve(tn.rhs.back()), "direct solve").x);
      }
      tn.lower = std::move(f.lower);
      tenants_.push_back(std::move(tn));
    }

    // ---- set-up: start the shards, connect the router, open every plan -----
    std::vector<double> setup_s;
    for (int rep = 0; rep < (home ? kSetupRepeats : 1); ++rep) {
      fleet_.reset();
      const std::uint64_t t0 = now_ns();
      fleet_ = start_fleet(tenants_);
      setup_s.push_back(seconds_since(t0));
    }
    if (home) out.e2e("setup_s", summarize(setup_s), "s");

    // Warm-up: one routed solve per tenant (first solves build workspaces).
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const auto r =
          fleet_->router->solve(fleet_->handles[i], tenants_[i].rhs[0]);
      out.check(r.ok() && same_bits(r.value(), tenants_[i].expect[0]));
    }
  }

  void measure(double seconds, Outcome& out) override {
    // Half of every slice at each fixed rate.
    chunk(kLowRate, seconds / 2, low_, low_service_, out);
    chunk(kHighRate, seconds / 2, high_, high_service_, out);
  }

  void report(Outcome& out) override {
    print_step("low", low_);
    print_step("high", high_);
    for (const Step* s : {&low_, &high_}) {
      if (!s->valid()) {
        // The generator ran late past its bound: the step did not offer
        // the load it names, so it reports no latency. Its requests were
        // still answered and checked one by one.
        std::printf("served_fleet  INVALID step at %.0f/s: generator p90 "
                    "lateness %.1f us > %.0f us\n",
                    s->rate, s->late_p90_us(), kMaxLateUs);
      }
    }
    out.layer("served.lat_low_p50_us",
              low_.if_valid(summarize(low_.latency_us).median), "us");
    out.layer("served.lat_low_p99_us", low_.if_valid(low_.p99_us()), "us");
    out.layer("served.lat_high_p50_us",
              high_.if_valid(summarize(high_.latency_us).median), "us");
    out.layer("served.lat_high_p99_us", high_.if_valid(high_.p99_us()), "us");

    // ---- per-layer: service phases at the high rate -------------------------
    // queue, coalesce, claim, kernel, reply
    constexpr std::size_t kShown[] = {0, 1, 2, 4, 6};
    for (const std::size_t p : kShown) {
      const svc::LatencyHistogramSnapshot& d = high_service_.phase_hist[p];
      const std::string name =
          std::string("service.") + msptrsv::support::trace::kPhaseNames[p];
      out.layer(name + "_p50_us", d.quantile(0.5), "us");
      out.layer(name + "_p99_us", d.quantile(0.99), "us");
    }
    const ServiceTotals& h = high_service_;
    out.layer("service.coalesce_width_mean", h.width(), "rhs");
    out.layer("service.coalesce_width_mean_low", low_service_.width(), "rhs");
    out.layer("service.coalesced_frac",
              h.completed > 0 ? static_cast<double>(h.coalesced_rhs) /
                                    static_cast<double>(h.completed)
                              : 0.0,
              "ratio");
    out.layer("service.packed_frac",
              h.batches > 0 ? static_cast<double>(h.packed_plans) /
                                  static_cast<double>(h.batches)
                            : 0.0,
              "ratio");
    out.layer("served.gen_late_p99_low_us", low_.late_p99_us(), "us");
    out.layer("served.gen_late_p99_high_us", high_.late_p99_us(), "us");
    out.layer("served.backlog_end_high", static_cast<double>(high_.backlog_end),
              "count");

    if (cfg_.trace) {
      ladder(out);
      ledger(out);
    }
    const ServiceTotals all = ServiceTotals::of(*fleet_);
    out.layer("service.rejected", static_cast<double>(all.rejected), "count");
    out.layer("service.shed", static_cast<double>(all.shed), "count");
    out.layer("served.late_chunks", late_chunks_, "count");
    std::uint64_t retries = 0, reconnects = 0;
    for (std::size_t s = 0; s < fleet_->router->shard_count(); ++s) {
      const net::ClientMetrics m =
          fleet_->router->shard_client(s).metrics_local();
      retries += m.retries;
      reconnects += m.reconnects;
    }
    out.layer("net.retries", static_cast<double>(retries), "count");
    out.layer("net.reconnects", static_cast<double>(reconnects), "count");
  }

 private:
  /// Runs one chunk at `rate`, counting it when its own generator p90
  /// lateness passed the bound (it is kept either way).
  Step run_counted(double rate, double seconds) {
    Step r = run_chunk(*fleet_, tenants_, rate, seconds,
                       derive_seed(cfg_.seed, "arrivals") + chunks_++);
    if (!r.valid()) ++late_chunks_;
    return r;
  }

  /// One chunk of a fixed-rate step; every chunk joins the step.
  void chunk(double rate, double seconds, Step& step, ServiceTotals& service,
             Outcome& out) {
    const ServiceTotals before = ServiceTotals::of(*fleet_);
    const Step r = run_counted(rate, seconds);
    service.add_growth(ServiceTotals::of(*fleet_), before);
    step.add(r);
    out.attempted += r.latency_us.size();
    out.failed += r.wrong + r.refused;
    out.wrong += r.wrong;
  }

  /// The highest ladder rate whose p99 meets the limit with no growing
  /// backlog, by bisection over the fixed ladder.
  void ladder(Outcome& out) {
    const int top = search_ladder(kRungs, [&](std::size_t i) {
      const Step r = run_counted(rung_rate(i), kProbeSeconds);
      print_step("ladder", r);
      // Refusals past capacity are the ladder's signal, not a failure of
      // the program; a wrong answer is.
      out.attempted += r.latency_us.size();
      out.failed += r.wrong;
      out.wrong += r.wrong;
      return r.meets_limit();
    });
    const double sustained =
        top >= 0 ? rung_rate(static_cast<std::size_t>(top)) : 0.0;
    std::printf("served_fleet  sustained %.0f rhs/s (p99 limit %.0f us, "
                "generator p90 bound %.0f us)\n",
                sustained, kP99LimitUs, kMaxLateUs);
    out.layer("served.sustained_rhs_per_s", sustained, "1/s");
  }

  /// One request shape driven through each layer in turn, closed loop.
  void ledger(Outcome& out) {
    constexpr int kCalls = 300;
    const Tenant& t = tenants_[0];
    const std::vector<value_t>& b = t.rhs[0];
    const double plan_us = sequential_us(kCalls, [&] {
      Span s("ledger.plan");
      const auto r = direct_[0].solve(b);
      out.check(r.ok() && same_bits(r.value().x, t.expect[0]));
    });
    double service_us = 0.0;
    {
      svc::SolveService service;
      const core::SolverPlan p =
          expect_ok(service.plan_for(t.lower, t.key), "service plan");
      service_us = sequential_us(kCalls, [&] {
        Span s("ledger.service");
        auto r = service.submit(p, b).get();
        out.check(r.ok() && same_bits(r.value().x, t.expect[0]));
      });
    }
    double wire_us = 0.0;
    {
      net::ClientOptions copt;
      copt.port = fleet_->servers[fleet_->handles[0].shard]->port();
      net::SolveClient client(copt);
      const net::PlanHandle h = expect_ok(client.open(t.lower, t.key), "open");
      wire_us = sequential_us(kCalls, [&] {
        Span s("ledger.wire");
        const auto r = client.solve(h, b);
        out.check(r.ok() && same_bits(r.value(), t.expect[0]));
      });
    }
    const double router_us = sequential_us(kCalls, [&] {
      Span s("ledger.router");
      const auto r = fleet_->router->solve(fleet_->handles[0], b);
      out.check(r.ok() && same_bits(r.value(), t.expect[0]));
    });
    out.layer("ledger.plan_us", plan_us, "us");
    out.layer("ledger.service_us", service_us, "us");
    out.layer("ledger.wire_us", wire_us, "us");
    out.layer("ledger.router_us", router_us, "us");
    out.layer("ledger.service_marginal_us", service_us - plan_us, "us");
    out.layer("ledger.wire_marginal_us", wire_us - service_us, "us");
    out.layer("ledger.router_marginal_us", router_us - wire_us, "us");
  }

  const RunConfig& cfg_;
  std::vector<Tenant> tenants_;
  std::vector<core::SolverPlan> direct_;
  std::unique_ptr<Fleet> fleet_;
  Step low_, high_;
  ServiceTotals low_service_, high_service_;
  std::uint64_t chunks_ = 0;
  int late_chunks_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_served_fleet(const RunConfig& cfg) {
  return std::make_unique<ServedFleet>(cfg);
}

}  // namespace perfbench
