#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <memory>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_paused{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::size_t> g_reserved{0};
std::atomic<std::size_t> g_dropped{0};
std::size_t g_capacity = 0;  // set once, before any recording thread runs

/// Each recording thread appends to its own buffer, so recording takes no
/// lock (a shared one would stall the open-loop generator behind its
/// collectors). Buffers are owned here and outlive their threads; they are
/// read only after every recording thread has been joined.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;

thread_local std::vector<SpanRecord>* t_buffer = nullptr;
thread_local std::uint32_t t_open = 0;

void push(const SpanRecord& r) {
  if (g_reserved.fetch_add(1, std::memory_order_relaxed) >= g_capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    t_buffer = g_buffers.back().get();
  }
  t_buffer->push_back(r);
}

/// Every recorded span, in no particular order.
std::vector<SpanRecord> all_spans() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<SpanRecord> out;
  for (const auto& b : g_buffers) out.insert(out.end(), b->begin(), b->end());
  return out;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void spans_enable(std::size_t capacity) {
  g_capacity = capacity;
  g_enabled.store(true, std::memory_order_release);
}

bool spans_enabled() { return g_enabled.load(std::memory_order_acquire); }

void spans_pause(bool paused) {
  g_paused.store(paused, std::memory_order_release);
}

namespace {
bool recording() {
  return spans_enabled() && !g_paused.load(std::memory_order_acquire);
}
}  // namespace

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!recording()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open;
  t_open = id_;
  t0_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t t1 = now_ns();
  t_open = parent_;
  push({name_, t0_, t1, id_, parent_, request_});
}

std::uint32_t span_emit(const char* name, std::uint64_t t0_ns,
                        std::uint64_t t1_ns, std::uint64_t request,
                        std::uint32_t parent) {
  if (!recording()) return 0;
  const std::uint32_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  push({name, t0_ns, t1_ns, id, parent, request});
  return id;
}

std::map<std::string, SpanTotals> span_totals() {
  const std::vector<SpanRecord> spans = all_spans();
  // Children's covered time per parent id (children of one parent run
  // sequentially on the parent's thread, so their durations do not
  // overlap; cross-thread emitted spans are roots).
  std::unordered_map<std::uint32_t, double> child_us;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) {
      child_us[s.parent] += static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = out[s.name];
    const double us = static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
    const auto it = child_us.find(s.id);
    t.count += 1;
    t.total_us += us;
    t.self_us += std::max(0.0, us - (it == child_us.end() ? 0.0 : it->second));
  }
  return out;
}

std::size_t spans_recorded() { return all_spans().size(); }

std::size_t spans_dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

bool spans_write(const std::string& path) {
  const std::vector<SpanRecord> spans = all_spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t base = spans.empty() ? 0 : spans.front().t0_ns;
  for (const SpanRecord& s : spans) base = std::min(base, s.t0_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  // Concurrent requests overlap in time, so spans are spread over lanes
  // (tid) by request id; each request's spans nest within one lane.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":%llu}}%s\n",
                 s.name, static_cast<unsigned long long>(s.request % 64),
                 static_cast<double>(s.t0_ns - base) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
