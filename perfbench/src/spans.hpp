// The benchmark's own span recorder (the library's tracer stays disarmed).
//
// Spans are recorded from the benchmark's code around each public call it
// makes into a layer: name, start, end, parent span and request id. They
// stay in memory and are written out once, at the end of a traced run. A
// span's self time is its duration minus the part its children cover.
// Recording is a no-op unless the run was started with --trace 1.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // string literal
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
};

std::uint64_t now_ns();

/// Arms recording for the rest of the process (call once, before work).
void spans_enable(std::size_t capacity);
bool spans_enabled();
/// Suppresses (or resumes) recording without disarming: paired rounds
/// with and without spans give the tracing overhead.
void spans_pause(bool paused);

/// RAII span around one call; nests under the thread's open span.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t t0_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
};

/// Records a finished span with explicit times (cross-thread requests:
/// the open loop's due-to-reply span). Returns its id (0 when disarmed).
std::uint32_t span_emit(const char* name, std::uint64_t t0_ns,
                        std::uint64_t t1_ns, std::uint64_t request,
                        std::uint32_t parent = 0);

/// Per-name totals over every recorded span.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::map<std::string, SpanTotals> span_totals();
std::size_t spans_recorded();
std::size_t spans_dropped();

/// Writes every recorded span as Chrome trace-event JSON. The readers
/// (span_totals, spans_recorded, spans_write) run after every recording
/// thread has been joined.
bool spans_write(const std::string& path);

}  // namespace perfbench
