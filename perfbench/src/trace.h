// In-memory span recorder for the traced run (--trace 1).
//
// A span is a layer boundary crossed by the benchmark: its layer (pnr, sim,
// seu, store, svc, coord), a name, start and end, the span that caused it
// and the request it belongs to. Spans stay in memory and are written once,
// at exit, as a Chrome trace-event file. With tracing off every call is a
// no-op, so the untraced run measures the program alone.
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
  const char* layer = "";
  std::string name;
  u64 id = 0;
  u64 parent = 0;   ///< 0 = a root span
  u64 request = 0;  ///< 0 = not part of a request
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();

  /// Records a finished span; returns its id (0 when tracing is off).
  static u64 record(const char* layer, std::string name, u64 request,
                    u64 parent, Clock::time_point start,
                    Clock::time_point end);
  /// The innermost open SpanScope on this thread (0 when none).
  static u64 current();

  /// Layer self times: each span's duration minus the part of it its
  /// child spans cover, summed per layer.
  struct LayerTotal {
    std::string layer;
    double self_ms = 0.0;
    u64 spans = 0;
  };
  static std::vector<LayerTotal> layer_totals();
  static u64 span_count();
  /// Writes every span as Chrome trace events (JSON); false on I/O error.
  static bool write_chrome_trace(const std::string& path);
};

/// RAII span around one call; nests through a thread-local parent.
class SpanScope {
 public:
  SpanScope(const char* layer, std::string name, u64 request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* layer_;
  std::string name_;
  u64 request_;
  u64 id_ = 0;
  u64 parent_ = 0;
  Clock::time_point start_;
};

}  // namespace perfbench
