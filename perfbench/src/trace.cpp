#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<u64> g_next_id{1};
std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex
thread_local u64 t_current = 0;

void store(Span span) {
  std::lock_guard lock(g_mutex);
  g_spans.push_back(std::move(span));
}

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }
u64 Tracer::current() { return t_current; }

u64 Tracer::record(const char* layer, std::string name, u64 request,
                   u64 parent, Clock::time_point start,
                   Clock::time_point end) {
  if (!enabled()) return 0;
  const u64 id = g_next_id++;
  store(Span{layer, std::move(name), id, parent, request, start, end});
  return id;
}

SpanScope::SpanScope(const char* layer, std::string name, u64 request)
    : layer_(layer), name_(std::move(name)), request_(request) {
  if (!Tracer::enabled()) return;
  id_ = g_next_id++;
  parent_ = t_current;
  t_current = id_;
  start_ = Clock::now();
}

SpanScope::~SpanScope() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  t_current = parent_;
  store(Span{layer_, std::move(name_), id_, parent_, request_, start_, end});
}

std::vector<Tracer::LayerTotal> Tracer::layer_totals() {
  std::lock_guard lock(g_mutex);
  std::unordered_map<u64, std::vector<const Span*>> children;
  for (const Span& s : g_spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTotal> totals;
  for (const Span& s : g_spans) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        cover.push_back({std::max(c->start, s.start), std::min(c->end, s.end)});
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : cover) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += seconds_between(from, b);
        reach = b;
      }
    }
    LayerTotal& t = totals[s.layer];
    t.layer = s.layer;
    t.self_ms += (seconds_between(s.start, s.end) - covered) * 1e3;
    ++t.spans;
  }
  std::vector<LayerTotal> out;
  for (auto& [layer, total] : totals) out.push_back(total);
  return out;
}

u64 Tracer::span_count() {
  std::lock_guard lock(g_mutex);
  return g_spans.size();
}

bool Tracer::write_chrome_trace(const std::string& path) {
  std::lock_guard lock(g_mutex);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : g_spans) origin = std::min(origin, s.start);
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %llu, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu}}%s\n",
                 s.name.c_str(), s.layer,
                 seconds_between(origin, s.start) * 1e6,
                 seconds_between(s.start, s.end) * 1e6,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < g_spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
