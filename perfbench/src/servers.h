// In-process daemons for the served and fleet workloads, and the closed
// client loop's per-request timing.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "refs.h"
#include "svc/server.h"
#include "svc/session.h"

namespace perfbench {

/// A SocketServer on its own event-loop thread; the destructor drains it
/// and joins the thread.
class RunningServer {
 public:
  explicit RunningServer(vscrub::ServiceConfig config)
      : server_(std::move(config)) {
    boot();
  }
  RunningServer(vscrub::ServiceConfig config,
                std::unique_ptr<vscrub::FrameService> service)
      : server_(std::move(config), std::move(service)) {
    boot();
  }
  ~RunningServer() {
    server_.request_stop();
    runner_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

 private:
  void boot() {
    server_.start();
    runner_ = std::thread([this] { server_.run(); });
  }

  vscrub::SocketServer server_;
  std::thread runner_;
};

/// Client-side timeline of one submitted request: submit, the kAccepted
/// frame, the first kProgress frame, and the terminal reply.
struct RequestTimes {
  Clock::time_point submit;
  Clock::time_point done;
  std::atomic<Clock::rep> accepted{0};        ///< ticks since submit
  std::atomic<Clock::rep> first_progress{0};  ///< ticks since submit

  double ms(Clock::rep ticks) const {
    return std::chrono::duration<double, std::milli>(Clock::duration(ticks))
        .count();
  }
  double total_ms() const { return seconds_between(submit, done) * 1e3; }
};

/// One finished request as the client saw it.
struct Outcome {
  bool ok = false;          ///< kResult and matching its reference
  bool busy = false;
  bool from_store = false;  ///< every injection answered by the store
  bool digest_mismatch = false;
  bool fresh = false;  ///< served: a slice no earlier request touched
  u64 injections = 0;
  u64 cache_hits = 0;
  u64 cache_stores = 0;
  double total_ms = 0.0, admit_ms = 0.0, queue_ms = 0.0, run_ms = 0.0;
};

/// Classifies a terminal reply against the request's reference; prints
/// every failed check.
Outcome judge(const vscrub::Frame& reply, const PoolRequest& r,
              const References& refs);

/// Submits `payload` as a campaign on `session`, records the timeline into
/// `times` and blocks until the terminal frame.
vscrub::Frame timed_call(vscrub::ServiceSession& session,
                         const std::string& payload,
                         const std::shared_ptr<RequestTimes>& times);

}  // namespace perfbench
