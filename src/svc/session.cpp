#include "svc/session.h"

#include <arpa/inet.h>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "report/json.h"

namespace vscrub {
namespace {

bool terminal(FrameKind kind) {
  return kind == FrameKind::kResult || kind == FrameKind::kError ||
         kind == FrameKind::kBusy;
}

/// Where this session dials (and redials): one of the two connect flavors.
struct Endpoint {
  bool tcp = false;
  std::string socket_path;
  u16 port = 0;
};

/// One connection attempt; -1 on failure (reconnect loops treat a failed
/// dial as one consumed attempt, the first connect throws instead).
int try_dial(const Endpoint& ep) {
  if (ep.tcp) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (ep.socket_path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, ep.socket_path.c_str(),
              ep.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Events buffered per job before a wait()/submit callback exists. Progress
/// is advisory telemetry: past this bound the oldest buffered frame is
/// dropped rather than growing without bound for a client that never waits.
constexpr std::size_t kMaxEventBacklog = 256;

}  // namespace

struct JobHandle::State {
  u64 id = 0;
  /// Delivery callback; once set, the reader delivers directly. Guarded by
  /// the session mutex. Only installed when `backlog` is empty, so exactly
  /// one thread delivers at a time and arrival order is preserved.
  EventFn sink;
  /// Non-terminal frames that arrived before a sink existed.
  std::deque<Frame> backlog;
  std::optional<Frame> terminal_frame;
  bool lost = false;
  std::string lost_reason;
  SessionErrorCode lost_code = SessionErrorCode::kConnectionLost;
};

struct SessionCore {
  SessionCore(int fd_in, Endpoint ep, ReconnectPolicy rp)
      : fd(fd_in), endpoint(std::move(ep)), reconnect(rp) {}
  ~SessionCore() {
    {
      std::lock_guard lock(mutex);
      shutting_down = true;
    }
    cv.notify_all();
    {
      // The reader swaps fd under both locks, so shutting down under
      // send_mutex always hits the live socket and wakes a blocked recv.
      std::lock_guard slock(send_mutex);
      ::shutdown(fd, SHUT_RDWR);
    }
    if (reader.joinable()) reader.join();
    ::close(fd);
  }

  /// Guarded by send_mutex for writers; only the reader thread replaces it
  /// (holding mutex + send_mutex), so the reader may read it lock-free.
  int fd;
  const Endpoint endpoint;
  const ReconnectPolicy reconnect;
  std::mutex mutex;  ///< guards jobs / states / closed / shutting_down
  std::condition_variable cv;
  u64 next_id = 1;
  std::map<u64, std::shared_ptr<JobHandle::State>> jobs;
  bool closed = false;
  bool shutting_down = false;
  std::string close_reason;
  SessionErrorCode close_code = SessionErrorCode::kConnectionLost;
  u64 reconnect_count = 0;  ///< guarded by mutex
  std::mutex send_mutex;    ///< one whole frame on the wire at a time
  std::thread reader;

  std::shared_ptr<JobHandle::State> send_request(FrameKind kind,
                                                 const std::string& payload,
                                                 JobHandle::EventFn on_event) {
    auto state = std::make_shared<JobHandle::State>();
    {
      std::lock_guard lock(mutex);
      if (closed) throw SessionError(close_code, "client: " + close_reason);
      state->id = next_id++;
      state->sink = std::move(on_event);
      jobs.emplace(state->id, state);
    }
    const std::vector<u8> bytes = encode_frame(Frame{kind, state->id, payload});
    std::size_t sent = 0;
    std::lock_guard slock(send_mutex);
    while (sent < bytes.size()) {
      const auto n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                            MSG_NOSIGNAL);
      if (n <= 0) {
        {
          std::lock_guard lock(mutex);
          jobs.erase(state->id);
        }
        throw SessionError(SessionErrorCode::kConnectionLost,
                           "client: connection lost while sending");
      }
      sent += static_cast<std::size_t>(n);
    }
    return state;
  }

  /// Submit + block for the terminal reply — the immediate kinds
  /// (ping/stats/cancel). Must not run on the reader thread.
  Frame call_inline(FrameKind kind, const std::string& payload) {
    const auto state = send_request(kind, payload, {});
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] {
      return state->terminal_frame.has_value() || state->lost;
    });
    if (state->lost) {
      throw SessionError(state->lost_code, "client: " + state->lost_reason);
    }
    return *state->terminal_frame;
  }

  void reader_loop() {
    while (true) {
      const std::string reason = read_connection();
      if (!try_reconnect(reason)) return;
    }
  }

  /// Demultiplexes the current connection until it dies; returns why.
  std::string read_connection() {
    FrameDecoder decoder;
    u8 buf[16384];
    while (true) {
      Frame frame;
      const FrameDecoder::Status status = decoder.next(&frame);
      if (status == FrameDecoder::Status::kFrame) {
        dispatch(frame);
        continue;
      }
      if (status != FrameDecoder::Status::kNeedMore) {
        return std::string("frame decode failed: ") +
               decode_status_name(status);
      }
      const auto n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return "connection closed by server";
      decoder.feed(std::span<const u8>(buf, static_cast<std::size_t>(n)));
    }
  }

  /// Runs the reconnect policy after a drop. In-flight jobs are lost either
  /// way (the server scopes request identity to the connection); the session
  /// itself survives when a redial lands. Returns true when the reader
  /// should keep demultiplexing on a fresh socket.
  bool try_reconnect(const std::string& reason) {
    {
      std::lock_guard lock(mutex);
      if (shutting_down || reconnect.max_attempts == 0) {
        fail_locked(reason, SessionErrorCode::kConnectionLost);
        cv.notify_all();
        return false;
      }
      // Jobs die now, the session stays open for post-reconnect submits.
      lose_jobs_locked(reason + " (session reconnecting)",
                       SessionErrorCode::kConnectionLost);
    }
    cv.notify_all();
    u32 backoff_ms = std::max<u32>(1, reconnect.backoff_initial_ms);
    for (u32 attempt = 1; attempt <= reconnect.max_attempts; ++attempt) {
      {
        std::unique_lock lock(mutex);
        if (cv.wait_for(lock, std::chrono::milliseconds(backoff_ms),
                        [&] { return shutting_down; })) {
          fail_locked("session closed", SessionErrorCode::kConnectionLost);
          cv.notify_all();
          return false;
        }
      }
      const int nfd = try_dial(endpoint);
      if (nfd >= 0) {
        std::scoped_lock lock(mutex, send_mutex);
        if (shutting_down) {
          ::close(nfd);
          fail_locked("session closed", SessionErrorCode::kConnectionLost);
          cv.notify_all();
          return false;
        }
        ::close(fd);
        fd = nfd;
        ++reconnect_count;
        return true;
      }
      backoff_ms = std::min(backoff_ms * 2,
                            std::max<u32>(1, reconnect.backoff_max_ms));
    }
    {
      std::lock_guard lock(mutex);
      fail_locked("reconnect failed after " +
                      std::to_string(reconnect.max_attempts) + " attempts (" +
                      reason + ")",
                  SessionErrorCode::kReconnectFailed);
    }
    cv.notify_all();
    return false;
  }

  void dispatch(const Frame& frame) {
    std::shared_ptr<JobHandle::State> state;
    JobHandle::EventFn sink;
    std::deque<Frame> backlog;
    const bool is_terminal = terminal(frame.kind);
    {
      std::lock_guard lock(mutex);
      const auto it = jobs.find(frame.request_id);
      if (it == jobs.end()) return;  // job already terminal, or a stray id
      state = it->second;
      sink = state->sink;
      if (is_terminal) {
        jobs.erase(it);
        // With no sink the backlog stays put: a later wait(on_event) still
        // replays the job's events before returning the terminal frame.
        if (sink) {
          backlog = std::move(state->backlog);
          state->backlog.clear();
        }
      } else if (sink) {
        backlog = std::move(state->backlog);
        state->backlog.clear();
      } else {
        if (state->backlog.size() >= kMaxEventBacklog) {
          state->backlog.pop_front();
        }
        state->backlog.push_back(frame);
        return;
      }
    }
    // Delivery happens outside the lock (a callback may be slow), but only
    // ever on this thread once a sink exists — order is preserved.
    if (sink) {
      for (const Frame& buffered : backlog) sink(buffered);
      if (!is_terminal) sink(frame);
    }
    if (is_terminal) {
      {
        std::lock_guard lock(mutex);
        state->terminal_frame = frame;
      }
      cv.notify_all();
    }
  }

  /// Marks every pending job lost without closing the session (the
  /// reconnect window). Caller holds `mutex` and notifies the cv after.
  void lose_jobs_locked(const std::string& reason, SessionErrorCode code) {
    for (auto& [id, state] : jobs) {
      state->lost = true;
      state->lost_reason = reason;
      state->lost_code = code;
    }
    jobs.clear();
  }

  /// Permanent death: every pending job and every later submit throws the
  /// typed error from here on. Caller holds `mutex` and notifies the cv.
  void fail_locked(const std::string& reason, SessionErrorCode code) {
    closed = true;
    close_reason = reason;
    close_code = code;
    lose_jobs_locked(reason, code);
  }
};

u64 JobHandle::id() const {
  VSCRUB_CHECK(state_ != nullptr, "client: id() on an empty JobHandle");
  return state_->id;
}

bool JobHandle::poll() const {
  VSCRUB_CHECK(state_ != nullptr, "client: poll() on an empty JobHandle");
  std::lock_guard lock(core_->mutex);
  return state_->terminal_frame.has_value() || state_->lost;
}

Frame JobHandle::wait(const EventFn& on_event) {
  const auto reply = wait_for(std::chrono::milliseconds(-1), on_event);
  return *reply;  // a negative deadline never times out
}

std::optional<Frame> JobHandle::wait_for(std::chrono::milliseconds timeout,
                                         const EventFn& on_event) {
  VSCRUB_CHECK(state_ != nullptr, "client: wait() on an empty JobHandle");
  const bool forever = timeout.count() < 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lock(core_->mutex);
  while (true) {
    if (on_event && !state_->sink) {
      // Flush the backlog on THIS thread, then install the sink. The sink
      // is only installed once the backlog is empty (under the lock), so
      // the reader never delivers concurrently with this flush.
      while (!state_->backlog.empty()) {
        Frame buffered = std::move(state_->backlog.front());
        state_->backlog.pop_front();
        lock.unlock();
        on_event(buffered);
        lock.lock();
      }
      if (state_->backlog.empty() && !state_->terminal_frame.has_value()) {
        state_->sink = on_event;
      }
    }
    if (state_->terminal_frame.has_value()) return *state_->terminal_frame;
    if (state_->lost) {
      throw SessionError(state_->lost_code, "client: " + state_->lost_reason);
    }
    if (forever) {
      core_->cv.wait(lock);
    } else if (core_->cv.wait_until(lock, deadline) ==
               std::cv_status::timeout) {
      return std::nullopt;
    }
  }
}

bool JobHandle::cancel() {
  VSCRUB_CHECK(state_ != nullptr, "client: cancel() on an empty JobHandle");
  const Frame reply = core_->call_inline(
      FrameKind::kCancel,
      JsonReport("cancel_request").set_u64("target_id", state_->id).to_json());
  return reply.kind == FrameKind::kResult &&
         FlatJson::parse(reply.payload).get_bool("cancelled", false);
}

ServiceSession ServiceSession::connect_unix(const std::string& socket_path,
                                            ReconnectPolicy reconnect) {
  VSCRUB_CHECK(socket_path.size() < sizeof sockaddr_un{}.sun_path,
               "client: socket path too long: " + socket_path);
  Endpoint ep;
  ep.socket_path = socket_path;
  const int fd = try_dial(ep);
  if (fd < 0) throw Error("client: cannot connect to " + socket_path);
  auto core = std::make_shared<SessionCore>(fd, std::move(ep), reconnect);
  core->reader = std::thread([raw = core.get()] { raw->reader_loop(); });
  return ServiceSession(std::move(core));
}

ServiceSession ServiceSession::connect_tcp(u16 port,
                                           ReconnectPolicy reconnect) {
  Endpoint ep;
  ep.tcp = true;
  ep.port = port;
  const int fd = try_dial(ep);
  if (fd < 0) {
    throw Error("client: cannot connect to loopback port " +
                std::to_string(port));
  }
  auto core = std::make_shared<SessionCore>(fd, std::move(ep), reconnect);
  core->reader = std::thread([raw = core.get()] { raw->reader_loop(); });
  return ServiceSession(std::move(core));
}

JobHandle ServiceSession::submit(FrameKind kind, const std::string& payload,
                                 EventFn on_event) {
  VSCRUB_CHECK(core_ != nullptr, "client: submit() on a moved-from session");
  auto state = core_->send_request(kind, payload, std::move(on_event));
  return JobHandle(core_, std::move(state));
}

Frame ServiceSession::call(FrameKind kind, const std::string& payload,
                           const EventFn& on_event) {
  return submit(kind, payload).wait(on_event);
}

bool ServiceSession::connected() const {
  if (core_ == nullptr) return false;
  std::lock_guard lock(core_->mutex);
  return !core_->closed;
}

u64 ServiceSession::reconnects() const {
  if (core_ == nullptr) return 0;
  std::lock_guard lock(core_->mutex);
  return core_->reconnect_count;
}

}  // namespace vscrub
