#include "coord/coordinator.h"

#include <utility>

#include "coord/fabric.h"
#include "svc/requests.h"
#include "svc/store_wire.h"

namespace vscrub {

const std::vector<ServiceConfigFlag>& coordinator_config_flags() {
  static const std::vector<ServiceConfigFlag> flags = {
      {"--socket", true, "PATH",
       "coordinator unix socket (default /tmp/vscrub-coord.sock)"},
      {"--worker", true, "PATH",
       "register a vscrubd worker socket (repeatable)"},
      {"--cache-dir", true, "DIR",
       "verdict hub store — the fleet-wide reuse tier"},
      {"--shards-per-worker", true, "N",
       "contiguous bit ranges per worker (default 2)"},
      {"--lease-ms", true, "MS",
       "reassign a range after this long without a worker frame (default "
       "10000)"},
      {"--checkpoint-every-chunks", true, "N",
       "worker checkpoint-shipping cadence (default 2)"},
      {"--max-concurrent", true, "N",
       "concurrent sharded campaigns (default 2)"},
  };
  return flags;
}

void CoordinatorConfig::set(const std::string& flag,
                            const std::string& value) {
  const auto number = [&flag, &value](u64 max) {
    return parse_config_u64("fleet-serve: " + flag, value, max);
  };
  if (flag == "--socket") {
    socket_path = value;
  } else if (flag == "--worker") {
    workers.push_back(value);
  } else if (flag == "--cache-dir") {
    cache_dir = value;
  } else if (flag == "--shards-per-worker") {
    shards_per_worker = number(~u64{0});
  } else if (flag == "--lease-ms") {
    lease_ms = number(~u64{0});
  } else if (flag == "--checkpoint-every-chunks") {
    checkpoint_every_chunks = number(~u64{0});
  } else if (flag == "--max-concurrent") {
    max_concurrent = static_cast<unsigned>(number(4096));
  } else {
    throw ServiceConfigError("fleet-serve: unknown flag " + flag);
  }
}

void CoordinatorConfig::validate() const {
  const std::pair<bool, const char*> violations[] = {
      {socket_path.empty(), "socket_path must be set"},
      {workers.empty(), "at least one --worker socket is required"},
      {shards_per_worker == 0, "shards_per_worker must be positive"},
      {lease_ms == 0, "lease_ms must be positive"},
      {max_concurrent == 0, "max_concurrent must be positive"},
  };
  for (const auto& [violated, what] : violations) {
    if (violated) throw ServiceConfigError(std::string("coordinator: ") + what);
  }
}

CoordinatorService::CoordinatorService(CoordinatorConfig config)
    : config_(std::move(config)) {
  config_.validate();
  if (!config_.cache_dir.empty()) {
    store_ = std::make_unique<VerdictStore>(config_.cache_dir);
  }
}

CoordinatorService::~CoordinatorService() {
  begin_drain();
  wait_drained();
}

void CoordinatorService::handle(const Frame& request, Emit emit,
                                u64 client_id) {
  switch (request.kind) {
    case FrameKind::kPing:
      reply(emit, FrameKind::kResult, request.request_id,
            JsonReport("pong")
                .set_u64("protocol_version", 1)
                .set_string("role", "coordinator")
                .set_u64("workers", config_.workers.size()));
      return;
    case FrameKind::kStats:
      reply(emit, FrameKind::kResult, request.request_id, stats_report());
      return;
    case FrameKind::kStoreLookup:
    case FrameKind::kStorePublish: {
      StoreTraffic traffic;
      const Frame answer =
          answer_store_request(store_.get(), request, traffic);
      {
        std::lock_guard lock(mutex_);
        store_lookups_ += traffic.lookups;
        store_hits_ += traffic.hits;
        store_publishes_ += traffic.publishes;
      }
      emit(answer);
      return;
    }
    case FrameKind::kCancel:
      answer_cancel(request, emit, [&](u64 target) {
        std::lock_guard lock(mutex_);
        bool cancelled = false;
        for (LiveCampaign& c : live_) {
          if (c.client_id == client_id && c.request_id == target) {
            c.cancelled->store(true, std::memory_order_relaxed);
            cancelled = true;
          }
        }
        return cancelled;
      });
      return;
    case FrameKind::kCampaign:
      break;  // the sharded fleet campaign, admitted below
    default:
      reply(emit, FrameKind::kError, request.request_id,
            error_report("bad_request",
                         std::string("not a coordinator request kind: ") +
                             frame_kind_name(request.kind)));
      return;
  }

  // Check before admission, with the parser the workers run: a malformed
  // request costs one typed reply, not a runner thread and a retried error
  // on every range. Nothing is compiled; the universe size needs only the
  // device geometry.
  FlatJson params;
  try {
    params = FlatJson::parse(request.payload.empty() ? "{}" : request.payload);
    (void)request_design(params);
    (void)campaign_universe_size(params);
  } catch (const Error& e) {
    reply(emit, FrameKind::kError, request.request_id,
          error_report("bad_request", e.what()));
    return;
  }

  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  {
    std::lock_guard lock(mutex_);
    const char* busy = nullptr;
    if (draining_.load(std::memory_order_acquire)) {
      busy = "draining";
    } else if (running_ >= config_.max_concurrent) {
      busy = "at_capacity";
    }
    if (busy != nullptr) {
      // Replying under mutex_ is fine here: emit only enqueues bytes.
      reply(emit, FrameKind::kBusy, request.request_id,
            JsonReport("busy")
                .set_string("reason", busy)
                .set_u64("retry_after_ms", 250));
      return;
    }
    running_ += 1;
    campaigns_total_ += 1;
    live_.push_back({client_id, request.request_id, cancelled});
    runners_.emplace_back([this, id = request.request_id,
                           params = std::move(params), emit, cancelled,
                           client_id]() mutable {
      run_fleet_campaign(id, std::move(params), std::move(emit), cancelled);
      finish_campaign(client_id, id);
    });
  }
  reply(emit, FrameKind::kAccepted, request.request_id,
        JsonReport("accepted")
            .set_u64("workers", config_.workers.size())
            .set_u64("shards_per_worker", config_.shards_per_worker));
}

void CoordinatorService::run_fleet_campaign(
    u64 id, FlatJson params, Emit emit,
    std::shared_ptr<std::atomic<bool>> cancelled) {
  try {
    FabricOptions options;
    options.workers = config_.workers;
    options.params = std::move(params);
    options.shards_per_worker = config_.shards_per_worker;
    options.lease_ms = config_.lease_ms;
    options.checkpoint_every_chunks = config_.checkpoint_every_chunks;
    if (store_ != nullptr) options.remote_store_socket = config_.socket_path;
    options.cancelled = cancelled.get();
    if (options.params.get_bool("progress", false)) {
      options.on_progress = [this, emit, id](const JsonReport& p) {
        reply(emit, FrameKind::kProgress, id, p);
      };
    }
    FabricResult result = run_fabric_campaign(options);
    {
      std::lock_guard lock(mutex_);
      reassignments_total_ += result.reassignments;
      resumed_injections_total_ += result.resumed_injections;
    }
    reply(emit, FrameKind::kResult, id, result.merged);
  } catch (const std::exception& e) {
    {
      std::lock_guard lock(mutex_);
      campaigns_failed_ += 1;
    }
    reply(emit, FrameKind::kError, id, error_report("failed", e.what()));
  }
}

void CoordinatorService::finish_campaign(u64 client_id, u64 request_id) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].client_id == client_id &&
        live_[i].request_id == request_id) {
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  running_ -= 1;
  drained_cv_.notify_all();
}

void CoordinatorService::begin_drain() {
  draining_.store(true, std::memory_order_release);
}

void CoordinatorService::wait_drained() {
  std::vector<std::thread> runners;
  {
    std::unique_lock lock(mutex_);
    drained_cv_.wait(lock, [this] { return running_ == 0; });
    runners.swap(runners_);
  }
  // Joined outside the lock: a runner's last act (finish_campaign) takes it.
  for (std::thread& t : runners) {
    if (t.joinable()) t.join();
  }
  if (store_) store_->flush();
}

bool CoordinatorService::idle() const {
  std::lock_guard lock(mutex_);
  return running_ == 0;
}

void CoordinatorService::cancel_client(u64 client_id) {
  std::lock_guard lock(mutex_);
  for (LiveCampaign& c : live_) {
    if (c.client_id == client_id) {
      c.cancelled->store(true, std::memory_order_relaxed);
    }
  }
}

void CoordinatorService::cancel_all() {
  std::lock_guard lock(mutex_);
  for (LiveCampaign& c : live_) {
    c.cancelled->store(true, std::memory_order_relaxed);
  }
}

JsonReport CoordinatorService::stats_report() const {
  std::lock_guard lock(mutex_);
  JsonReport report("coordinator_stats");
  report.set_u64("workers", config_.workers.size());
  report.set_u64("campaigns_active", running_);
  report.set_u64("campaigns_total", campaigns_total_);
  report.set_u64("campaigns_failed", campaigns_failed_);
  report.set_u64("reassignments_total", reassignments_total_);
  report.set_u64("resumed_injections_total", resumed_injections_total_);
  report.set_u64("store_lookups", store_lookups_);
  report.set_u64("store_hits", store_hits_);
  report.set_u64("store_publishes", store_publishes_);
  report.set_u64("store_size", store_ ? store_->size() : 0);
  return report;
}

}  // namespace vscrub
