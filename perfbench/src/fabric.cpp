// fabric_sampled: a closed loop of one client doing fleet-submit through an
// in-process coordinator to two in-process workers (1 executor, pool 1
// each), with no verdict hub. Every request is lfsrmult with a fresh
// sample seed, checked against its one-shot reference. One request in
// five is three times larger, so that p90 falls among the large requests
// and p50 among the small ones, not on the edge of a slow spell of the
// host (README.md, noise finding 2).
#include <algorithm>
#include <filesystem>

#include "coord/coordinator.h"
#include "pnr/pnr.h"
#include "seu/campaign.h"
#include "servers.h"
#include "svc/requests.h"
#include "trace.h"

namespace perfbench {

using vscrub::FlatJson;
using vscrub::Frame;
using vscrub::FrameKind;
using vscrub::ServiceSession;

namespace {

constexpr int kSetupRepeats = 9;
constexpr int kWorkers = 2;
constexpr std::size_t kOneshotSamples = 8;  // traced run only
constexpr u64 kLargeEvery = 5;  // one large request in every five

/// The seeded request order: blocks of five with one large request at a
/// seeded position, the other four small. No request repeats in a run.
std::vector<PoolRequest> request_order(u64 seed,
                                       std::vector<PoolRequest> small) {
  SeedRng rng(seed);
  std::vector<PoolRequest> large = fabric_large_pool();
  rng.shuffle(small);
  rng.shuffle(large);
  std::vector<PoolRequest> order;
  const std::size_t blocks =
      std::min(large.size(), small.size() / (kLargeEvery - 1));
  for (std::size_t b = 0; b < blocks; ++b) {
    const u64 slot = rng.below(kLargeEvery);
    auto next_small = small.begin() + static_cast<std::ptrdiff_t>(
                                          b * (kLargeEvery - 1));
    for (u64 i = 0; i < kLargeEvery; ++i) {
      order.push_back(i == slot ? large[b] : *next_small++);
    }
  }
  return order;
}

/// Two workers and a coordinator, started in that order, stopped in reverse.
struct Fleet {
  std::vector<std::unique_ptr<RunningServer>> workers;
  std::unique_ptr<RunningServer> coordinator;
  std::string socket;

  explicit Fleet(const std::string& dir) {
    vscrub::CoordinatorConfig coord;
    for (int w = 0; w < kWorkers; ++w) {
      vscrub::ServiceConfig config;
      config.socket_path = dir + "/w" + std::to_string(w) + ".sock";
      config.executors = 1;
      config.pool_threads = 1;
      config.spool_dir = dir + "/spool" + std::to_string(w);
      coord.workers.push_back(config.socket_path);
      workers.push_back(std::make_unique<RunningServer>(config));
    }
    socket = dir + "/coord.sock";
    coord.socket_path = socket;
    vscrub::ServiceConfig transport;
    transport.socket_path = socket;
    coordinator = std::make_unique<RunningServer>(
        transport, std::make_unique<vscrub::CoordinatorService>(coord));
  }
  ~Fleet() {
    coordinator.reset();
    workers.clear();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
};

}  // namespace

RunResult run_fabric(const RunArgs& args) {
  RunResult out;
  const References refs = load_references(args.refs_dir);
  note_reference_engine(refs);
  const std::string dir = args.work_dir + "/fabric";
  const auto space = std::make_shared<const vscrub::ConfigSpace>(
      vscrub::device_by_name("campaign"));
  std::vector<PoolRequest> small = fabric_pool();
  const PoolRequest warm_up = small.back();
  small.pop_back();

  // ---- set-up: compile, fleet start, one warm-up request -----------------
  std::unique_ptr<Fleet> fleet;
  std::shared_ptr<const vscrub::PlacedDesign> design;
  std::vector<double> setup_s, compile_ms, start_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fleet.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope span("pnr", "compile lfsrmult");
      design = std::make_shared<const vscrub::PlacedDesign>(vscrub::compile(
          std::make_shared<const vscrub::Netlist>(
              vscrub::design_by_name("lfsrmult")),
          space));
    }
    const Clock::time_point t1 = Clock::now();
    {
      SpanScope span("svc", "fleet start");
      fleet = std::make_unique<Fleet>(dir);
    }
    const Clock::time_point t2 = Clock::now();
    {
      // The first campaign warms the workers' compiled-design memo.
      SpanScope span("coord", "warm-up request");
      ServiceSession session = ServiceSession::connect_unix(fleet->socket);
      const Outcome o = judge(
          timed_call(session, request_payload(warm_up, false),
                     std::make_shared<RequestTimes>()),
          warm_up, refs);
      if (!o.ok) out.correct = false;
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    compile_ms.push_back(seconds_between(t0, t1) * 1e3);
    start_ms.push_back(seconds_between(t1, t2) * 1e3);
  }

  // ---- timed region: one client, one request in flight -------------------
  std::printf("client loop: closed, 1 client; coordinator over %d workers "
              "(1 executor, pool 1 each), no verdict hub\n", kWorkers);
  const std::vector<PoolRequest> order = request_order(args.seed, small);
  ServiceSession session = ServiceSession::connect_unix(fleet->socket);
  std::vector<double> latency, small_latency, large_latency;
  u64 injections = 0, ranges = 0, reassignments = 0, duplicates = 0;
  u64 busy = 0, digest_mm = 0;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < args.seconds &&
         next < order.size()) {
    const PoolRequest& r = order[next++];
    auto times = std::make_shared<RequestTimes>();
    Frame reply;
    {
      SpanScope span("coord", "fleet_submit " + r.key(), next);
      reply = timed_call(session, request_payload(r, false), times);
    }
    const Outcome o = judge(reply, r, refs);
    ++out.attempted;
    if (o.busy) ++busy;
    if (!o.ok) {
      ++out.failed;
      if (!o.busy) out.correct = false;
      continue;
    }
    const FlatJson report = FlatJson::parse(reply.payload);
    latency.push_back(times->total_ms());
    (r.sample == warm_up.sample ? small_latency : large_latency)
        .push_back(times->total_ms());
    injections += o.injections;
    ranges += report.get_u64("fabric_ranges");
    reassignments += report.get_u64("fabric_reassignments");
    duplicates += report.get_u64("fabric_duplicate_completions");
    if (o.digest_mismatch) ++digest_mm;
  }
  const double wall = seconds_between(start, Clock::now());
  if (next >= order.size()) {
    std::printf("note: the fleet request pool ran out before %.0f s\n",
                args.seconds);
  }

  // Traced run only: the first small campaigns one-shot at two threads,
  // with the served request options, for the coordinator's overhead.
  std::vector<double> oneshot_ms;
  double lanes = 0.0, gang_runs = 0.0;
  if (args.trace) {
    for (std::size_t i = 0; i < next && oneshot_ms.size() < kOneshotSamples;
         ++i) {
      if (order[i].sample != warm_up.sample) continue;
      const vscrub::CampaignOptions options =
          vscrub::CampaignOptions{}
              .with_injection(vscrub::InjectionOptions{}.with_gang_width(
                  vscrub::served_gang_width_default()))
              .with_sample(order[i].sample, order[i].seed)
              .with_threads(2);
      const Clock::time_point t0 = Clock::now();
      vscrub::CampaignResult result;
      {
        SpanScope span("seu", "run_campaign " + order[i].key(), i + 1);
        result = vscrub::run_campaign(*design, options);
      }
      oneshot_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      lanes += static_cast<double>(result.phases.gang_lanes);
      gang_runs += static_cast<double>(result.phases.gang_runs);
    }
  }

  // ---- report -----------------------------------------------------------
  const Percentile p50 = percentile(latency, 0.5);
  const Percentile p90 = percentile(latency, 0.9);
  const u64 n = latency.size();
  std::printf("request latency: n=%llu fleet requests; %zu small, median "
              "%.1f ms; %zu large, median %.1f ms\n",
              static_cast<unsigned long long>(n), small_latency.size(),
              median(small_latency), large_latency.size(),
              median(large_latency));
  out.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"injections_per_s", static_cast<double>(injections) / wall, "1/s", n},
      {"requests_per_s", static_cast<double>(n) / wall, "1/s", n},
      {"request_p50_ms", p50.value, "ms", n, !p50.honest},
      {"request_p90_ms", p90.value, "ms", n, !p90.honest},
  };
  // The one-shot comparison runs small campaigns, so the fleet side is
  // the small requests' median too.
  const double request_ms = median(small_latency);
  out.per_layer = {
      {"pnr.compile_ms", median(compile_ms), "ms", compile_ms.size()},
      {"sim.lanes_per_run", gang_runs > 0 ? lanes / gang_runs : 0.0, "lanes",
       oneshot_ms.size()},
      {"svc.busy_rejects", static_cast<double>(busy), "count", 1},
      {"svc.server_start_ms", median(start_ms), "ms", start_ms.size()},
      {"svc.digest_mismatch_requests", static_cast<double>(digest_mm),
       "count", n},
      {"coord.request_ms", request_ms, "ms", small_latency.size()},
      {"coord.oneshot_ms", median(oneshot_ms), "ms", oneshot_ms.size()},
      {"coord.overhead_ms",
       oneshot_ms.empty() ? 0.0 : request_ms - median(oneshot_ms), "ms",
       oneshot_ms.size()},
      {"coord.ranges", n ? static_cast<double>(ranges) / static_cast<double>(n)
                         : 0.0,
       "count", n},
      {"coord.reassignments", static_cast<double>(reassignments), "count", n},
      {"coord.duplicate_completions", static_cast<double>(duplicates), "count",
       n},
  };
  fleet.reset();
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace perfbench
