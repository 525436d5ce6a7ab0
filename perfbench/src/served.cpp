// served_warm: an in-process vscrubd (2 executors, a 2-thread pool, a
// verdict store) serving a closed loop of 4 ServiceSession clients. Each
// request is a 2,000-bit sampled campaign; 4 in 5 repeat a campaign
// pre-seeded into the store during set-up, 1 in 5 is a fresh one whose bits
// no earlier request touched.
#include <filesystem>
#include <map>
#include <mutex>

#include "pnr/pnr.h"
#include "refs.h"
#include "servers.h"
#include "svc/requests.h"
#include "trace.h"

namespace perfbench {

using vscrub::Frame;
using vscrub::FrameKind;
using vscrub::FlatJson;
using vscrub::ServiceSession;

vscrub::Frame timed_call(ServiceSession& session, const std::string& payload,
                         const std::shared_ptr<RequestTimes>& times) {
  times->submit = Clock::now();
  vscrub::JobHandle job = session.submit(
      FrameKind::kCampaign, payload, [times](const Frame& f) {
        const Clock::rep since = (Clock::now() - times->submit).count();
        if (f.kind == FrameKind::kAccepted) {
          times->accepted.store(since);
        } else if (f.kind == FrameKind::kProgress) {
          Clock::rep none = 0;
          times->first_progress.compare_exchange_strong(none, since);
        }
      });
  Frame reply = job.wait();
  times->done = Clock::now();
  return reply;
}

/// Classifies a terminal reply against the request's reference.
Outcome judge(const Frame& reply, const PoolRequest& r,
              const References& refs) {
  Outcome o;
  if (reply.kind == FrameKind::kBusy) {
    o.busy = true;
    return o;
  }
  if (reply.kind != FrameKind::kResult) {
    std::printf("CHECK FAILED: %s answered %s: %s\n", r.key().c_str(),
                vscrub::frame_kind_name(reply.kind), reply.payload.c_str());
    return o;
  }
  const FlatJson report = FlatJson::parse(reply.payload);
  o.injections = report.get_u64("injections");
  o.cache_hits = report.get_u64("cache_hits");
  o.cache_stores = report.get_u64("cache_stores");
  o.from_store = o.injections > 0 && o.cache_hits == o.injections;
  const auto ref = refs.requests.find(r.key());
  if (ref == refs.requests.end()) {
    std::printf("CHECK FAILED: no reference for %s\n", r.key().c_str());
    return o;
  }
  o.ok = matches_reference(ref->second, o.injections,
                           report.get_u64("failures"),
                           report.get_double("modeled_hardware_s"));
  if (!o.ok) {
    std::printf("CHECK FAILED: %s: injections %llu failures %llu modeled "
                "%.17g s, reference %llu / %llu / %.17g s\n",
                r.key().c_str(), static_cast<unsigned long long>(o.injections),
                static_cast<unsigned long long>(report.get_u64("failures")),
                report.get_double("modeled_hardware_s"),
                static_cast<unsigned long long>(ref->second.injections),
                static_cast<unsigned long long>(ref->second.failures),
                ref->second.modeled_hardware_s);
  }
  o.digest_mismatch =
      report.get_u64("sensitive_digest") != ref->second.sensitive_digest;
  return o;
}

namespace {

constexpr int kSetupRepeats = 7;
constexpr unsigned kClients = 4;
constexpr u64 kColdEvery = 5;  // one fresh campaign in every five requests

struct Ordered {
  PoolRequest request;
  bool fresh = false;
};

/// The seeded request order: blocks of five with one fresh campaign at a
/// seeded position, the other four drawn from the pre-seeded set. Ends
/// when the fresh pool is used up (a fresh slice never repeats in a run).
std::vector<Ordered> request_order(u64 seed) {
  SeedRng rng(seed);
  const std::vector<PoolRequest> warm = served_warm_pool();
  std::vector<PoolRequest> cold = served_cold_pool();
  rng.shuffle(cold);
  std::vector<Ordered> order;
  for (const PoolRequest& fresh : cold) {
    const u64 slot = rng.below(kColdEvery);
    for (u64 i = 0; i < kColdEvery; ++i) {
      order.push_back(i == slot ? Ordered{fresh, true}
                                : Ordered{warm[rng.below(warm.size())]});
    }
  }
  return order;
}

}  // namespace

RunResult run_served(const RunArgs& args) {
  RunResult out;
  const References refs = load_references(args.refs_dir);
  note_reference_engine(refs);
  const std::string dir = args.work_dir + "/served";
  const auto space = std::make_shared<const vscrub::ConfigSpace>(
      vscrub::device_by_name("campaign"));

  // ---- set-up: compile, server start, store pre-seed; the last one stays --
  std::unique_ptr<RunningServer> server;
  std::vector<double> setup_s, compile_ms, start_ms, preseed_s;
  vscrub::ServiceConfig config;
  config.socket_path = dir + "/vscrubd.sock";
  config.executors = 2;
  config.pool_threads = 2;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    config.cache_dir = dir + "/store";
    const Clock::time_point t0 = Clock::now();
    // A standalone compile() with the daemon's arguments, standing in for
    // the compile the daemon does on its first request of each design. The
    // daemon's own compile lands in the first repeat's pre-seed; its
    // process-wide memo survives server.reset(), so later repeats skip it.
    for (const char* d : {"lfsr", "lfsrmult", "mult", "counter"}) {
      SpanScope span("pnr", std::string("compile ") + d);
      (void)vscrub::compile(std::make_shared<const vscrub::Netlist>(
                                vscrub::design_by_name(d)),
                            space);
    }
    const Clock::time_point t1 = Clock::now();
    {
      SpanScope span("svc", "server start");
      server = std::make_unique<RunningServer>(config);
    }
    const Clock::time_point t2 = Clock::now();
    {
      SpanScope span("store", "preseed");
      ServiceSession session = ServiceSession::connect_unix(config.socket_path);
      for (const PoolRequest& r : served_warm_pool()) {
        auto times = std::make_shared<RequestTimes>();
        const Outcome o =
            judge(timed_call(session, request_payload(r, false), times), r,
                  refs);
        if (!o.ok) out.correct = false;
      }
    }
    const Clock::time_point t3 = Clock::now();
    setup_s.push_back(seconds_between(t0, t3));
    compile_ms.push_back(seconds_between(t0, t1) * 1e3);
    start_ms.push_back(seconds_between(t1, t2) * 1e3);
    preseed_s.push_back(seconds_between(t2, t3));
  }

  // ---- timed region: closed loop of kClients sessions ---------------------
  std::printf("client loop: closed, %u clients, 1 request in flight each; "
              "server 2 executors, pool 2, verdict store\n", kClients);
  const std::vector<Ordered> order = request_order(args.seed);
  std::atomic<std::size_t> cursor{0};
  std::mutex mutex;
  std::vector<Outcome> outcomes;  // guarded by mutex
  std::vector<double> ping_us;    // written by the ping thread only
  std::atomic<bool> stop_ping{false};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  u64 client_errors = 0;  // guarded by mutex
  // One client: sessions are per thread, requests come off the shared order.
  const auto client_loop = [&] {
    ServiceSession session = ServiceSession::connect_unix(config.socket_path);
    while (Clock::now() < deadline) {
      const std::size_t i = cursor++;
      if (i >= order.size()) break;
      const PoolRequest& r = order[i].request;
      auto times = std::make_shared<RequestTimes>();
      SpanScope span("svc", "request " + r.key(), i + 1);
      const Frame reply =
          timed_call(session, request_payload(r, true), times);
      Outcome o = judge(reply, r, refs);
      o.fresh = order[i].fresh;
      o.total_ms = times->total_ms();
      o.admit_ms = times->ms(times->accepted.load());
      o.queue_ms = times->ms(times->first_progress.load()) - o.admit_ms;
      o.run_ms = o.total_ms - o.admit_ms - o.queue_ms;
      if (Tracer::enabled() && reply.kind == FrameKind::kResult) {
        // The request's phases as child spans: admission and queue wait
        // belong to svc; the run to the store when it answered every bit.
        const u64 parent = Tracer::current();
        const auto at = [&](double ms) {
          return times->submit +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
        };
        Tracer::record("svc", "admit", i + 1, parent, at(0), at(o.admit_ms));
        Tracer::record("svc", "queue_wait", i + 1, parent, at(o.admit_ms),
                       at(o.admit_ms + o.queue_ms));
        Tracer::record(o.from_store ? "store" : "seu", "run", i + 1, parent,
                       at(o.admit_ms + o.queue_ms), times->done);
      }
      std::lock_guard lock(mutex);
      outcomes.push_back(o);
    }
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        client_loop();
      } catch (const std::exception& e) {
        // A lost connection ends this client; the run reports it as failed.
        std::printf("CHECK FAILED: client stopped: %s\n", e.what());
        std::lock_guard lock(mutex);
        ++client_errors;
      }
    });
  }
  // Under tracing, a fifth session measures ping round trips under load.
  std::thread pinger;
  if (args.trace) {
    pinger = std::thread([&] {
      try {
        ServiceSession session =
            ServiceSession::connect_unix(config.socket_path);
        while (!stop_ping.load()) {
          const Clock::time_point t0 = Clock::now();
          session.ping();
          ping_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      } catch (const std::exception& e) {
        std::printf("note: ping session stopped: %s\n", e.what());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall = seconds_between(start, Clock::now());
  stop_ping.store(true);
  if (pinger.joinable()) pinger.join();
  if (cursor.load() >= order.size()) {
    std::printf("note: the fresh-campaign pool ran out before %.0f s\n",
                args.seconds);
  }
  out.attempted += client_errors;
  out.failed += client_errors;
  if (client_errors > 0) out.correct = false;

  // ---- report -----------------------------------------------------------
  std::vector<double> latency, warm_ms, cold_ms, admit, queue, run;
  u64 injections = 0, hits = 0, stores = 0, busy = 0, digest_mm = 0;
  u64 completed = 0, fresh_hits = 0;
  for (const Outcome& o : outcomes) {
    ++out.attempted;
    if (o.busy) ++busy;
    if (!o.ok) {
      ++out.failed;
      if (!o.busy) out.correct = false;
      continue;
    }
    ++completed;
    latency.push_back(o.total_ms);
    admit.push_back(o.admit_ms);
    queue.push_back(o.queue_ms);
    run.push_back(o.run_ms);
    (o.from_store ? warm_ms : cold_ms).push_back(o.total_ms);
    injections += o.injections;
    hits += o.cache_hits;
    stores += o.cache_stores;
    if (o.fresh) fresh_hits += o.cache_hits;
    if (o.digest_mismatch) ++digest_mm;
  }
  const Percentile p50 = percentile(latency, 0.5);
  const Percentile p90 = percentile(latency, 0.9);
  std::printf("request latency: n=%zu (%zu answered from the store, %zu "
              "ran the engine); store hits on fresh requests: %llu bits\n",
              latency.size(), warm_ms.size(), cold_ms.size(),
              static_cast<unsigned long long>(fresh_hits));
  const u64 n = latency.size();
  out.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"injections_per_s", static_cast<double>(injections) / wall, "1/s", n},
      {"requests_per_s", static_cast<double>(completed) / wall, "1/s", n},
      {"request_p50_ms", p50.value, "ms", n, !p50.honest},
      {"request_p90_ms", p90.value, "ms", n, !p90.honest},
  };
  const double per_request = n ? 1.0 / static_cast<double>(n) : 0.0;
  out.per_layer = {
      {"pnr.compile_ms", median(compile_ms), "ms", compile_ms.size()},
      {"store.hit_rate",
       injections ? static_cast<double>(hits) / static_cast<double>(injections)
                  : 0.0,
       "ratio", n},
      {"store.warm_request_ms", median(warm_ms), "ms", warm_ms.size()},
      {"store.cold_request_ms", median(cold_ms), "ms", cold_ms.size()},
      {"store.stores_per_request", static_cast<double>(stores) * per_request,
       "count", n},
      {"store.preseed_s", median(preseed_s), "s", preseed_s.size()},
      {"svc.admit_ms", median(admit), "ms", admit.size()},
      {"svc.queue_wait_ms", median(queue), "ms", queue.size()},
      {"svc.run_ms", median(run), "ms", run.size()},
      {"svc.ping_us", median(ping_us), "us", ping_us.size()},
      {"svc.busy_rejects", static_cast<double>(busy), "count", 1},
      {"svc.server_start_ms", median(start_ms), "ms", start_ms.size()},
      {"svc.digest_mismatch_requests", static_cast<double>(digest_mm),
       "count", n},
  };
  server.reset();
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace perfbench
