// Shared daemon implementations for the two entry points each: `serve` (the
// dedicated `vscrubd` binary and `vscrubctl serve`) and `fleet-serve`
// (`vscrubd --coordinator` and `vscrubctl fleet-serve`). Both parse the
// command tables core/cli.cpp derives from service_config_flags() and
// coordinator_config_flags(), and apply the parsed flags through
// ServiceConfig::set / CoordinatorConfig::set, so flags, help text and
// behavior cannot drift apart.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "coord/coordinator.h"
#include "core/cli.h"
#include "svc/config.h"
#include "svc/server.h"

namespace vscrub {

/// Runs a started `role` ("service" or "coordinator") server until
/// SIGTERM/SIGINT: the first signal drains gracefully (in-flight work
/// finishes and delivers), a second cancels live work at the next chunk or
/// range boundary. Then writes the stats report when `stats_json` is set.
/// Returns 0 after a clean drain.
inline int run_until_drained(SocketServer& server, const char* role,
                             const std::string& banner,
                             const std::string& stats_json) {
  server.bind_signals();
  std::printf("vscrubd: %s\n", banner.c_str());
  std::fflush(stdout);
  server.run();
  if (!stats_json.empty() &&
      server.service().stats_report().write(stats_json)) {
    std::printf("vscrubd: wrote %s stats to %s\n", role, stats_json.c_str());
  }
  std::printf("vscrubd: %s drained, exiting\n", role);
  return 0;
}

inline int run_serve(const CliArgs& args) {
  ServiceConfig config;  // validated by the service the server builds
  for (const auto& [flag, value] : args.options) config.set(flag, value);
  SocketServer server(config);
  server.start();
  std::string banner = "listening on " + config.socket_path;
  if (config.tcp_port != 0) {
    banner += " and 127.0.0.1:" + std::to_string(config.tcp_port);
  }
  banner += " (queue " + std::to_string(config.queue_capacity) + ", " +
            std::to_string(config.executors) + " executors, store " +
            (config.cache_dir.empty() ? "disabled" : config.cache_dir);
  if (config.preempt_chunks > 0) {
    banner += ", preempt every " + std::to_string(config.preempt_chunks) +
              " chunks";
  }
  return run_until_drained(server, "service", banner + ")",
                           config.stats_json);
}

inline int run_fleet_serve(const CliArgs& args) {
  // Every flag but --stats-json is a CoordinatorConfig field.
  CoordinatorConfig config;
  for (const auto& [flag, value] : args.options) {
    if (flag != "--stats-json") config.set(flag, value);
  }
  // Only the transport fields of ServiceConfig matter here; the engine is
  // the CoordinatorService, not the default CampaignService.
  ServiceConfig transport;
  transport.socket_path = config.socket_path;
  const std::string banner =
      "coordinating " + std::to_string(config.workers.size()) +
      " worker(s) on " + config.socket_path + " (x" +
      std::to_string(config.shards_per_worker) + " shards, lease " +
      std::to_string(config.lease_ms) + " ms, hub store " +
      (config.cache_dir.empty() ? "disabled" : config.cache_dir) + ")";
  SocketServer server(transport,
                      std::make_unique<CoordinatorService>(std::move(config)));
  server.start();
  return run_until_drained(server, "coordinator", banner,
                           args.option("--stats-json", ""));
}

}  // namespace vscrub
