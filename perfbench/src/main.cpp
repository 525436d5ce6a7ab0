// vscrub_perfbench — the repository's benchmark tool. See README.md.
//
//   vscrub_perfbench --workload oneshot_sweep|served_warm|fabric_sampled
//                    --seed N --seconds S --trace 0|1
//                    [--refs DIR] [--work-dir DIR] [--commit ID]
//   vscrub_perfbench --make-refs DIR
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. A refused percentile
// (fewer than ten samples beyond it) has the value null.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "sim/simd.h"
#include "svc/requests.h"
#include "trace.h"

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_fingerprint(const std::string& commit) {
  std::printf(
      "host: nproc %u, cpu \"%s\", gang isa %s, gang width %u one-shot "
      "(CLI default) / %u served, build %s, compiler %s, commit %s\n",
      std::thread::hardware_concurrency(), cpu_model().c_str(),
      vscrub::simd_isa_name(vscrub::resolve_simd_isa(vscrub::SimdIsa::kAuto)),
      vscrub::InjectionOptions{}.gang_width,
      vscrub::served_gang_width_default(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, commit.c_str());
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.refused) {
      std::printf("  %-34s REFUSED: fewer than 10 samples beyond it, n=%llu\n",
                  m.name.c_str(), static_cast<unsigned long long>(m.samples));
      continue;
    }
    std::printf("  %-34s %14.6g %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

std::string json_line(const RunResult& r, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64] = "null";
    if (!metrics[i].refused) {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    }
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports its metrics as 0 so every traced run carries
/// the same set (README.md lists which workload measures which).
std::vector<Metric> all_layer_metrics(const std::vector<Metric>& measured) {
  std::vector<std::pair<std::string, std::string>> names = {
      {"pnr.compile_ms", "ms"},          {"sim.plan_compile_ms", "ms"},
      {"sim.gang_share", "ratio"},       {"sim.early_exit_rate", "ratio"},
      {"sim.fallback_rate", "ratio"},    {"sim.lanes_per_run", "lanes"},
      {"seu.corrupt_share", "ratio"},    {"seu.run_share", "ratio"},
      {"seu.repair_share", "ratio"},     {"seu.persist_share", "ratio"},
      {"seu.pruned_ratio", "ratio"},     {"store.hit_rate", "ratio"},
      {"store.warm_request_ms", "ms"},   {"store.cold_request_ms", "ms"},
      {"store.stores_per_request", "count"},
      {"store.preseed_s", "s"},          {"svc.admit_ms", "ms"},
      {"svc.queue_wait_ms", "ms"},       {"svc.run_ms", "ms"},
      {"svc.ping_us", "us"},             {"svc.busy_rejects", "count"},
      {"svc.server_start_ms", "ms"},
      {"svc.digest_mismatch_requests", "count"},
      {"coord.request_ms", "ms"},        {"coord.oneshot_ms", "ms"},
      {"coord.overhead_ms", "ms"},       {"coord.ranges", "count"},
      {"coord.reassignments", "count"},
      {"coord.duplicate_completions", "count"}};
  for (const char* d : {"lfsr", "lfsrmult", "mult", "fir"}) {
    const std::string design = d;
    names.push_back({"seu.campaign_ms." + design, "ms"});
    names.push_back({"seu.verdict_mismatch." + design, "bits"});
    names.push_back({"seu.metadata_mismatch." + design, "bits"});
  }
  std::vector<Metric> out;
  for (const auto& [name, unit] : names) {
    Metric m{name, 0.0, unit, 0};
    for (const Metric& x : measured) {
      if (x.name == name) m = x;
    }
    out.push_back(m);
  }
  return out;
}

/// The untraced run leaves its end-to-end numbers here so the traced run
/// of the same workload can print the tracing overhead against them.
std::string untraced_path(const RunArgs& args) {
  return args.work_dir + "/untraced-" + args.workload + ".txt";
}

void save_untraced(const RunArgs& args, const RunResult& r) {
  std::ofstream out(untraced_path(args));
  out << "seed " << args.seed << '\n';
  for (const Metric& m : r.end_to_end) out << m.name << ' ' << m.value << '\n';
}

void print_overhead(const RunArgs& args, const RunResult& r) {
  std::ifstream in(untraced_path(args));
  std::map<std::string, double> base;
  std::string name;
  double value = 0.0;
  while (in >> name >> value) base[name] = value;
  if (base.empty()) {
    std::printf("tracing overhead: no untraced run of %s recorded in this "
                "checkout yet\n", args.workload.c_str());
    return;
  }
  std::printf("tracing overhead vs the last untraced run (seed %.0f; "
              "includes run-to-run noise):\n", base["seed"]);
  for (const Metric& m : r.end_to_end) {
    const auto it = base.find(m.name);
    if (it == base.end() || it->second == 0.0) continue;
    std::printf("  %-24s traced %12.6g  untraced %12.6g  %+6.1f%%\n",
                m.name.c_str(), m.value, it->second,
                100.0 * (m.value / it->second - 1.0));
  }
}

int run(const RunArgs& args, const std::string& commit) {
  std::printf("== vscrub perfbench: workload %s, seed %llu, %.0f s, trace %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? "on" : "off");
  print_fingerprint(commit);
  Tracer::enable(args.trace);

  RunResult result;
  // Two seconds hold at least one whole block of fabric_sampled's five
  // requests, so every full window sees one of its large requests.
  PeakRssWindows rss(std::chrono::milliseconds(2000));
  if (args.workload == "oneshot_sweep") {
    result = run_oneshot(args);
  } else if (args.workload == "served_warm") {
    result = run_served(args);
  } else if (args.workload == "fabric_sampled") {
    result = run_fabric(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (oneshot_sweep, served_warm, "
                 "fabric_sampled)\n", args.workload.c_str());
    return 2;
  }
  const std::vector<double> rss_peaks = rss.stop();
  if (!rss.resettable()) {
    std::printf("note: cannot reset the peak resident set; peak_rss_mb is "
                "the median of cumulative peaks\n");
  }
  result.end_to_end.push_back(
      {"peak_rss_mb", median(rss_peaks), "MB", rss_peaks.size()});
  result.per_layer = all_layer_metrics(result.per_layer);

  print_metrics(args.trace ? "end-to-end (traced run; see overhead below):"
                           : "end-to-end:",
                result.end_to_end);
  std::printf("operations: attempted %llu, failed %llu (%.4f%%), checks %s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted
                  ? 100.0 * static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted)
                  : 0.0,
              result.correct ? "passed" : "FAILED");
  if (args.trace) {
    print_metrics("per-layer:", result.per_layer);
    std::printf("layer self time (span duration minus child spans):\n");
    for (const Tracer::LayerTotal& t : Tracer::layer_totals()) {
      std::printf("  %-6s %12.1f ms  %6llu spans\n", t.layer.c_str(),
                  t.self_ms, static_cast<unsigned long long>(t.spans));
    }
    print_overhead(args, result);
    const std::string trace_file =
        args.work_dir + "/trace-" + args.workload + "-seed" +
        std::to_string(args.seed) + ".json";
    if (Tracer::write_chrome_trace(trace_file)) {
      std::printf("trace: %llu spans written to %s\n",
                  static_cast<unsigned long long>(Tracer::span_count()),
                  trace_file.c_str());
    }
  } else {
    save_untraced(args, result);
  }
  std::fflush(stdout);
  std::printf("%s\n", json_line(result, args.trace ? result.per_layer
                                                   : result.end_to_end)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string commit = "unknown";
  std::string make_refs_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--refs") {
      args.refs_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--make-refs") {
      make_refs_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    if (!make_refs_dir.empty()) {
      perfbench::make_refs(make_refs_dir);
      return 0;
    }
    std::filesystem::create_directories(args.work_dir);
    return perfbench::run(args, commit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vscrub_perfbench: %s\n", e.what());
    return 1;
  }
}
