#include "refs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

#include "pnr/pnr.h"
#include "report/json.h"
#include "seu/campaign.h"
#include "sim/simd.h"
#include "svc/protocol.h"
#include "svc/requests.h"

namespace perfbench {

using vscrub::CampaignOptions;
using vscrub::CampaignResult;
using vscrub::FlatJson;
using vscrub::FrameKind;
using vscrub::InjectionOptions;
using vscrub::PlacedDesign;

References load_references(const std::string& dir) {
  References refs;
  std::ifstream oracle(dir + "/oracle.txt");
  OracleRef* current = nullptr;
  for (std::string line; std::getline(oracle, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    if (line[0] == '=') {
      std::string eq, key;
      OracleRef ref;
      in >> eq >> key >> ref.injections >> ref.failures;
      current = &(refs.oracle[key] = std::move(ref));
      continue;
    }
    if (current == nullptr) continue;
    u64 linear = 0;
    int persistent = 0;
    BitVerdict v;
    in >> linear >> persistent >> v.first_error_cycle >> std::hex >>
        v.error_output_mask_lo;
    v.persistent = persistent != 0;
    current->bits[linear] = v;
  }

  std::ifstream requests(dir + "/requests.txt");
  for (std::string line; std::getline(requests, line);) {
    if (line.empty()) continue;
    std::istringstream in(line);
    if (line[0] == '#') {
      std::string hash, name, value;
      in >> hash >> name >> value;
      if (!name.empty()) refs.generated_with[name] = value;
      continue;
    }
    std::string key;
    RequestRef ref;
    in >> key >> ref.injections >> ref.failures >> ref.modeled_hardware_s >>
        ref.sensitive_digest;
    refs.requests[key] = ref;
  }
  return refs;
}

void note_reference_engine(const References& refs) {
  const std::string width = std::to_string(vscrub::served_gang_width_default());
  const std::string isa =
      vscrub::simd_isa_name(vscrub::resolve_simd_isa(vscrub::SimdIsa::kAuto));
  const auto recorded = [&](const char* name) {
    const auto it = refs.generated_with.find(name);
    return it == refs.generated_with.end() ? std::string("?") : it->second;
  };
  if (recorded("served_gang_width") != width || recorded("gang_isa") != isa) {
    std::printf("note: request references were generated with gang width %s, "
                "isa %s; this run uses %s, %s\n",
                recorded("served_gang_width").c_str(),
                recorded("gang_isa").c_str(), width.c_str(), isa.c_str());
  }
}

OracleDiff diff_against_oracle(
    const std::unordered_map<u64, BitVerdict>& run, const OracleRef& oracle) {
  OracleDiff diff;
  for (const auto& [linear, verdict] : run) {
    const auto it = oracle.bits.find(linear);
    if (it == oracle.bits.end()) {
      ++diff.verdict_mismatch;
    } else if (!(it->second == verdict)) {
      ++diff.metadata_mismatch;
    }
  }
  for (const auto& entry : oracle.bits) {
    if (!run.contains(entry.first)) ++diff.verdict_mismatch;
  }
  return diff;
}

bool matches_reference(const RequestRef& ref, u64 injections, u64 failures,
                       double modeled_hardware_s) {
  // Modeled time is an integer picosecond sum on both sides; the fleet
  // merge adds per-range doubles, so allow only floating-point reordering.
  const double tolerance = 1e-9 * std::max(1.0, ref.modeled_hardware_s);
  return injections == ref.injections && failures == ref.failures &&
         std::fabs(modeled_hardware_s - ref.modeled_hardware_s) <= tolerance;
}

namespace {

/// Runs `jobs` callables on one worker per hardware thread; each job is one
/// campaign.
void run_parallel(std::vector<std::function<void()>>& jobs) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < jobs.size(); i = next++) jobs[i]();
    });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace

void make_refs(const std::string& refs_dir) {
  std::filesystem::create_directories(refs_dir);
  const auto space = std::make_shared<const vscrub::ConfigSpace>(
      vscrub::device_by_name("campaign"));

  // Every reference campaign runs at one thread: with more, the scalar
  // path's verdicts depend on how chunks are spread over workers (two
  // 4-thread oracle runs of exhaustive lfsrmult gave 15,634 and 16,599
  // failures), so only one-thread references are reproducible. Parallelism
  // comes from running several campaigns at once instead.
  const std::vector<PoolRequest> oracle = oracle_campaigns();
  std::vector<PoolRequest> pool = served_warm_pool();
  for (auto* extra : {&served_cold_pool, &fabric_pool, &fabric_large_pool}) {
    for (const PoolRequest& r : (*extra)()) pool.push_back(r);
  }
  std::vector<std::string> oracle_text(oracle.size());
  std::vector<std::string> lines(pool.size());
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    jobs.push_back([&, i] {
      const PoolRequest& r = oracle[i];
      const PlacedDesign design = vscrub::compile(
          std::make_shared<const vscrub::Netlist>(
              vscrub::design_by_name(r.design)),
          space);
      CampaignOptions options =
          CampaignOptions{}
              .with_injection(InjectionOptions{}.with_gang_width(1))
              .with_threads(1);
      if (r.sample > 0) options.with_sample(r.sample, r.seed);
      const CampaignResult result = vscrub::run_campaign(design, options);
      std::vector<std::pair<u64, BitVerdict>> bits;
      for (const auto& sb : result.sensitive_bits) {
        bits.push_back({space->linear_of(sb.addr),
                        {sb.persistent, sb.first_error_cycle,
                         sb.error_output_mask_lo}});
      }
      std::sort(bits.begin(), bits.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::ostringstream out;
      out << "= " << r.key() << ' ' << result.injections << ' '
          << result.failures << '\n';
      for (const auto& [linear, v] : bits) {
        out << linear << ' ' << (v.persistent ? 1 : 0) << ' '
            << v.first_error_cycle << ' ' << std::hex
            << v.error_output_mask_lo << std::dec << '\n';
      }
      oracle_text[i] = out.str();
      std::fprintf(stderr, "oracle %s: %llu injections, %llu failures\n",
                   r.key().c_str(),
                   static_cast<unsigned long long>(result.injections),
                   static_cast<unsigned long long>(result.failures));
    });
  }
  // Served and fleet pools: the served request executed one-shot, through
  // the same request path the daemon uses, on a one-thread pool.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    jobs.push_back([&, i] {
      vscrub::ThreadPool one(1);
      vscrub::RequestContext ctx;
      ctx.pool = &one;
      const FlatJson report = FlatJson::parse(
          vscrub::execute_request(FrameKind::kCampaign,
                                  FlatJson::parse(request_payload(pool[i],
                                                                  false)),
                                  ctx)
              .to_json());
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s %llu %llu %.17g %llu",
                    pool[i].key().c_str(),
                    static_cast<unsigned long long>(
                        report.get_u64("injections")),
                    static_cast<unsigned long long>(report.get_u64("failures")),
                    report.get_double("modeled_hardware_s"),
                    static_cast<unsigned long long>(
                        report.get_u64("sensitive_digest")));
      lines[i] = buf;
    });
  }
  run_parallel(jobs);

  std::ofstream oracle_file(refs_dir + "/oracle.txt");
  oracle_file << "# scalar oracle (gang width 1, 1 thread), device campaign; "
                 "per sensitive bit: linear persistent first_error_cycle "
                 "error_output_mask_lo\n";
  for (const std::string& text : oracle_text) oracle_file << text;
  std::ofstream out(refs_dir + "/requests.txt");
  out << "# served_gang_width " << vscrub::served_gang_width_default() << '\n'
      << "# gang_isa "
      << vscrub::simd_isa_name(vscrub::resolve_simd_isa(vscrub::SimdIsa::kAuto))
      << '\n';
  for (const std::string& line : lines) out << line << '\n';
  std::fprintf(stderr, "request references: %zu\n", lines.size());
}

}  // namespace perfbench
