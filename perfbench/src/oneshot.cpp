// oneshot_sweep: in-process run_campaign at one thread with the CLI's
// default engine options over the `campaign` device. lfsr, lfsrmult and
// mult run exhaustively; fir's fixed sample runs as consecutive range
// requests. Every bit's verdict and first-error metadata is compared with
// the committed scalar-oracle reference.
#include <map>
#include <memory>

#include "pnr/pnr.h"
#include "refs.h"
#include "seu/campaign.h"
#include "sim/eval_plan.h"
#include "sim/harness.h"
#include "svc/requests.h"
#include "trace.h"

namespace perfbench {

using vscrub::CampaignOptions;
using vscrub::CampaignResult;
using vscrub::PlacedDesign;

namespace {

constexpr int kSetupRepeats = 15;
const char* const kDesigns[] = {"lfsr", "lfsrmult", "mult", "fir"};

/// The design's golden eval plan, compiled the way the gang engine does
/// from a configured fabric (designs with a configured loop have none).
void compile_plan(const PlacedDesign& design) {
  vscrub::FabricSim sim(design.space);
  vscrub::DesignHarness harness(design, sim);
  harness.configure();
  sim.eval();
  std::vector<vscrub::u8> mask(sim.geometry().tile_count());
  for (u32 t = 0; t < mask.size(); ++t) {
    mask[t] = sim.tile_state(t).override_mask;
  }
  try {
    (void)vscrub::compile_eval_plan(sim, mask);
  } catch (const vscrub::EvalPlanError&) {
  }
}

/// The whole-campaign oracle key a pool request is checked against.
std::string oracle_key(const PoolRequest& r) {
  PoolRequest whole = r;
  whole.range_begin = whole.range_end = 0;
  return whole.key();
}

}  // namespace

RunResult run_oneshot(const RunArgs& args) {
  RunResult out;
  const References refs = load_references(args.refs_dir);
  const auto space = std::make_shared<const vscrub::ConfigSpace>(
      vscrub::device_by_name("campaign"));

  // ---- set-up: place-and-route and eval-plan compile of every design ----
  std::map<std::string, std::shared_ptr<const PlacedDesign>> designs;
  std::vector<double> setup_s, compile_ms, plan_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    double compile_total = 0.0;
    double plan_total = 0.0;
    for (const char* name : kDesigns) {
      const Clock::time_point c0 = Clock::now();
      std::shared_ptr<const PlacedDesign> design;
      {
        SpanScope span("pnr", std::string("compile ") + name);
        design = std::make_shared<const PlacedDesign>(vscrub::compile(
            std::make_shared<const vscrub::Netlist>(
                vscrub::design_by_name(name)),
            space));
      }
      const Clock::time_point c1 = Clock::now();
      {
        SpanScope span("sim", std::string("compile_eval_plan ") + name);
        compile_plan(*design);
      }
      const Clock::time_point c2 = Clock::now();
      compile_total += seconds_between(c0, c1) * 1e3;
      plan_total += seconds_between(c1, c2) * 1e3;
      designs[name] = design;
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    compile_ms.push_back(compile_total);
    plan_ms.push_back(plan_total);
  }

  // ---- timed region: whole sweeps until --seconds have elapsed ----------
  std::printf("client loop: closed, 1 in-process caller, 1 engine thread; "
              "whole sweeps, as many as fit in %.0f s (at least one)\n",
              args.seconds);
  SeedRng rng(args.seed);
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> design_ms;  // per sweep
  std::map<std::string, std::vector<double>> verdict_mm, metadata_mm;
  std::vector<double> sweep_mismatch;
  vscrub::InjectionPhases phases;
  u64 injections = 0;
  double busy_s = 0.0;
  u64 request_id = 0;
  const Clock::time_point start = Clock::now();
  double last_sweep_s = 0.0;
  do {
    const Clock::time_point sweep_start = Clock::now();
    std::vector<PoolRequest> order = oneshot_pool();
    rng.shuffle(order);
    std::map<std::string, std::unordered_map<u64, BitVerdict>> bits;
    std::map<std::string, u64> bits_injected;
    std::map<std::string, double> sweep_design_ms;
    for (const PoolRequest& r : order) {
      CampaignOptions options =
          CampaignOptions{}.with_injection(vscrub::InjectionOptions{})
              .with_threads(1);
      if (r.sample > 0) options.with_sample(r.sample, r.seed);
      if (r.range_end > r.range_begin) {
        options.with_range(r.range_begin, r.range_end);
      }
      const PlacedDesign& design = *designs.at(r.design);
      const Clock::time_point t0 = Clock::now();
      CampaignResult result;
      {
        SpanScope span("seu", "run_campaign " + r.key(), ++request_id);
        result = vscrub::run_campaign(design, options);
      }
      const double ms = seconds_between(t0, Clock::now()) * 1e3;
      latency_ms.push_back(ms);
      busy_s += ms / 1e3;
      sweep_design_ms[r.design] += ms;
      injections += result.injections;
      phases += result.phases;
      const std::string key = oracle_key(r);
      bits_injected[key] += result.injections;
      auto& design_bits = bits[key];
      for (const auto& sb : result.sensitive_bits) {
        design_bits[space->linear_of(sb.addr)] = {
            sb.persistent, sb.first_error_cycle, sb.error_output_mask_lo};
      }
    }
    // Per-bit check of the completed sweep against the scalar oracle.
    double mismatch = 0.0;
    for (const auto& [key, run_bits] : bits) {
      const auto ref = refs.oracle.find(key);
      out.attempted += bits_injected[key];
      if (ref == refs.oracle.end() ||
          ref->second.injections != bits_injected[key]) {
        std::printf("CHECK FAILED: %s has no oracle reference for %llu "
                    "injections\n", key.c_str(),
                    static_cast<unsigned long long>(bits_injected[key]));
        out.correct = false;
        out.failed += bits_injected[key];
        continue;
      }
      const OracleDiff diff = diff_against_oracle(run_bits, ref->second);
      const std::string design = key.substr(0, key.find(':'));
      verdict_mm[design].push_back(static_cast<double>(diff.verdict_mismatch));
      metadata_mm[design].push_back(
          static_cast<double>(diff.metadata_mismatch));
      out.failed += diff.total();
      mismatch += static_cast<double>(diff.total());
    }
    sweep_mismatch.push_back(mismatch);
    for (const auto& [d, ms] : sweep_design_ms) design_ms[d].push_back(ms);
    // Another sweep only when it fits, so every run measures whole sweeps.
    last_sweep_s = seconds_between(sweep_start, Clock::now());
  } while (seconds_between(start, Clock::now()) + last_sweep_s <=
           args.seconds);

  // ---- report -----------------------------------------------------------
  const Percentile p50 = percentile(latency_ms, 0.5);
  const Percentile p90 = percentile(latency_ms, 0.9);
  const u64 n = latency_ms.size();
  out.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"injections_per_s", static_cast<double>(injections) / busy_s, "1/s", n},
      {"requests_per_s", static_cast<double>(n) / busy_s, "1/s", n},
      {"request_p50_ms", p50.value, "ms", n, !p50.honest},
      {"request_p90_ms", p90.value, "ms", n, !p90.honest},
  };
  std::printf("oracle_mismatch_bits %.0f bits per sweep (n=%zu sweeps; "
              "verdict or first-error metadata differs from the scalar "
              "oracle; counted as failed operations)\n",
              median(sweep_mismatch), sweep_mismatch.size());
  std::printf("request latency: n=%llu campaigns (%zu per sweep: 3 "
              "exhaustive, the rest fir range slices)\n",
              static_cast<unsigned long long>(n), oneshot_pool().size());

  const double phase_total =
      phases.corrupt_s + phases.run_s + phases.repair_s + phases.persist_s;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double runs = static_cast<double>(phases.gang_runs);
  const double lanes = static_cast<double>(phases.gang_lanes);
  out.per_layer = {
      {"pnr.compile_ms", median(compile_ms), "ms", compile_ms.size()},
      {"sim.plan_compile_ms", median(plan_ms), "ms", plan_ms.size()},
      {"sim.gang_share", ratio(phases.gang_s, phase_total), "ratio", n},
      {"sim.early_exit_rate",
       ratio(static_cast<double>(phases.gang_early_exits), runs), "ratio", n},
      {"sim.fallback_rate",
       ratio(static_cast<double>(phases.gang_fallbacks), lanes), "ratio", n},
      {"sim.lanes_per_run", ratio(lanes, runs), "lanes", n},
      {"seu.corrupt_share", ratio(phases.corrupt_s, phase_total), "ratio", n},
      {"seu.run_share", ratio(phases.run_s, phase_total), "ratio", n},
      {"seu.repair_share", ratio(phases.repair_s, phase_total), "ratio", n},
      {"seu.persist_share", ratio(phases.persist_s, phase_total), "ratio", n},
      {"seu.pruned_ratio",
       ratio(static_cast<double>(phases.pruned),
             static_cast<double>(injections)),
       "ratio", n},
  };
  for (const char* d : kDesigns) {
    const std::string name = d;
    out.per_layer.push_back({"seu.campaign_ms." + name,
                             median(design_ms[name]), "ms",
                             design_ms[name].size()});
    out.per_layer.push_back({"seu.verdict_mismatch." + name,
                             median(verdict_mm[name]), "bits",
                             verdict_mm[name].size()});
    out.per_layer.push_back({"seu.metadata_mismatch." + name,
                             median(metadata_mm[name]), "bits",
                             metadata_mm[name].size()});
  }
  return out;
}

}  // namespace perfbench
