#include "svc/requests.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "designs/test_designs.h"
#include "pnr/pnr.h"
#include "radiation/environment.h"
#include "seu/report.h"
#include "sim/simd.h"
#include "store/verdict_store.h"
#include "svc/config.h"
#include "system/fleet.h"

namespace vscrub {

namespace {

using DesignEntry = std::pair<std::string, Netlist (*)()>;

const std::vector<DesignEntry>& design_catalog() {
  static const std::vector<DesignEntry> catalog = {
      {"lfsr", [] { return designs::lfsr_cluster(2); }},
      {"mult", [] { return designs::mult_tree(10); }},
      {"vmult", [] { return designs::vmult(8); }},
      {"counter", [] { return designs::counter_adder(16); }},
      {"multadd", [] { return designs::multiply_add(8); }},
      {"lfsrmult", [] { return designs::lfsr_multiplier(10); }},
      {"fir", [] { return designs::fir_preproc(4); }},
      {"selfcheck", [] { return designs::selfcheck_dsp(8, 5); }},
      {"bram", [] { return designs::bram_selftest(2); }},
  };
  return catalog;
}

const DesignEntry* find_design(const std::string& name) {
  for (const DesignEntry& d : design_catalog()) {
    if (d.first == name) return &d;
  }
  throw ParamError("unknown design '" + name + "' (see `vscrubctl designs`)");
}

/// Strict reads of table rows: a present key must hold a well-formed value
/// of its row's type, or the request fails with a ParamError naming it.
u64 param_u64(const FlatJson& params, const char* key, u64 dflt,
              u64 max = ~u64{0}) {
  return params.has(key) ? parse_u64_param(key, params.get_string(key), max)
                         : dflt;
}

bool parse_bool_param(const std::string& name, const std::string& text) {
  if (text == "true" || text == "1") return true;
  if (text != "false" && text != "0") {
    throw ParamError(name + " is not a boolean: '" + text + "'");
  }
  return false;
}

bool param_set(const FlatJson& params, const char* key) {
  return params.has(key) && parse_bool_param(key, params.get_string(key));
}

}  // namespace

Netlist design_by_name(const std::string& name) {
  return find_design(name)->second();
}

std::vector<std::string> design_names() {
  std::vector<std::string> names;
  for (const DesignEntry& d : design_catalog()) names.push_back(d.first);
  return names;
}

DeviceGeometry device_by_name(const std::string& name) {
  if (name == "campaign") return device_tiny(12, 16);
  if (name == "xcv50") return device_xcv50ish();
  if (name == "xcv100") return device_xcv100ish();
  if (name == "xcv300") return device_xcv300ish();
  if (name == "xcv1000") return device_xcv1000ish();
  if (name.rfind("tiny:", 0) == 0) {
    // Capped at the largest named device: a hostile tiny:70000x70000 must
    // not wrap through u16 into a device the fleet would then build.
    const DeviceGeometry largest = device_xcv1000ish();
    const std::size_t x = std::min(name.find('x', 5), name.size());
    try {
      return device_tiny(
          static_cast<u16>(
              parse_u64_param(name, name.substr(5, x - 5), largest.rows)),
          static_cast<u16>(parse_u64_param(
              name, name.substr(std::min(x + 1, name.size())), largest.cols)),
          2);
    } catch (const ParamError&) {
      throw ParamError("device '" + name + "' is not tiny:RxC with R <= " +
                       std::to_string(largest.rows) + ", C <= " +
                       std::to_string(largest.cols));
    }
  }
  throw ParamError("unknown device '" + name + "' (see `vscrubctl devices`)");
}

const std::vector<RequestParam>& request_params() {
  using enum ParamType;
  constexpr u8 kInject = kCampaignParam;
  constexpr u8 kOrbit = kMissionParam | kFleetParam;
  constexpr u8 kAll = kInject | kOrbit;
  static const std::vector<RequestParam> rows = {
      // First: core/cli also gives the non-request commands this row.
      {"device", kString, "D", "device geometry (see `vscrubctl devices`)",
       kAll},
      {"sample", kU64, "N", "sample N random bits (default 20000)", kInject},
      {"exhaustive", kFlag, "", "inject every configuration bit", kInject},
      {"seed", kU64, "S",
       "random seed (default: campaign sample 99, mission 4242, fleet base "
       "1 with mission i at seed+i)",
       kAll},
      {"persistence", kFlag, "", "classify persistent vs transient failures",
       kInject},
      {"chunk", kU64, "N", "bits per scheduler chunk (0 = auto)", kInject},
      {"no_prune", kFlag, "", "disable influence-set pruning", kInject},
      {"gang_width", kU64, "N",
       "bit-sliced gang lanes: 1..64, 256, 512 (default 64 one-shot; served "
       "and fleet work default to the widest native tier: 512 on AVX-512, "
       "256 on AVX2, else 64)",
       kInject},
      {"no_gang", kFlag, "", "scalar injections only (gang width 1)", kInject},
      {"gang_isa", kString, "T",
       "gang SIMD tier: auto|scalar|avx2|avx512 (default auto)", kInject},
      {"no_gang_plan", kFlag, "",
       "interpret gang settles (skip the compiled eval plan)", kInject},
      {"hours", kDouble, "H", "mission duration (default 24)", kOrbit},
      {"missions", kU64, "N", "missions in the sweep (default 8)", kFleetParam},
      {"flare", kFlag, "", "solar-flare environment", kOrbit},
      {"scrub_faults", kFlag, "", "enable scrub-datapath fault models", kOrbit},
      {"scrub_policy", kString, "NAME",
       "scrub policy (see `vscrubctl policies`); a fleet also takes a comma "
       "list or 'all' to race them",
       kOrbit},
  };
  return rows;
}

std::string param_flag(const RequestParam& p) {
  std::string flag = std::string("--") + p.key;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

void set_param(JsonReport& out, const RequestParam& p,
               const std::string& text, const std::string& name) {
  switch (p.type) {
    case ParamType::kFlag:
      out.set_bool(p.key, parse_bool_param(name, text));
      break;
    case ParamType::kU64:
      out.set_u64(p.key, parse_u64_param(name, text));
      break;
    case ParamType::kDouble:
      out.set(p.key, parse_double_param(name, text));
      break;
    case ParamType::kString:
      out.set_string(p.key, text);
  }
}

std::string request_design(const FlatJson& params) {
  return find_design(params.get_string("design", "lfsrmult"))->first;
}

std::string request_device(const FlatJson& params) {
  return params.get_string("device", "campaign");
}

CampaignOptions campaign_options_from(const FlatJson& params,
                                      u32 default_gang_width) {
  // Every present row is read, even one another row overrides (gang_width
  // under no_gang): a value that passes here is one the shards can re-send.
  const u64 requested_width =
      param_u64(params, "gang_width", default_gang_width, ~u32{0});
  const u32 gang_width =
      param_set(params, "no_gang") ? 1u : static_cast<u32>(requested_width);
  // Widths this binary lacks and unknown tier names fail here, before any
  // work starts. Whether the CPU runs the tier is run_campaign's check, on
  // the host that runs it: a coordinator may lack a tier its workers have.
  if (gang_width >= 2) validate_gang_width(gang_width);
  const std::string gang_isa = params.get_string("gang_isa", "auto");
  (void)parse_simd_isa(gang_isa);
  CampaignOptions options =
      CampaignOptions{}
          .with_injection(
              InjectionOptions{}
                  .with_persistence(param_set(params, "persistence"))
                  .with_pruning(!param_set(params, "no_prune"))
                  .with_gang_width(gang_width)
                  .with_gang_isa(gang_isa)
                  .with_gang_plan(!param_set(params, "no_gang_plan")))
          .with_chunk_size(param_u64(params, "chunk", 0));
  const u64 sample = param_u64(params, "sample", 20000);
  const u64 seed = param_u64(params, "seed", 99);
  if (param_set(params, "exhaustive")) {
    options.with_exhaustive();
  } else {
    options.with_sample(sample, seed);
  }
  return options;
}

namespace {

/// The environment and fault models missions and fleets share; the upset
/// rate is scaled from the paper's XQVR1000 to the request's device.
PayloadOptions payload_options_from(const FlatJson& params) {
  const u64 total_bits =
      device_by_name(request_device(params)).total_config_bits();
  PayloadOptions options;
  options.environment = param_set(params, "flare")
                            ? OrbitEnvironment::leo_solar_flare()
                            : OrbitEnvironment::leo_quiet();
  options.environment.upset_rate_per_bit_s *=
      static_cast<double>(kXcv1000PaperBits) / static_cast<double>(total_bits);
  if (param_set(params, "scrub_faults")) {
    // Paper-plausible fault rates for the scrub datapath and golden store.
    options.scrub.link_faults = ScrubLinkFaults::leo_profile();
    options.flash_faults = FlashFaultModel::leo_profile();
  }
  return options;
}

}  // namespace

PayloadOptions mission_options_from(const FlatJson& params) {
  PayloadOptions options = payload_options_from(params);
  const std::string policy = params.get_string("scrub_policy", "");
  if (!policy.empty()) options.scrub.policy = make_scrub_policy(policy);
  options.seed = param_u64(params, "seed", 4242);
  return options;
}

SimTime mission_duration(const FlatJson& params) {
  return SimTime::hours(
      parse_double_param("hours", params.get_string("hours", "24")));
}

PolicyRaceOptions fleet_options_from(const FlatJson& params) {
  PolicyRaceOptions ro;
  ro.fleet.missions =
      static_cast<u32>(param_u64(params, "missions", 8, ~u32{0}));
  ro.fleet.base_seed = param_u64(params, "seed", 1);
  ro.fleet.duration = mission_duration(params);
  ro.fleet.payload = payload_options_from(params);
  ro.policies = parse_scrub_policy_list(params.get_string("scrub_policy", ""));
  if (ro.policies.size() == 1) {
    ro.fleet.payload.scrub.policy = make_scrub_policy(ro.policies[0]);
  }
  return ro;
}

u32 served_gang_width_default() { return preferred_gang_width(); }

namespace {

/// Compiled designs are pure functions of (design, device), and campaigns
/// only ever read them (fault injection works on copies of the golden
/// bitstream), so the daemon memoizes place-and-route process-wide: a warm
/// served request pays a map lookup, not a compile. The cache is capped —
/// parameterized `tiny:RxC` device names are unbounded — and overflow simply
/// compiles without inserting.
std::shared_ptr<const PlacedDesign> compile_request_design(
    const std::string& design, const std::string& device) {
  static std::mutex cache_mutex;
  static std::map<std::pair<std::string, std::string>,
                  std::shared_ptr<const PlacedDesign>>
      cache;
  constexpr std::size_t kMaxCachedDesigns = 16;
  const std::pair<std::string, std::string> key{design, device};
  {
    std::lock_guard lock(cache_mutex);
    if (const auto it = cache.find(key); it != cache.end()) return it->second;
  }
  auto compiled = std::make_shared<const PlacedDesign>(
      compile(std::make_shared<const Netlist>(design_by_name(design)),
              std::make_shared<const ConfigSpace>(device_by_name(device)),
              {}));
  std::lock_guard lock(cache_mutex);
  if (cache.size() < kMaxCachedDesigns) {
    const auto [it, inserted] = cache.emplace(key, compiled);
    return it->second;  // a racing compile may have beaten us; share theirs
  }
  return compiled;
}

/// The served campaign: the request's parameters through the one parser,
/// then the serving context — shared pool and store, the fabric's range,
/// remote tier and checkpoint shipping, progress, cancel and preemption.
CampaignOptions served_campaign_options(const FlatJson& params,
                                        const RequestContext& ctx) {
  CampaignOptions options =
      campaign_options_from(params, served_gang_width_default());
  if (ctx.store != nullptr) options.with_shared_store(ctx.store);
  if (ctx.pool != nullptr) options.with_shared_pool(ctx.pool);
  if (ctx.remote_store != nullptr) options.with_remote_store(ctx.remote_store);
  // Fabric range restriction: [range_begin, range_end) over the campaign's
  // deterministic universe order. range_end == 0 means the whole universe.
  const u64 range_end = param_u64(params, "range_end", 0);
  if (range_end > 0) {
    options.with_range(param_u64(params, "range_begin", 0), range_end);
  }
  if (!ctx.checkpoint_path.empty()) {
    options.with_checkpoint(ctx.checkpoint_path,
                            ctx.checkpoint_every_chunks > 0
                                ? ctx.checkpoint_every_chunks
                                : options.checkpoint_every_chunks);
    options.on_checkpoint = ctx.on_checkpoint;
  }
  // Cancel beats preemption: both stop the campaign at the chunk boundary
  // (writing the checkpoint), but a cancelled job must deliver its
  // interrupted report, so the service checks the cancel flag before
  // deciding a stop was a preemption.
  const std::atomic<bool>* cancelled = ctx.cancelled;
  options.with_progress(
      [cancelled, forward = ctx.on_progress,
       preempt = ctx.preempt_poll](const CampaignProgress& p) {
        if (forward) forward(p);
        if (cancelled != nullptr && cancelled->load(std::memory_order_relaxed))
          return false;
        return !(preempt && preempt(p.chunks_done));
      },
      param_u64(params, "progress_every_chunks", 8));
  return options;
}

JsonReport run_campaign_request(const FlatJson& params,
                                const RequestContext& ctx) {
  const CampaignOptions options = served_campaign_options(params, ctx);
  const std::shared_ptr<const PlacedDesign> design = compile_request_design(
      request_design(params), request_device(params));
  return campaign_report_json(*design, run_campaign(*design, options));
}

JsonReport run_recampaign_request(const FlatJson& params,
                                  const RequestContext& ctx) {
  VSCRUB_CHECK(ctx.store != nullptr,
               "recampaign requests need a server started with --cache-dir");
  const CampaignOptions options = served_campaign_options(params, ctx);
  const std::shared_ptr<const PlacedDesign> design = compile_request_design(
      request_design(params), request_device(params));
  return recampaign_report_json(*design, run_recampaign(*design, options));
}

}  // namespace

MissionTarget mission_target(const FlatJson& params,
                             const RequestContext& ctx) {
  MissionTarget target{compile_request_design("lfsrmult",
                                              request_device(params)),
                       {}};
  // On the shared pool and store, so concurrent mission requests for the
  // same device reuse each other's verdicts instead of re-simulating.
  CampaignOptions copts;
  copts.sample_bits = 10000;
  if (ctx.store != nullptr) copts.with_shared_store(ctx.store);
  if (ctx.pool != nullptr) copts.with_shared_pool(ctx.pool);
  const std::atomic<bool>* cancelled = ctx.cancelled;
  copts.with_progress([cancelled](const CampaignProgress&) {
    return cancelled == nullptr || !cancelled->load(std::memory_order_relaxed);
  });
  target.sensitive =
      run_campaign(*target.design, copts).sensitive_set(*target.design);
  return target;
}

namespace {

JsonReport run_mission_request(const FlatJson& params,
                               const RequestContext& ctx) {
  PayloadOptions options = mission_options_from(params);
  const MissionTarget target = mission_target(params, ctx);
  MetricsRegistry metrics;
  options.metrics = &metrics;
  Payload(*target.design, options, target.sensitive)
      .run_mission(mission_duration(params));
  return mission_report_json(metrics);
}

JsonReport run_fleet_request(const FlatJson& params,
                             const RequestContext& ctx) {
  PolicyRaceOptions ro = fleet_options_from(params);
  ro.fleet.threads =
      static_cast<u32>(param_u64(params, "threads", 0, ~u32{0}));
  const MissionTarget target = mission_target(params, ctx);
  if (ro.policies.size() > 1) {
    return policy_race_report_json(
        run_policy_race(*target.design, target.sensitive, ro));
  }
  return fleet_report_json(
      run_fleet(*target.design, target.sensitive, ro.fleet));
}

}  // namespace

JsonReport execute_request(FrameKind kind, const FlatJson& params,
                           const RequestContext& ctx) {
  switch (kind) {
    case FrameKind::kCampaign: return run_campaign_request(params, ctx);
    case FrameKind::kRecampaign: return run_recampaign_request(params, ctx);
    case FrameKind::kMission: return run_mission_request(params, ctx);
    case FrameKind::kFleet: return run_fleet_request(params, ctx);
    default:
      throw Error(std::string("not a work request: ") + frame_kind_name(kind));
  }
}

}  // namespace vscrub
