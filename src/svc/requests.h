// Request execution for the vscrubd serving layer: maps a decoded VSRP1
// work request (campaign / recampaign / mission / fleet) onto the same
// library calls the vscrubctl one-shot commands make, against the service's
// shared thread pool and process-wide verdict store. Keeping this a pure
// params -> report function (no sockets, no queues) is what lets the tests
// prove a served request is bit-identical to the equivalent CLI run.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "fabric/geometry.h"
#include "netlist/netlist.h"
#include "report/json.h"
#include "seu/campaign.h"
#include "svc/protocol.h"

namespace vscrub {

class VerdictStore;
struct PayloadOptions;
struct PolicyRaceOptions;

/// The built-in design generators by CLI name (lfsr, mult, vmult, counter,
/// multadd, lfsrmult, fir, selfcheck, bram). Throws ParamError on an unknown
/// name.
Netlist design_by_name(const std::string& name);

/// Every name design_by_name accepts, in catalog order.
std::vector<std::string> design_names();

/// The device geometries by CLI name (campaign, xcv50, xcv100, xcv300,
/// xcv1000, tiny:RxC). `tiny:RxC` takes decimal R and C no larger than the
/// largest named device (xcv1000's 64x96). Throws ParamError on an unknown or
/// malformed name.
DeviceGeometry device_by_name(const std::string& name);

// ---- the work-request parameter table -----------------------------------
//
// One row per parameter of a work request (campaign, recampaign, mission,
// fleet), read by every entry point: vscrubctl derives its flags and help
// from the rows (flag = "--" + key, '_' as '-') and turns the flags it was
// given into request params; vscrubd and the one-shot commands run the same
// parsers below on those params; the coordinator runs them before it
// partitions a fleet campaign, and forwards every campaign row to its shards.

enum class ParamType : u8 { kFlag, kU64, kDouble, kString };

/// Which work requests a row applies to (RequestParam::applies_to bits).
inline constexpr u8 kCampaignParam = 1;  ///< campaign, recampaign, fleet-submit
inline constexpr u8 kMissionParam = 2;
inline constexpr u8 kFleetParam = 4;

struct RequestParam {
  const char* key;         ///< request key, "gang_width"
  ParamType type;
  const char* value_name;  ///< "N", "NAME", ... ("" for kFlag)
  const char* help;
  u8 applies_to;           ///< k*Param bits
};

/// Every work-request parameter, in display order.
const std::vector<RequestParam>& request_params();

/// The row's CLI flag: "--" + key with '_' replaced by '-'.
std::string param_flag(const RequestParam& p);

/// Parses `text` as row `p`'s type and sets it on `out` under the row's key.
/// Throws ParamError naming `name` on a malformed value.
void set_param(JsonReport& out, const RequestParam& p,
               const std::string& text, const std::string& name);

/// The design and device a request names, defaults applied (lfsrmult,
/// campaign). request_design throws ParamError on an unknown design.
std::string request_design(const FlatJson& params);
std::string request_device(const FlatJson& params);

/// The one request -> campaign parser. Reads every campaign row present
/// strictly (a malformed value is a ParamError naming its key) and checks
/// the gang width against this binary (GangWidthError) and the ISA name
/// (SimdIsaError); run_campaign checks that the CPU runs the tier. A request
/// that sets neither gang_width nor no_gang gets `default_gang_width` lanes:
/// 64 one-shot, served_gang_width_default() served. Threads, pools, stores,
/// checkpoints, progress and ranges are the caller's to wire.
CampaignOptions campaign_options_from(const FlatJson& params,
                                      u32 default_gang_width);

/// Mission rows -> payload options: environment (flare, upset rate scaled to
/// the request's device), scrub faults, scrub policy, seed (default 4242).
PayloadOptions mission_options_from(const FlatJson& params);

/// The `hours` row as a mission duration (default 24 h).
SimTime mission_duration(const FlatJson& params);

/// Fleet rows -> the sweep (missions default 8, base seed default 1) plus
/// the scrub_policy list: one name is already applied to fleet.payload,
/// several (a comma list or "all") are to be raced.
PolicyRaceOptions fleet_options_from(const FlatJson& params);

/// Everything a request executes against. All pointers are borrowed and may
/// be null: a null store disables verdict caching (and fails recampaigns), a
/// null pool gives the campaign its own workers, a null cancelled flag makes
/// the request uncancellable.
struct RequestContext {
  VerdictStore* store = nullptr;
  ThreadPool* pool = nullptr;
  const std::atomic<bool>* cancelled = nullptr;
  /// Chunk-complete telemetry hook (campaign/recampaign only); the service
  /// forwards these as kProgress frames. May be empty.
  std::function<void(const CampaignProgress&)> on_progress;
  /// Preemption hook, polled with chunks_done at every chunk boundary the
  /// progress callback sees. Returning true stops the campaign exactly like
  /// a cancel — at the boundary, writing its checkpoint — but the service
  /// requeues the job instead of delivering the interrupted report, and the
  /// next dispatch resumes from the checkpoint bit-identically. May be empty.
  std::function<bool(u64)> preempt_poll;
  /// When set, campaigns checkpoint here (VSCK) so a cancelled, preempted or
  /// hard-stopped request leaves a resumable trail. Empty = no checkpoints.
  std::string checkpoint_path;
  /// Checkpoint cadence in chunks (0 = the campaign default).
  u64 checkpoint_every_chunks = 0;
  /// Fires after every checkpoint save (periodic and final); the fabric
  /// worker ships the fresh VSCK bytes to its coordinator from here. May be
  /// empty.
  std::function<void()> on_checkpoint;
  /// Second-tier verdict source behind the local store (borrowed, may be
  /// null): the fabric wires the coordinator's store in here so workers
  /// reuse each other's verdicts.
  RemoteVerdictClient* remote_store = nullptr;
};

/// The gang width served work defaults to when a request does not pick one:
/// the widest lane width the auto-resolved SIMD tier runs natively (512 on
/// AVX-512, 256 on AVX2, 64 on scalar). Width never changes verdicts or
/// digests — the differential suite proves that — so the service defaults to
/// the fastest engine while `vscrubctl campaign` keeps its historical 64.
u32 served_gang_width_default();

/// What mission and fleet requests fly: lfsrmult on the request's device,
/// judged against the sensitive set of a 10,000-bit campaign run on `ctx`'s
/// pool and store (cancellable through ctx.cancelled).
struct MissionTarget {
  std::shared_ptr<const PlacedDesign> design;
  std::unordered_set<u64> sensitive;
};
MissionTarget mission_target(const FlatJson& params, const RequestContext& ctx);

/// Executes one work request and returns its report (the same JSON the
/// corresponding `vscrubctl <op> --json` writes). `kind` must be one of
/// kCampaign/kRecampaign/kMission/kFleet. Throws Error on bad parameters or
/// an unexecutable request; the service turns that into a typed kError reply.
/// Cancellation is polled at chunk boundaries for campaign kinds; mission and
/// fleet requests only honor a cancel that lands before they start.
JsonReport execute_request(FrameKind kind, const FlatJson& params,
                           const RequestContext& ctx);

}  // namespace vscrub
