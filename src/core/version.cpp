#include "core/vscrub.h"

namespace vscrub {

// 5.0.0: ServiceClient removed (kWorkbenchApiVersion 5) — ServiceSession is
// the one client API; one work-request parameter table for every entry point.
// 4.0.0: session-oriented service API (kWorkbenchApiVersion 4) — epoll
// event-loop transport, weighted fair-share scheduler with campaign
// preemption, ServiceSession/JobHandle, ServiceConfig consolidation.
// 3.0.0: ScrubPolicy strategy redesign (kWorkbenchApiVersion 3) — pluggable
// scrub scheduling, RepairMode enum replaces the repair bool pair, fleet
// policy race + BENCH_policies.json.
// 2.0.0: the deprecated static Workbench::sensitive_set forwarder is gone
// (kWorkbenchApiVersion 2); verdict store + recampaign + report/json added.
const char* version() { return "5.0.0"; }

}  // namespace vscrub
