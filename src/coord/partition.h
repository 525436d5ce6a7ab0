// Bit-space partitioning for the distributed campaign fabric.
//
// A sharded campaign splits the one-shot run's injection universe — the
// deterministic bit order build_universe produces from (device, sample,
// seed) — into contiguous [begin, end) position ranges. Every worker builds
// the identical universe locally and slices its assigned range out of it, so
// the shards partition the one-shot run exactly: disjoint, covering, and in
// the same per-bit order. That is what makes the merged campaign provably
// bit-identical — counters sum and the order-independent sensitive-set
// digest XORs across ranges to the one-shot digest.
#pragma once

#include <vector>

#include "common/types.h"
#include "svc/protocol.h"

namespace vscrub {

/// One contiguous shard of the injection universe, [begin, end) positions
/// in the campaign's deterministic universe order.
struct BitRange {
  u64 begin = 0;
  u64 end = 0;
  u64 size() const { return end - begin; }
};

/// The number of universe positions the campaign described by `params`
/// will inject: the device's total configuration bits for an exhaustive run,
/// else the sample size clamped to the device. Reads the request through the
/// served parser (campaign_options_from), so it also rejects every malformed
/// campaign row, bad gang engine and unknown device with a typed error.
u64 campaign_universe_size(const FlatJson& params);

/// Splits [0, universe) into at most `shards` contiguous near-equal ranges
/// (the first `universe % shards` ranges are one position larger). Fewer
/// ranges come back when the universe is smaller than the shard count;
/// an empty universe yields no ranges. Throws Error when shards == 0.
std::vector<BitRange> partition_universe(u64 universe, u64 shards);

}  // namespace vscrub
