#include "coord/partition.h"

#include <algorithm>

#include "common/log.h"
#include "svc/requests.h"

namespace vscrub {

u64 campaign_universe_size(const FlatJson& params) {
  // The served parser, so sample/seed/exhaustive mean here exactly what they
  // mean to the workers; the clamp is build_universe's (sample 0 or >= the
  // device means every bit). The geometry alone knows the bit count, so no
  // ConfigSpace is built.
  const u64 total = device_by_name(request_device(params)).total_config_bits();
  const u64 sample =
      campaign_options_from(params, served_gang_width_default()).sample_bits;
  return sample == 0 || sample >= total ? total : sample;
}

std::vector<BitRange> partition_universe(u64 universe, u64 shards) {
  VSCRUB_CHECK(shards > 0, "partition: shard count must be positive");
  std::vector<BitRange> ranges;
  const u64 n = std::min(shards, universe);
  if (n == 0) return ranges;
  ranges.reserve(n);
  const u64 base = universe / n;
  const u64 extra = universe % n;
  u64 begin = 0;
  for (u64 i = 0; i < n; ++i) {
    const u64 size = base + (i < extra ? 1 : 0);
    ranges.push_back(BitRange{begin, begin + size});
    begin += size;
  }
  return ranges;
}

}  // namespace vscrub
