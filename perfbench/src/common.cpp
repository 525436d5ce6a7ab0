#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "bench.h"
#include "report/json.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Percentile percentile(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p of the samples at or
  // below it; everything after it lies beyond.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  out.value = values[index];
  out.beyond = values.size() - 1 - index;
  out.honest = out.beyond >= 10;
  return out;
}

PeakRssWindows::PeakRssWindows(std::chrono::milliseconds window)
    : window_(window) {
  sample();  // resets the mark, so the first window starts now
  peaks_.clear();
  thread_ = std::thread([this] {
    std::unique_lock lock(mutex_);
    while (!wake_.wait_for(lock, window_, [this] { return stop_; })) {
      sample();
    }
  });
}

std::vector<double> PeakRssWindows::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_) return peaks_;
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  sample();
  return peaks_;
}

void PeakRssWindows::sample() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      peaks_.push_back(std::strtod(line.c_str() + 6, nullptr) / 1024.0);
      break;
    }
  }
  // "5" resets the peak resident set to the current one (proc(5)).
  std::ofstream reset("/proc/self/clear_refs");
  reset << "5";
  reset.flush();
  if (!reset) resettable_ = false;
}

u64 SeedRng::next() {
  u64 z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string PoolRequest::key() const {
  std::string k = design;
  k += sample == 0 ? ":exhaustive"
                   : ":s" + std::to_string(sample) + ":" + std::to_string(seed);
  if (range_end > range_begin) {
    k += ":r" + std::to_string(range_begin) + "-" + std::to_string(range_end);
  }
  return k;
}

// ---- the pool ------------------------------------------------------------
// Sizes are part of the benchmark's definition: changing any of them
// changes what is measured, and the references must be regenerated.

namespace {

constexpr u64 kFirSample = 1200;    // fir's fixed sample (seed 99) ...
constexpr u64 kFirSlices = 120;     // ... run as this many range requests
constexpr u64 kServedSample = 2000;
// A served campaign is one 2,000-bit slice of a single seeded permutation
// of its design's bit universe: slice k is the request `sample (k+1)*2000,
// seed 1, range [k*2000, (k+1)*2000)`. The sample is drawn by a partial
// Fisher-Yates, so a longer sample extends a shorter one with the same seed
// and the slices are disjoint. Verdict-store keys are per bit, so a fresh
// slice finds none of its bits in the store, however many slices ran
// before it. 85 slices fit in the campaign device's 172,032 bits; slices 0
// and 1 are pre-seeded, the other 83 are fresh.
constexpr u64 kServedSeed = 1;
constexpr u64 kServedSlices = 85;
constexpr u64 kServedWarmSlices = 2;
constexpr u64 kFabricSample = 2000;
constexpr u64 kFabricRequests = 600;
constexpr u64 kFabricLargeSample = 6000;
constexpr u64 kFabricLargeRequests = 150;
const char* const kServedDesigns[] = {"lfsr", "lfsrmult", "mult", "counter"};

std::vector<PoolRequest> served_slices(u64 first, u64 last) {
  std::vector<PoolRequest> pool;
  for (const char* d : kServedDesigns) {
    for (u64 k = first; k < last; ++k) {
      pool.push_back({d, (k + 1) * kServedSample, kServedSeed,
                      k * kServedSample, (k + 1) * kServedSample});
    }
  }
  return pool;
}

}  // namespace

std::vector<PoolRequest> oneshot_pool() {
  std::vector<PoolRequest> pool;
  for (const char* d : {"lfsr", "lfsrmult", "mult"}) pool.push_back({d});
  const u64 slice = kFirSample / kFirSlices;
  for (u64 i = 0; i < kFirSlices; ++i) {
    pool.push_back({"fir", kFirSample, 99, i * slice, (i + 1) * slice});
  }
  return pool;
}

std::vector<PoolRequest> oracle_campaigns() {
  return {{"lfsr"}, {"lfsrmult"}, {"mult"}, {"fir", kFirSample, 99}};
}

std::vector<PoolRequest> served_warm_pool() {
  return served_slices(0, kServedWarmSlices);
}

std::vector<PoolRequest> served_cold_pool() {
  return served_slices(kServedWarmSlices, kServedSlices);
}

std::vector<PoolRequest> fabric_pool() {
  std::vector<PoolRequest> pool;
  for (u64 i = 0; i < kFabricRequests; ++i) {
    pool.push_back({"lfsrmult", kFabricSample, 5001 + i});
  }
  return pool;
}

std::vector<PoolRequest> fabric_large_pool() {
  std::vector<PoolRequest> pool;
  for (u64 i = 0; i < kFabricLargeRequests; ++i) {
    pool.push_back({"lfsrmult", kFabricLargeSample, 7001 + i});
  }
  return pool;
}

std::string request_payload(const PoolRequest& r, bool fine_progress) {
  vscrub::JsonReport req("campaign_request");
  req.set_string("design", r.design);
  req.set_string("device", "campaign");
  if (r.sample == 0) {
    req.set_bool("exhaustive", true);
  } else {
    req.set_u64("sample", r.sample);
    req.set_u64("seed", r.seed);
  }
  if (r.range_end > r.range_begin) {
    req.set_u64("range_begin", r.range_begin);
    req.set_u64("range_end", r.range_end);
  }
  // Progress frames (as `submit --progress` asks for), one per chunk, so
  // "accepted -> first progress" is the queue wait plus one chunk.
  if (fine_progress) {
    req.set_bool("progress", true);
    req.set_u64("progress_every_chunks", 1);
  }
  return req.to_json();
}

}  // namespace perfbench
