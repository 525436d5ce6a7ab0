// Shared vocabulary of the vscrub benchmark tool: run arguments, metric
// records, the committed request pool, order statistics and small helpers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"

namespace perfbench {

using vscrub::u32;
using vscrub::u64;

struct RunArgs {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string refs_dir = "perfbench/refs";
  std::string work_dir = ".bench_build/run";  ///< sockets, stores, traces
};

/// One reported number. `samples` is how many observations it summarizes
/// (requests for a latency, repetitions for set-up time, 1 for a count).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  u64 samples = 1;
  /// A percentile with fewer than ten samples beyond it: the report prints
  /// REFUSED and the JSON line null instead of the value.
  bool refused = false;
};

struct RunResult {
  /// False when a hard check failed: a request errored, a
  /// served/fleet result differs from its reference, or a reference is
  /// missing. Oracle divergence of the one-shot engine is counted in
  /// `failed` (and oracle_mismatch_bits) but is a measurement, not a
  /// hard check; see README.md.
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

// ---- time and order statistics -------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values);

/// A percentile with its sample accounting. `honest` is false when fewer
/// than ten samples lie beyond it, in which case it must not be reported.
struct Percentile {
  double value = 0.0;
  u64 samples = 0;
  u64 beyond = 0;
  bool honest = false;
};
Percentile percentile(std::vector<double> values, double p);

/// Samples this process's peak resident set in fixed windows. Each window
/// reads the kernel's high-water mark (VmHWM) and then resets it, so every
/// sample is the peak of its own window. The median of the windows is the
/// reported peak memory: the peak over a whole run is the largest of many
/// short per-request spikes and moves with how many requests the run did.
class PeakRssWindows {
 public:
  explicit PeakRssWindows(std::chrono::milliseconds window);
  ~PeakRssWindows() { stop(); }
  /// Ends sampling; returns each window's peak in MiB, the last partial
  /// window included.
  std::vector<double> stop();
  /// False when the high-water mark could not be reset, in which case the
  /// samples are cumulative peaks.
  bool resettable() const { return resettable_; }

 private:
  void sample();
  std::chrono::milliseconds window_;
  std::vector<double> peaks_;
  bool resettable_ = true;
  bool stop_ = false;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::thread thread_;
};

/// Deterministic 64-bit generator (splitmix64) for seeded request orders;
/// identical on every platform, unlike the standard distributions.
class SeedRng {
 public:
  explicit SeedRng(u64 seed) : state_(seed) {}
  u64 next();
  /// Uniform in [0, n).
  u64 below(u64 n) { return next() % n; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  u64 state_;
};

// ---- the committed request pool ------------------------------------------

/// One campaign request of a pool: a design on the `campaign` device,
/// sampled (sample > 0, with seed) or exhaustive (sample == 0). A range
/// [range_begin, range_end) restricts it to a slice of its bit universe.
struct PoolRequest {
  std::string design;
  u64 sample = 0;
  u64 seed = 0;
  u64 range_begin = 0;
  u64 range_end = 0;

  /// Stable key used in the reference files.
  std::string key() const;
};

/// The one-shot sweep's requests: lfsr, lfsrmult and mult exhaustive, then
/// the fixed fir sample as consecutive range slices.
std::vector<PoolRequest> oneshot_pool();
/// The designs whose per-bit oracle references the sweep checks against,
/// as whole campaigns (fir: the full fixed sample).
std::vector<PoolRequest> oracle_campaigns();
/// Served mix: the campaigns pre-seeded into the store, and the fresh ones.
/// All are disjoint 2,000-bit slices of one sample per design.
std::vector<PoolRequest> served_warm_pool();
std::vector<PoolRequest> served_cold_pool();
/// Fleet requests: lfsrmult, one fresh sample seed each, at 2,000 bits
/// and, for one request in five, at 6,000 bits.
std::vector<PoolRequest> fabric_pool();
std::vector<PoolRequest> fabric_large_pool();

/// Served and fleet request parameters as the VSRP1 JSON payload
/// `vscrubctl submit campaign` / `fleet-submit` would send.
std::string request_payload(const PoolRequest& r, bool fine_progress);

// ---- entry points --------------------------------------------------------

RunResult run_oneshot(const RunArgs& args);
RunResult run_served(const RunArgs& args);
RunResult run_fabric(const RunArgs& args);
/// Regenerates every committed reference under `refs_dir`.
void make_refs(const std::string& refs_dir);

}  // namespace perfbench
