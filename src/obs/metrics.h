// Observability: the metrics registry threaded through the datapath.
//
// Every component of the stack (HostStack, Syrupd dispatch, the policy VM,
// Syrup Maps, the ghOSt agent) accounts its work in cells owned by a
// MetricsRegistry, keyed by {app, hook, metric}. The design goals, in
// order:
//
//   1. Hot-path cost must be a plain `uint64_t` bump through a pointer the
//      component resolved at bind/deploy time — no string hashing, no map
//      lookup, no lock on the packet path. Cells are handed out as
//      shared_ptr so an in-flight packet can never outlive its counter.
//   2. Components must work standalone (tests build a HostStack or a
//      GhostScheduler with no daemon): constructors allocate detached
//      cells, and a later BindMetrics(registry) re-homes the accounting —
//      accumulated values carry over, so late binding loses nothing.
//   3. One coherent read side: TakeSnapshot() produces an immutable
//      app -> hook -> metric tree with a stable JSON rendering
//      (docs/OBSERVABILITY.md documents the schema).
//
// Cells shared across real threads (Syrup Maps are contractually
// thread-safe) bump with std::atomic_ref on the same plain field, so the
// single-threaded simulation never pays for atomicity it doesn't need.
#ifndef SYRUP_SRC_OBS_METRICS_H_
#define SYRUP_SRC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace syrup::obs {

// Monotonically increasing event count.
struct Counter {
  uint64_t value = 0;

  void Inc(uint64_t delta = 1) { value += delta; }

  // For cells shared across OS threads (map ops under the Table 3
  // contended bench). Relaxed: counters need atomicity, not ordering.
  void IncAtomic(uint64_t delta = 1) {
    std::atomic_ref<uint64_t>(value).fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  uint64_t Load() const {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(value))
        .load(std::memory_order_relaxed);
  }
};

// Point-in-time level (queue depth, configured capacity, a recorded ns
// measurement). Signed so instantaneous deltas can go negative.
struct Gauge {
  int64_t value = 0;

  void Set(int64_t v) { value = v; }
  void Add(int64_t delta) { value += delta; }

  int64_t Load() const {
    return std::atomic_ref<int64_t>(const_cast<int64_t&>(value))
        .load(std::memory_order_relaxed);
  }
};

// Fixed-bucket latency histogram: bucket b holds samples whose bit width
// is b, i.e. [2^(b-1), 2^b). Power-of-two buckets bound the relative
// quantile error at 2x while keeping Record() a shift and an increment —
// cheap enough for always-on rx-to-delivery accounting. (Contrast
// src/common/histogram.h, the high-resolution HDR variant the benches use
// for reported latency numbers.)
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Record(uint64_t sample) {
    buckets_[BucketOf(sample)] += 1;
    count_ += 1;
    sum_ += sample;
    if (count_ == 1 || sample < min_) min_ = sample;
    if (sample > max_) max_ = sample;
  }

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Upper edge of the bucket containing the pct-th percentile sample
  // (pct in [0, 100]). 0 when empty.
  uint64_t Percentile(double pct) const;

  // Adds another histogram's samples into this one (BindMetrics carry-over).
  void MergeFrom(const LatencyHistogram& other);

  uint64_t BucketCount(size_t bucket) const { return buckets_[bucket]; }

  static size_t BucketOf(uint64_t sample) {
    return static_cast<size_t>(std::bit_width(sample));
  }
  // Largest value the bucket can hold (its representative in summaries).
  static uint64_t BucketUpperEdge(size_t bucket) {
    if (bucket == 0) return 0;
    if (bucket >= 64) return ~uint64_t{0};
    return (uint64_t{1} << bucket) - 1;
  }

 private:
  uint64_t buckets_[kNumBuckets + 1] = {};  // +1: bit_width ranges 0..64
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// Summary of one histogram inside a snapshot.
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

// One metric inside a snapshot.
struct SnapshotMetric {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramSummary histogram;
};

// Immutable app -> hook -> metric tree. std::map keys make the JSON
// rendering deterministic.
class Snapshot {
 public:
  using MetricMap = std::map<std::string, SnapshotMetric, std::less<>>;
  using HookMap = std::map<std::string, MetricMap, std::less<>>;
  using AppMap = std::map<std::string, HookMap, std::less<>>;

  AppMap apps;

  const SnapshotMetric* Find(std::string_view app, std::string_view hook,
                             std::string_view metric) const;

  // Convenience readers: 0 when the metric is absent or of another kind.
  uint64_t CounterValue(std::string_view app, std::string_view hook,
                        std::string_view metric) const;
  int64_t GaugeValue(std::string_view app, std::string_view hook,
                     std::string_view metric) const;
  const HistogramSummary* Histogram(std::string_view app,
                                    std::string_view hook,
                                    std::string_view metric) const;

  // Renders the schema documented in docs/OBSERVABILITY.md.
  std::string ToJson(bool pretty = true) const;
};

// Hands out metric cells and snapshots them. Get-or-create: the same
// {app, hook, metric} key always returns the same cell, so a redeployed
// policy keeps accumulating into its app's counters. The internal lock
// covers registration and snapshotting only — never a metric bump.
class MetricsRegistry {
 public:
  std::shared_ptr<Counter> GetCounter(std::string_view app,
                                      std::string_view hook,
                                      std::string_view metric);
  std::shared_ptr<Gauge> GetGauge(std::string_view app, std::string_view hook,
                                  std::string_view metric);
  std::shared_ptr<LatencyHistogram> GetHistogram(std::string_view app,
                                                 std::string_view hook,
                                                 std::string_view metric);

  Snapshot TakeSnapshot() const;

  size_t NumMetrics() const;

 private:
  struct Key {
    std::string app;
    std::string hook;
    std::string metric;
    auto operator<=>(const Key&) const = default;
  };
  struct Cell {
    std::shared_ptr<Counter> counter;
    std::shared_ptr<Gauge> gauge;
    std::shared_ptr<LatencyHistogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<Key, Cell> cells_;
};

}  // namespace syrup::obs

#endif  // SYRUP_SRC_OBS_METRICS_H_
