// Flow-decision cache: per-hook memoization of verified matching functions.
//
// Syrup's NIC offload is fast because the matching function's *decision*
// is installed into the hardware flow table — subsequent packets of a flow
// skip policy execution entirely. This is the same idea for the software
// hooks: an open-addressed table in front of Syrupd::DispatchBatch that
// maps a flow key to the Decision the policy last produced.
//
// Correctness is static analysis + versioning, never heuristics:
//
//   * The verifier proves which programs are cacheable at all
//     (AnalysisFacts::cacheable: output depends only on packet bytes and
//     map reads) and which exact packet bytes feed the decision
//     (pkt_read_mask). The cache key is (dst port, packet length, those
//     masked bytes) — packet length participates because bounds checks
//     against pkt_end branch on it. Full-key memcmp on lookup: hash
//     collisions can evict, never produce a false hit.
//   * Every Map carries a monotonic version stamp bumped on Update/Delete.
//     Each cached entry stores the *sum* of the versions of the program's
//     read-set maps, captured before the policy ran; monotonicity makes
//     the sum strictly increase on any change, so a lookup whose current
//     sum differs sees a guaranteed miss (counted as an invalidation).
//   * Deploy/remove at a hook bumps the hook's epoch; entries stamped
//     with an older epoch never hit, which flushes the whole hook in O(1).
//
// Scale (the "flow cache at scale" design, see DESIGN.md):
//
//   * Admission is TinyLFU-style: a 4-bit counting-min sketch estimates
//     each flow's access frequency; when an insert would evict a live
//     entry, the newcomer must out-count the coldest resident or it is
//     rejected. A doorkeeper bit-set absorbs one-hit wonders before they
//     touch the counters, and because the sketch is only consulted on the
//     miss/insert path, a 100%-hit workload pays nothing for it.
//   * Capacity adapts to the observed live-flow population: lookups are
//     grouped into windows of one-table-length each, and each entry's
//     *first hit* in a window bumps a live-flow counter — so "live" means
//     recurring, and a skewed workload's one-hit cold tail never inflates
//     the estimate. At each window boundary the table grows toward
//     2x (live flows + eviction pressure) or shrinks when it is >4x
//     oversized; the boundary work is O(1), no table sweep.
//
// Engagement (see DESIGN.md, "When the cache engages"): Syrupd binds a
// deployment to the cache only when the program is pure *and* its priced
// worst case at the deployed tier exceeds one warm probe
// (bpf::FlowCachePays). A table holds no slot, key or sketch memory until
// the first such deployment attaches to its hook (Allocate).
//
// The cache is deliberately not internally synchronized: in the simulator
// each hook's dispatch runs serialized (softirq model), and this mirrors a
// real per-core megaflow cache which is also core-private. Map versions
// and values, however, are read concurrently with userspace updaters —
// those races are exactly what the version capture-before-execute protocol
// makes safe (tests/flow_cache_race_test.cc hammers it under TSan/ASan).
#ifndef SYRUP_SRC_CORE_FLOW_CACHE_H_
#define SYRUP_SRC_CORE_FLOW_CACHE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/common/decision.h"
#include "src/map/map.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"

namespace syrup {

// The one knob surface for the flow cache (Syrupd::set_flow_cache_config,
// SyrupClient, syrupctl, and the experiment configs all traffic in this
// struct).
struct FlowCacheConfig {
  bool enabled = true;
  // Initial table size in slots (rounded up to a power of two). With
  // `adaptive` set this is just the starting point; without it, the table
  // stays at exactly this size.
  size_t capacity = 4096;
  // TinyLFU admission: cold flows cannot evict entries that out-count them.
  bool admission = true;
  // Grow/shrink the table by the observed live-flow estimate.
  bool adaptive = true;
};

// What a deployment needs to consult the cache, derived once at attach
// time from the verifier's facts. Maps are raw observers: the deployment's
// policy owns the program which owns the map shared_ptrs, and the cache
// binding dies with the PortEntry.
struct FlowCacheBinding {
  bool cacheable = false;
  uint64_t pkt_read_mask = 0;
  std::vector<const Map*> read_maps;

  // Invalidation signature: the read-set maps' version sum. Captured
  // before the policy executes on a miss; compared on every hit attempt.
  uint64_t VersionSum() const {
    uint64_t sum = 0;
    for (const Map* map : read_maps) {
      sum += map->version();
    }
    return sum;
  }

  // Builds the binding for a verified program. Cacheable only when the
  // purity facts say so; read-set indices resolve against the program's map
  // table. Whether caching pays at the deployed tier is the caller's
  // separate gate (bpf::FlowCachePays).
  static FlowCacheBinding ForProgram(const bpf::AnalysisFacts& facts,
                                     const bpf::Program& program);
};

// Per-hook cache counters, resolved from the daemon's registry under
// {"syrupd", <hook>, "flow_cache.*"} so syrupctl stats surfaces them.
// hits/misses/invalidations/uncacheable are bumped by the dispatcher;
// evictions/admission_rejects/resizes (and the capacity gauge) by the
// cache itself once BindCounters hands it the same cells.
struct FlowCacheCounters {
  std::shared_ptr<obs::Counter> hits;
  std::shared_ptr<obs::Counter> misses;
  std::shared_ptr<obs::Counter> invalidations;
  std::shared_ptr<obs::Counter> uncacheable;
  std::shared_ptr<obs::Counter> evictions;
  std::shared_ptr<obs::Counter> admission_rejects;
  std::shared_ptr<obs::Counter> resizes;
  std::shared_ptr<obs::Gauge> capacity;

  static FlowCacheCounters Detached();
  static FlowCacheCounters InRegistry(obs::MetricsRegistry& registry,
                                      std::string_view hook);
  // Shard-local cells under the same keys as InRegistry: the registry sums
  // them into the hook's single snapshot entry, so a per-shard cache's
  // accounting folds into the per-hook totals (Syrupd::ConfigureSharding).
  static FlowCacheCounters InRegistryShard(obs::MetricsRegistry& registry,
                                           std::string_view hook, int shard);
};

// TinyLFU-style frequency sketch: a single array of 4-bit saturating
// counters probed at four positions per key (estimate = the minimum), plus
// a doorkeeper bit-set that absorbs a flow's first occurrence so one-hit
// wonders never dirty the counters. Every `8 * width` samples the counters
// halve and the doorkeeper clears, so the sketch tracks recent frequency,
// not all-time counts.
class FrequencySketch {
 public:
  static constexpr uint32_t kMaxEstimate = 15;

  // Holds no memory until the first Resize.
  FrequencySketch() = default;

  // Sizes the sketch to ~`counters` 4-bit cells (power of two, min 64) and
  // clears all frequency state. Required before Touch/Estimate.
  void Resize(size_t counters);

  // Records one occurrence of `hash` and ages the sketch when the sample
  // budget is spent.
  void Touch(uint64_t hash);

  // Recent-frequency estimate for `hash` (min over the probed counters,
  // plus the doorkeeper's absorbed first hit).
  uint32_t Estimate(uint64_t hash) const;

  uint64_t samples() const { return samples_; }
  uint64_t agings() const { return agings_; }
  size_t width() const { return mask_ + 1; }

 private:
  uint32_t CounterAt(size_t index) const {
    return static_cast<uint32_t>(table_[index >> 4] >> ((index & 15) * 4)) &
           0xF;
  }
  bool DoorkeeperTest(uint64_t hash) const;
  void DoorkeeperSet(uint64_t hash);
  void Age();

  std::vector<uint64_t> table_;  // 16 4-bit counters per word
  std::vector<uint64_t> door_;   // 64 doorkeeper bits per word
  size_t mask_ = 0;
  uint64_t samples_ = 0;
  uint64_t sample_limit_ = 0;
  uint64_t agings_ = 0;
};

// The table. Open-addressed with a short linear probe window,
// admission-gated eviction (a megaflow cache with a TinyLFU filter, not an
// LRU), and window-driven adaptive sizing.
class FlowDecisionCache {
 public:
  // Key capacity: dst port (2) + packet length (2) + up to 64 masked
  // packet bytes (AnalysisFacts::kMaxTrackedPktBytes).
  static constexpr size_t kMaxKeyBytes =
      4 + static_cast<size_t>(bpf::AnalysisFacts::kMaxTrackedPktBytes);
  static constexpr size_t kMinSlots = 16;        // floor for tiny test configs
  static constexpr size_t kMaxSlots = 1 << 18;   // ~262k flows resident
  static constexpr size_t kShrinkFloor = 1024;   // adaptive shrink stops here
  static constexpr size_t kProbeWindow = 4;

  // Holds no slot, key or sketch memory until Allocate.
  explicit FlowDecisionCache(FlowCacheConfig config = {}) : config_(config) {}

  // Applies a new configuration and releases the table and sketch; the
  // next Allocate builds them at config.capacity. Dropping entries is
  // always safe — the cache is semantically transparent.
  void Configure(const FlowCacheConfig& config);
  const FlowCacheConfig& config() const { return config_; }

  // Builds an empty table at config().capacity plus its sketch; a no-op
  // when already allocated. Lookup, Insert and PrefetchSlot require an
  // allocated table — Syrupd allocates a hook's tables when a cacheable
  // deployment attaches, so the hit path carries no allocation check.
  void Allocate();
  bool allocated() const { return !slots_.empty(); }

  // Current table size in slots: 0 until allocated, then moves under
  // `adaptive`.
  size_t capacity() const { return slots_.size(); }

  // Re-homes eviction/admission/resize accounting (Syrupd binds its
  // registry-backed cells here so StatsSnapshot surfaces them).
  void BindCounters(FlowCacheCounters counters);

  // A materialized flow key plus its hash. Deliberately trivial (no
  // default member initializers): DispatchChunk keeps an uninitialized
  // kMaxDispatchBatch-sized array of these on the stack, and zeroing all
  // of them would dominate a batch-of-1 dispatch. MakeKey sets every
  // field it returns.
  struct Key {
    uint8_t bytes[kMaxKeyBytes];
    uint32_t len;
    uint64_t hash;
    // The first min(len, 8) key bytes, zero-padded: compared inline from
    // the hot entry so short keys never touch the cold key array.
    uint64_t prefix;
  };

  // Derives the flow key for `pkt` under `mask` (the verifier's
  // pkt_read_mask): dst port, wire length, then every masked byte that is
  // inside the packet. Bytes the mask names beyond the packet's end are
  // simply absent — which is fine, because the length is part of the key.
  static Key MakeKey(const PacketView& pkt, uint64_t mask);

  // Warms the cache line of `hash`'s home slot. DispatchBatch hoists this
  // across a burst so the probes in the in-order phase hit warm lines.
  void PrefetchSlot(uint64_t hash) const {
    __builtin_prefetch(&slots_[static_cast<size_t>(hash) & mask_]);
  }

  // Probes for `key` stamped with the current `epoch` and `version_sum`.
  // Returns true and sets `*out` on a hit. A key match whose stamp is
  // stale reports false and counts as an invalidation in `*stale` (the
  // caller bumps metrics; the entry will be overwritten by the insert that
  // follows the re-execution).
  bool Lookup(const Key& key, uint64_t epoch, uint64_t version_sum,
              Decision* out, bool* stale);

  // Installs (or refreshes) the decision for `key`. `version_sum` must
  // have been captured *before* the policy executed, so a concurrent map
  // update during execution leaves the entry already-stale. Under
  // admission the insert may be *rejected*: when every slot in the probe
  // window holds a live entry, the newcomer must out-count the coldest
  // resident in the frequency sketch or the resident stays.
  void Insert(const Key& key, Decision decision, uint64_t epoch,
              uint64_t version_sum);

  // Drops every entry regardless of stamps (tests; epoch bumps make this
  // unnecessary in the daemon).
  void Clear();

  size_t OccupiedSlots() const { return occupied_; }

  // Test introspection into the admission sketch.
  const FrequencySketch& sketch() const { return sketch_; }

 private:
  // Hot half of a slot: everything a probe compares or stamps, 48 bytes so
  // a 4-slot probe window spans ~3 cache lines. The full key bytes live in
  // the parallel `keys_` array (kMaxKeyBytes stride); `key_prefix` holds
  // the first 8 of them so the common short key (port + len + a few masked
  // bytes) compares entirely from the hot line. At 100k+ resident flows the
  // table is DRAM-resident and probe cost is line count, not instructions.
  struct Entry {
    uint64_t hash = 0;
    uint64_t version_sum = 0;
    uint64_t epoch = 0;
    uint64_t key_prefix = 0;
    uint32_t key_len = 0;
    Decision decision = 0;
    uint32_t last_seen = 0;  // window the entry last hit or was inserted in
    bool valid = false;
  };

  // True when `slot` holds exactly `key` (hash, prefix, and — only for
  // keys longer than the inline prefix — the cold tail bytes).
  bool SlotMatches(const Entry& entry, size_t slot, const Key& key) const {
    return entry.hash == key.hash && entry.key_len == key.len &&
           entry.key_prefix == key.prefix &&
           (key.len <= 8 ||
            std::memcmp(KeyAt(slot) + 8, key.bytes + 8, key.len - 8) == 0);
  }

  static size_t RoundCapacity(size_t requested);

  uint8_t* KeyAt(size_t slot) { return keys_.data() + slot * kMaxKeyBytes; }
  const uint8_t* KeyAt(size_t slot) const {
    return keys_.data() + slot * kMaxKeyBytes;
  }

  // Window boundary: estimate the live-flow population, grow/shrink the
  // table toward 2x (live + pressure), and open the next window.
  void AdvanceWindow();
  void ResizeTo(size_t new_slots);
  // Rehash helper: places `entry` (whose key bytes are `key_bytes`) without
  // admission (first-wins; a dropped entry on shrink counts as an eviction).
  void Place(const Entry& entry, const uint8_t* key_bytes);

  FlowCacheConfig config_;
  std::vector<Entry> slots_;
  std::vector<uint8_t> keys_;  // kMaxKeyBytes per slot, parallel to slots_
  size_t mask_ = 0;
  size_t floor_slots_ = kMinSlots;  // adaptive shrink never goes below this
  FrequencySketch sketch_;
  FlowCacheCounters counters_ = FlowCacheCounters::Detached();
  size_t occupied_ = 0;
  uint32_t window_ = 1;  // 0 is "never seen", so windows start at 1
  uint64_t window_lookups_ = 0;
  uint64_t window_pressure_ = 0;  // evictions + admission rejects
  // Distinct entries hit so far this window / in the whole previous window:
  // the incremental live-flow estimate (insertions deliberately don't
  // count — an entry only proves it is live by hitting).
  uint64_t window_live_ = 0;
  uint64_t prev_window_live_ = 0;
};

}  // namespace syrup

#endif  // SYRUP_SRC_CORE_FLOW_CACHE_H_
