// Syrup Maps: the key-value communication substrate (paper §3.4, §4.1).
//
// Maps model eBPF maps: fixed key/value sizes, preallocated or node-based
// storage with *stable value pointers*, lock-free atomic arithmetic on
// values, and pinning to a path namespace so policies at different hooks and
// userspace code can share state. Three concrete types are provided, the
// same trio Syrup uses: array maps (executor tables, per-index counters),
// hash maps (token buckets, scan flags keyed by id), and prog-array maps
// (syrupd's per-port policy dispatch table, paper §4.3).
#ifndef SYRUP_SRC_MAP_MAP_H_
#define SYRUP_SRC_MAP_MAP_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace syrup {

// Per-map operation counters. Maps are contractually thread-safe, so
// bumps use the atomic variant; cells are shared_ptr into a
// MetricsRegistry once the map is bound (syrupd binds at create/pin time,
// keyed {app, "map", "<name>.lookups"} etc.).
struct MapOpCounters {
  std::shared_ptr<obs::Counter> lookups;
  std::shared_ptr<obs::Counter> misses;
  std::shared_ptr<obs::Counter> updates;
  std::shared_ptr<obs::Counter> deletes;
  // Bumped once at construction when the spec's requested table size
  // exceeded the implementation's bucket/slot clamp (the map still works,
  // with degraded probe behavior; the cell makes the degradation visible).
  std::shared_ptr<obs::Counter> bucket_clamp;

  static MapOpCounters Detached() {
    MapOpCounters c;
    c.lookups = std::make_shared<obs::Counter>();
    c.misses = std::make_shared<obs::Counter>();
    c.updates = std::make_shared<obs::Counter>();
    c.deletes = std::make_shared<obs::Counter>();
    c.bucket_clamp = std::make_shared<obs::Counter>();
    return c;
  }

  static MapOpCounters InRegistry(obs::MetricsRegistry& registry,
                                  std::string_view app,
                                  const std::string& map_name) {
    MapOpCounters c;
    c.lookups = registry.GetCounter(app, "map", map_name + ".lookups");
    c.misses = registry.GetCounter(app, "map", map_name + ".misses");
    c.updates = registry.GetCounter(app, "map", map_name + ".updates");
    c.deletes = registry.GetCounter(app, "map", map_name + ".deletes");
    c.bucket_clamp =
        registry.GetCounter(app, "map", map_name + ".bucket_clamp");
    return c;
  }
};

// Point-in-time internals a map exposes for the per-map observability
// gauges (map.{occupancy,max_probe_len,tombstones,epoch_lag}); Syrupd
// refreshes them into the MetricsRegistry on every StatsSnapshot(). Only
// the swiss-table HashMap fills all four; other maps report occupancy.
struct MapRuntimeStats {
  uint64_t occupancy = 0;      // live entries
  uint64_t max_probe_len = 0;  // worst insert probe distance seen (groups)
  uint64_t tombstones = 0;     // deleted slots awaiting epoch-gated reuse
  uint64_t epoch_lag = 0;      // global epoch minus slowest pinned reader
};

enum class MapType {
  kArray,
  kHash,
  kProgArray,
  // Array map sharded per CPU: writes land in the calling core's shard,
  // LookupU64 aggregates across shards (the paper's recommended fix for
  // contended counter maps).
  kPerCpuArray,
};

// Number of map types; sizes every per-map-type table (e.g. the cost model's
// per-kind helper costs). Keep in sync with the enum (kPerCpuArray is last).
inline constexpr size_t kNumMapTypes =
    static_cast<size_t>(MapType::kPerCpuArray) + 1;

std::string_view MapTypeName(MapType type);

// Update flags follow the BPF_ANY / BPF_NOEXIST / BPF_EXIST semantics.
enum class UpdateFlag {
  kAny,
  kNoExist,
  kExist,
};

struct MapSpec {
  MapType type = MapType::kArray;
  uint32_t key_size = sizeof(uint32_t);
  // Default 8: the paper standardizes on u64 values ("we have found that
  // 64-bit unsigned integer values are sufficient for our target
  // applications"). Arbitrary struct sizes are supported too.
  uint32_t value_size = sizeof(uint64_t);
  uint32_t max_entries = 1;
  std::string name;
};

// Abstract map. All operations are thread-safe; Lookup returns a pointer to
// stable internal storage valid until the entry is deleted (as in eBPF,
// in-kernel users mutate values in place, typically with atomics).
class Map {
 public:
  explicit Map(MapSpec spec)
      : spec_(std::move(spec)), counters_(MapOpCounters::Detached()) {}
  virtual ~Map() = default;

  Map(const Map&) = delete;
  Map& operator=(const Map&) = delete;

  const MapSpec& spec() const { return spec_; }

  // Returns a pointer to the value for `key`, or nullptr if absent.
  // Non-virtual: the public entry points account the op (atomically —
  // maps are shared across threads) and delegate to the Do* hooks.
  void* Lookup(const void* key) {
    counters_.lookups->IncAtomic();
    void* value = DoLookup(key);
    if (value == nullptr) {
      counters_.misses->IncAtomic();
    }
    return value;
  }

  // Batched lookup: out[i] = value pointer for keys[i] (nullptr on miss).
  // `keys` is n contiguous keys of spec().key_size bytes each. Equivalent
  // to n Lookup() calls — same pointers, same counter accounting — but
  // implementations overlap hashing, probing, and memory prefetch across
  // the batch (HashMap software-pipelines it). Policies reach it through
  // the map_lookup_batch helper.
  void LookupBatch(uint32_t n, const void* keys, void** out) {
    counters_.lookups->IncAtomic(n);
    DoLookupBatch(n, keys, out);
    uint64_t miss = 0;
    for (uint32_t i = 0; i < n; ++i) {
      miss += out[i] == nullptr ? 1 : 0;
    }
    if (miss != 0) {
      counters_.misses->IncAtomic(miss);
    }
  }

  // The VM helper flavor (map_lookup_batch): copies each hit's u64 value
  // into out[i] (misses write 0) and returns the hit bitmap (bit i set =
  // keys[i] present). Only valid for value_size == 8 maps — the verifier
  // enforces that, this entry point just trusts it. Values are read with
  // the same relaxed-atomic load the policies use through Lookup pointers.
  uint64_t LookupBatchU64(uint32_t n, const void* keys, uint64_t* out) {
    void* ptrs[kMaxLookupBatch];
    n = n <= kMaxLookupBatch ? n : kMaxLookupBatch;
    LookupBatch(n, keys, ptrs);
    uint64_t hits = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (ptrs[i] != nullptr) {
        hits |= uint64_t{1} << i;
        out[i] = AtomicLoad(ptrs[i]);
      } else {
        out[i] = 0;
      }
    }
    return hits;
  }

  // Largest batch the VM helper accepts; bounds the helper's stack needs
  // (n keys + n u64 results must fit the 512-byte VM frame) and keeps the
  // hit bitmap in the low half of r0.
  static constexpr uint32_t kMaxLookupBatch = 32;

  Status Update(const void* key, const void* value, UpdateFlag flag) {
    counters_.updates->IncAtomic();
    return DoUpdate(key, value, flag);
  }

  Status Delete(const void* key) {
    counters_.deletes->IncAtomic();
    return DoDelete(key);
  }

  // Re-homes this map's accounting into registry-owned cells (called by
  // syrupd when the map is created or pinned). First binding wins so two
  // apps opening the same pin share one series; values accumulated while
  // detached carry over.
  void BindCounters(const MapOpCounters& cells) {
    if (bound_) {
      return;
    }
    bound_ = true;
    cells.lookups->IncAtomic(counters_.lookups->Load());
    cells.misses->IncAtomic(counters_.misses->Load());
    cells.updates->IncAtomic(counters_.updates->Load());
    cells.deletes->IncAtomic(counters_.deletes->Load());
    cells.bucket_clamp->IncAtomic(counters_.bucket_clamp->Load());
    counters_ = cells;
  }

  const MapOpCounters& op_counters() const { return counters_; }

  // Number of live entries (array maps: max_entries, all preallocated).
  virtual uint32_t Size() const = 0;

  // Internals snapshot for the observability gauges; cheap enough to call
  // on every StatsSnapshot().
  virtual MapRuntimeStats RuntimeStats() const {
    MapRuntimeStats stats;
    stats.occupancy = Size();
    return stats;
  }

  // Invokes fn(key, value) for every live entry (bpftool-style iteration
  // for introspection). Hash maps hold the bucket lock during each call:
  // fn must not re-enter the map.
  using VisitFn = std::function<void(const void* key, void* value)>;
  virtual void Visit(const VisitFn& fn) = 0;

  // --- Typed conveniences for the common u32 -> u64 shape -----------------

  // Virtual so sharded maps (PerCpuArrayMap) can aggregate across shards.
  virtual StatusOr<uint64_t> LookupU64(uint32_t key) {
    if (spec_.key_size != sizeof(uint32_t) ||
        spec_.value_size != sizeof(uint64_t)) {
      return InvalidArgumentError("map is not u32->u64");
    }
    void* v = Lookup(&key);
    if (v == nullptr) {
      return NotFoundError("key absent");
    }
    uint64_t out;
    std::memcpy(&out, v, sizeof(out));
    return out;
  }

  Status UpdateU64(uint32_t key, uint64_t value,
                   UpdateFlag flag = UpdateFlag::kAny) {
    if (spec_.key_size != sizeof(uint32_t) ||
        spec_.value_size != sizeof(uint64_t)) {
      return InvalidArgumentError("map is not u32->u64");
    }
    return Update(&key, &value, flag);
  }

  // Atomic fetch-add on a u64 value in place (the paper's
  // __sync_fetch_and_add on map values). Returns the previous value.
  static uint64_t AtomicFetchAdd(void* value, uint64_t delta) {
    auto* cell = reinterpret_cast<std::atomic<uint64_t>*>(value);
    return cell->fetch_add(delta, std::memory_order_relaxed);
  }

  static uint64_t AtomicLoad(const void* value) {
    auto* cell = reinterpret_cast<const std::atomic<uint64_t>*>(value);
    return cell->load(std::memory_order_relaxed);
  }

  static void AtomicStore(void* value, uint64_t v) {
    auto* cell = reinterpret_cast<std::atomic<uint64_t>*>(value);
    cell->store(v, std::memory_order_relaxed);
  }

 protected:
  // Concrete map implementations.
  virtual void* DoLookup(const void* key) = 0;
  virtual Status DoUpdate(const void* key, const void* value,
                          UpdateFlag flag) = 0;
  virtual Status DoDelete(const void* key) = 0;

  // Default batched lookup: the sequential loop. HashMap overrides with a
  // hash/probe/prefetch software pipeline.
  virtual void DoLookupBatch(uint32_t n, const void* keys, void** out) {
    const auto* k = static_cast<const uint8_t*>(keys);
    for (uint32_t i = 0; i < n; ++i) {
      out[i] = DoLookup(k + static_cast<size_t>(i) * spec_.key_size);
    }
  }

  // Records that this map's table size was clamped below what the spec
  // asked for: one warning per process (not per map — a fleet of clamped
  // maps should not spam the log) plus a per-map counter the registry
  // surfaces as "<name>.bucket_clamp". Defined in map.cc for the logger.
  void NoteBucketClamp(uint64_t clamped_to);

 private:
  MapSpec spec_;
  MapOpCounters counters_;
  bool bound_ = false;
};

// Largest preallocation CreateMap accepts for one map: max_entries x
// (key_size + value_size), with every per-CPU copy of the value counted.
// Specs arrive from untrusted policy files, so a map that does not fit is
// an INVALID_ARGUMENT, never an allocation failure. Every in-tree spec
// needs under 16 MiB.
inline constexpr uint64_t kMaxMapBytes = uint64_t{256} << 20;

// Factory: validates the spec and builds the matching concrete map.
StatusOr<std::shared_ptr<Map>> CreateMap(const MapSpec& spec);

}  // namespace syrup

#endif  // SYRUP_SRC_MAP_MAP_H_
