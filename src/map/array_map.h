// Array map: u32 index -> fixed-size value, fully preallocated.
//
// Matches BPF_MAP_TYPE_ARRAY semantics: every index in [0, max_entries)
// always exists (zero-initialized), Delete is invalid, and value storage
// never moves, so concurrent readers and atomic writers need no locking.
#ifndef SYRUP_SRC_MAP_ARRAY_MAP_H_
#define SYRUP_SRC_MAP_ARRAY_MAP_H_

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/map/map.h"

namespace syrup {

class ArrayMap : public Map {
 public:
  explicit ArrayMap(MapSpec spec)
      : Map(std::move(spec)),
        storage_(static_cast<size_t>(this->spec().value_size) *
                     this->spec().max_entries,
                 0) {}

  void* DoLookup(const void* key) override {
    const uint32_t index = LoadKey(key);
    if (index >= spec().max_entries) {
      return nullptr;
    }
    return storage_.data() + static_cast<size_t>(index) * spec().value_size;
  }

  Status DoUpdate(const void* key, const void* value, UpdateFlag flag) override {
    if (flag == UpdateFlag::kNoExist) {
      // All array entries exist from creation, as in the kernel.
      return AlreadyExistsError("array map entries always exist");
    }
    void* slot = DoLookup(key);
    if (slot == nullptr) {
      return OutOfRangeError("array index out of bounds");
    }
    StoreValue(slot, value, spec().value_size);
    return OkStatus();
  }

  Status DoDelete(const void* /*key*/) override {
    return InvalidArgumentError("array map entries cannot be deleted");
  }

  uint32_t Size() const override { return spec().max_entries; }

  void Visit(const VisitFn& fn) override {
    for (uint32_t index = 0; index < spec().max_entries; ++index) {
      fn(&index, storage_.data() +
                     static_cast<size_t>(index) * spec().value_size);
    }
  }

  // Publishes an updated value. For the standard u64 shape the store is a
  // single atomic release, so lock-free concurrent readers (policies on
  // other threads, userspace LookupU64) never observe a torn value.
  static void StoreValue(void* slot, const void* value, uint32_t size) {
    if (size == sizeof(uint64_t)) {
      uint64_t v;
      std::memcpy(&v, value, sizeof(v));
      reinterpret_cast<std::atomic<uint64_t>*>(slot)->store(
          v, std::memory_order_release);
      return;
    }
    std::memcpy(slot, value, size);
  }

 private:
  static uint32_t LoadKey(const void* key) {
    uint32_t index;
    std::memcpy(&index, key, sizeof(index));
    return index;
  }

  std::vector<uint8_t> storage_;
};

// Per-CPU array map: BPF_MAP_TYPE_PERCPU_ARRAY semantics adapted to the
// simulator. Storage is sharded; Lookup/Update touch only the calling
// thread's shard (each OS thread is pinned to a shard on first access,
// wrapping modulo the shard count), so per-packet counter bumps from
// different cores never share a cache line — the paper's recommended fix
// for contended counter maps (Table 3 "Rd-Contended"). The userspace read
// side is LookupU64, which aggregates (sums) the key's value across every
// shard, matching how the kernel surfaces per-CPU values as an array and
// tooling sums them.
class PerCpuArrayMap : public Map {
 public:
  explicit PerCpuArrayMap(MapSpec spec,
                          uint32_t num_shards = DefaultShards())
      : Map(std::move(spec)),
        num_shards_(num_shards == 0 ? 1 : num_shards),
        stride_(static_cast<size_t>(this->spec().value_size) *
                this->spec().max_entries),
        storage_(stride_ * (num_shards == 0 ? 1 : num_shards), 0) {}

  uint32_t num_shards() const { return num_shards_; }

  void* DoLookup(const void* key) override {
    return SlotIn(ShardIndex(), LoadKey(key));
  }

  Status DoUpdate(const void* key, const void* value,
                  UpdateFlag flag) override {
    if (flag == UpdateFlag::kNoExist) {
      return AlreadyExistsError("array map entries always exist");
    }
    void* slot = SlotIn(ShardIndex(), LoadKey(key));
    if (slot == nullptr) {
      return OutOfRangeError("array index out of bounds");
    }
    ArrayMap::StoreValue(slot, value, spec().value_size);
    return OkStatus();
  }

  Status DoDelete(const void* /*key*/) override {
    return InvalidArgumentError("array map entries cannot be deleted");
  }

  uint32_t Size() const override { return spec().max_entries; }

  // Visits the calling thread's shard (the view a policy running on this
  // core sees). Cross-shard aggregation goes through LookupU64.
  void Visit(const VisitFn& fn) override {
    const uint32_t shard = ShardIndex();
    for (uint32_t index = 0; index < spec().max_entries; ++index) {
      fn(&index, SlotIn(shard, index));
    }
  }

  // Aggregating read side: sums the key's u64 value across all shards.
  StatusOr<uint64_t> LookupU64(uint32_t key) override {
    if (spec().key_size != sizeof(uint32_t) ||
        spec().value_size != sizeof(uint64_t)) {
      return InvalidArgumentError("map is not u32->u64");
    }
    if (key >= spec().max_entries) {
      return NotFoundError("key absent");
    }
    // Accounts once, like the base class's single-shard path.
    op_counters().lookups->IncAtomic();
    uint64_t sum = 0;
    for (uint32_t shard = 0; shard < num_shards_; ++shard) {
      sum += AtomicLoad(SlotIn(shard, key));
    }
    return sum;
  }

  // The value for `key` in one specific shard (tests, introspection).
  StatusOr<uint64_t> ShardValueU64(uint32_t shard, uint32_t key) {
    if (shard >= num_shards_ || key >= spec().max_entries) {
      return NotFoundError("shard or key out of range");
    }
    return AtomicLoad(SlotIn(shard, key));
  }

  static uint32_t DefaultShards() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : static_cast<uint32_t>(hw);
  }

 private:
  static uint32_t LoadKey(const void* key) {
    uint32_t index;
    std::memcpy(&index, key, sizeof(index));
    return index;
  }

  void* SlotIn(uint32_t shard, uint32_t index) {
    if (index >= spec().max_entries) {
      return nullptr;
    }
    return storage_.data() + stride_ * shard +
           static_cast<size_t>(index) * spec().value_size;
  }

  // Each OS thread claims a shard on first touch; shards wrap when there
  // are more threads than shards (still correct, just shared again).
  uint32_t ShardIndex() const {
    static std::atomic<uint32_t> next_thread{0};
    thread_local uint32_t thread_slot =
        next_thread.fetch_add(1, std::memory_order_relaxed);
    return thread_slot % num_shards_;
  }

  const uint32_t num_shards_;
  const size_t stride_;  // bytes per shard
  std::vector<uint8_t> storage_;
};

}  // namespace syrup

#endif  // SYRUP_SRC_MAP_ARRAY_MAP_H_
