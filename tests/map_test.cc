#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <utility>
#include <cstring>
#include <thread>
#include <vector>

#include "src/map/array_map.h"
#include "src/map/hash_map.h"
#include "src/map/map.h"
#include "src/map/offload_proxy.h"
#include "src/map/prog_array.h"
#include "src/map/registry.h"
#include "tests/oracles/chained_hash_map.h"

namespace syrup {
namespace {

MapSpec ArraySpec(uint32_t entries) {
  MapSpec spec;
  spec.type = MapType::kArray;
  spec.max_entries = entries;
  return spec;
}

MapSpec HashSpec(uint32_t entries, uint32_t key_size = 4,
                 uint32_t value_size = 8) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.key_size = key_size;
  spec.value_size = value_size;
  spec.max_entries = entries;
  return spec;
}

// --- factory -----------------------------------------------------------------

TEST(CreateMap, RejectsZeroEntries) {
  MapSpec spec = ArraySpec(0);
  EXPECT_FALSE(CreateMap(spec).ok());
}

TEST(CreateMap, RejectsNonU32ArrayKeys) {
  MapSpec spec = ArraySpec(4);
  spec.key_size = 8;
  EXPECT_FALSE(CreateMap(spec).ok());
}

TEST(CreateMap, RejectsBadProgArrayShape) {
  MapSpec spec;
  spec.type = MapType::kProgArray;
  spec.value_size = 4;  // must be u64
  spec.max_entries = 4;
  EXPECT_FALSE(CreateMap(spec).ok());
}

TEST(CreateMap, BuildsEachType) {
  EXPECT_TRUE(CreateMap(ArraySpec(4)).ok());
  EXPECT_TRUE(CreateMap(HashSpec(4)).ok());
  MapSpec prog;
  prog.type = MapType::kProgArray;
  prog.max_entries = 4;
  EXPECT_TRUE(CreateMap(prog).ok());
}

// --- ArrayMap -----------------------------------------------------------------

TEST(ArrayMap, EntriesExistZeroInitialized) {
  ArrayMap map(ArraySpec(8));
  for (uint32_t key = 0; key < 8; ++key) {
    void* value = map.Lookup(&key);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(Map::AtomicLoad(value), 0u);
  }
  EXPECT_EQ(map.Size(), 8u);
}

TEST(ArrayMap, OutOfBoundsLookupIsNull) {
  ArrayMap map(ArraySpec(8));
  uint32_t key = 8;
  EXPECT_EQ(map.Lookup(&key), nullptr);
  key = 0xFFFFFFFF;
  EXPECT_EQ(map.Lookup(&key), nullptr);
}

TEST(ArrayMap, UpdateAndReadBack) {
  ArrayMap map(ArraySpec(4));
  EXPECT_TRUE(map.UpdateU64(2, 777).ok());
  EXPECT_EQ(map.LookupU64(2).value(), 777u);
  EXPECT_EQ(map.LookupU64(0).value(), 0u);
}

TEST(ArrayMap, UpdateOutOfBoundsFails) {
  ArrayMap map(ArraySpec(4));
  EXPECT_FALSE(map.UpdateU64(4, 1).ok());
}

TEST(ArrayMap, NoExistUpdateRejected) {
  ArrayMap map(ArraySpec(4));
  uint32_t key = 1;
  uint64_t value = 5;
  EXPECT_EQ(map.Update(&key, &value, UpdateFlag::kNoExist).code(),
            StatusCode::kAlreadyExists);
}

TEST(ArrayMap, DeleteRejected) {
  ArrayMap map(ArraySpec(4));
  uint32_t key = 1;
  EXPECT_FALSE(map.Delete(&key).ok());
}

TEST(ArrayMap, ValuePointersAreStable) {
  ArrayMap map(ArraySpec(4));
  uint32_t key = 1;
  void* first = map.Lookup(&key);
  EXPECT_TRUE(map.UpdateU64(3, 9).ok());
  EXPECT_EQ(map.Lookup(&key), first);
}

TEST(ArrayMap, StructValues) {
  MapSpec spec = ArraySpec(2);
  spec.value_size = 24;
  ArrayMap map(spec);
  struct Value {
    uint64_t a, b, c;
  } in{1, 2, 3};
  uint32_t key = 1;
  EXPECT_TRUE(map.Update(&key, &in, UpdateFlag::kAny).ok());
  Value out;
  std::memcpy(&out, map.Lookup(&key), sizeof(out));
  EXPECT_EQ(out.b, 2u);
}

// --- Map versioning (flow-decision cache invalidation) ------------------------

TEST(MapVersion, UpdateAndDeleteBumpTheStamp) {
  ArrayMap array(ArraySpec(4));
  EXPECT_EQ(array.version(), 0u);
  EXPECT_TRUE(array.UpdateU64(0, 1).ok());
  EXPECT_EQ(array.version(), 1u);
  EXPECT_TRUE(array.UpdateU64(0, 2).ok());
  EXPECT_EQ(array.version(), 2u);

  HashMap hash(HashSpec(16));
  EXPECT_TRUE(hash.UpdateU64(5, 7).ok());
  const uint64_t after_insert = hash.version();
  EXPECT_EQ(after_insert, 1u);
  uint32_t key = 5;
  EXPECT_TRUE(hash.Delete(&key).ok());
  EXPECT_EQ(hash.version(), after_insert + 1);
}

TEST(MapVersion, FailedOpsDontBump) {
  ArrayMap map(ArraySpec(4));
  EXPECT_FALSE(map.UpdateU64(9, 1).ok());  // out of bounds
  uint32_t key = 0;
  EXPECT_FALSE(map.Delete(&key).ok());  // arrays never delete
  EXPECT_EQ(map.version(), 0u);
}

TEST(MapVersion, LookupsDontBump) {
  ArrayMap map(ArraySpec(4));
  (void)map.LookupU64(0);
  uint32_t key = 1;
  (void)map.Lookup(&key);
  EXPECT_EQ(map.version(), 0u);
}

// --- PerCpuArrayMap -----------------------------------------------------------

MapSpec PerCpuSpec(uint32_t entries) {
  MapSpec spec;
  spec.type = MapType::kPerCpuArray;
  spec.max_entries = entries;
  return spec;
}

TEST(PerCpuArrayMap, FactoryBuildsAndNamesIt) {
  auto map = CreateMap(PerCpuSpec(4));
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(MapTypeName((*map)->spec().type), "percpu_array");
  MapSpec bad = PerCpuSpec(4);
  bad.key_size = 8;  // per-CPU arrays require u32 keys, like arrays
  EXPECT_FALSE(CreateMap(bad).ok());
}

TEST(PerCpuArrayMap, ShardsAreIsolatedPerThread) {
  PerCpuArrayMap map(PerCpuSpec(4), /*num_shards=*/4);
  ASSERT_TRUE(map.UpdateU64(2, 100).ok());  // this thread's shard
  std::thread other([&map] {
    // A different thread lands in a different shard: it does not see the
    // first thread's in-shard value, and its own write stays local.
    EXPECT_TRUE(map.UpdateU64(2, 11).ok());
  });
  other.join();
  // The calling thread still reads its own shard through Lookup...
  uint32_t key = 2;
  EXPECT_EQ(Map::AtomicLoad(map.Lookup(&key)), 100u);
  // ...while the aggregating read side sums every shard.
  EXPECT_EQ(map.LookupU64(2).value(), 111u);
}

TEST(PerCpuArrayMap, LookupU64SumsAllShards) {
  PerCpuArrayMap map(PerCpuSpec(2), /*num_shards=*/3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    // 6 threads over 3 shards: slots wrap, every write still lands in
    // exactly one shard via an atomic add.
    threads.emplace_back([&map] {
      uint32_t key = 1;
      Map::AtomicFetchAdd(map.Lookup(&key), 5);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(map.LookupU64(1).value(), 30u);
  EXPECT_EQ(map.LookupU64(0).value(), 0u);
  // Per-shard introspection covers the same total.
  uint64_t sum = 0;
  for (uint32_t shard = 0; shard < map.num_shards(); ++shard) {
    sum += map.ShardValueU64(shard, 1).value();
  }
  EXPECT_EQ(sum, 30u);
  EXPECT_FALSE(map.ShardValueU64(3, 0).ok());
}

TEST(PerCpuArrayMap, ArraySemanticsPreserved) {
  PerCpuArrayMap map(PerCpuSpec(4), /*num_shards=*/2);
  EXPECT_EQ(map.Size(), 4u);
  uint32_t key = 4;
  EXPECT_EQ(map.Lookup(&key), nullptr);  // out of bounds
  key = 1;
  EXPECT_FALSE(map.Delete(&key).ok());
  uint64_t value = 1;
  EXPECT_EQ(map.Update(&key, &value, UpdateFlag::kNoExist).code(),
            StatusCode::kAlreadyExists);
  // Updates bump the shared version stamp exactly like flat arrays.
  EXPECT_TRUE(map.UpdateU64(1, 9).ok());
  EXPECT_EQ(map.version(), 1u);
}

// --- HashMap ------------------------------------------------------------------

TEST(HashMap, InsertLookupDelete) {
  HashMap map(HashSpec(16));
  EXPECT_FALSE(map.LookupU64(5).ok());
  EXPECT_TRUE(map.UpdateU64(5, 50).ok());
  EXPECT_EQ(map.LookupU64(5).value(), 50u);
  EXPECT_EQ(map.Size(), 1u);
  uint32_t key = 5;
  EXPECT_TRUE(map.Delete(&key).ok());
  EXPECT_FALSE(map.LookupU64(5).ok());
  EXPECT_EQ(map.Size(), 0u);
}

TEST(HashMap, DeleteMissingFails) {
  HashMap map(HashSpec(16));
  uint32_t key = 9;
  EXPECT_EQ(map.Delete(&key).code(), StatusCode::kNotFound);
}

TEST(HashMap, UpdateFlagsRespected) {
  HashMap map(HashSpec(16));
  uint32_t key = 1;
  uint64_t value = 10;
  EXPECT_EQ(map.Update(&key, &value, UpdateFlag::kExist).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(map.Update(&key, &value, UpdateFlag::kNoExist).ok());
  EXPECT_EQ(map.Update(&key, &value, UpdateFlag::kNoExist).code(),
            StatusCode::kAlreadyExists);
  value = 20;
  EXPECT_TRUE(map.Update(&key, &value, UpdateFlag::kExist).ok());
  EXPECT_EQ(map.LookupU64(1).value(), 20u);
}

TEST(HashMap, CapacityEnforced) {
  HashMap map(HashSpec(4));
  for (uint32_t key = 0; key < 4; ++key) {
    EXPECT_TRUE(map.UpdateU64(key, key).ok());
  }
  EXPECT_EQ(map.UpdateU64(99, 1).code(), StatusCode::kResourceExhausted);
  // Updating an existing key still works at capacity.
  EXPECT_TRUE(map.UpdateU64(2, 22).ok());
}

TEST(HashMap, ManyKeysAllRetrievable) {
  HashMap map(HashSpec(1000));
  for (uint32_t key = 0; key < 1000; ++key) {
    ASSERT_TRUE(map.UpdateU64(key, key * 3).ok());
  }
  EXPECT_EQ(map.Size(), 1000u);
  for (uint32_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(map.LookupU64(key).value(), key * 3);
  }
}

TEST(HashMap, WideKeys) {
  HashMap map(HashSpec(8, /*key_size=*/16));
  uint8_t key_a[16] = {1, 2, 3};
  uint8_t key_b[16] = {1, 2, 4};
  uint64_t value = 7;
  EXPECT_TRUE(map.Update(key_a, &value, UpdateFlag::kAny).ok());
  EXPECT_NE(map.Lookup(key_a), nullptr);
  EXPECT_EQ(map.Lookup(key_b), nullptr);
}

TEST(HashMap, ValuePointerStableAcrossOtherInserts) {
  HashMap map(HashSpec(128));
  ASSERT_TRUE(map.UpdateU64(7, 1).ok());
  uint32_t key = 7;
  void* first = map.Lookup(&key);
  for (uint32_t other = 100; other < 160; ++other) {
    ASSERT_TRUE(map.UpdateU64(other, other).ok());
  }
  EXPECT_EQ(map.Lookup(&key), first);
}

TEST(HashMap, AtomicFetchAddUnderContention) {
  HashMap map(HashSpec(4));
  ASSERT_TRUE(map.UpdateU64(0, 0).ok());
  uint32_t key = 0;
  void* value = map.Lookup(&key);
  ASSERT_NE(value, nullptr);
  constexpr int kThreads = 4;
  constexpr int kIters = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([value]() {
      for (int i = 0; i < kIters; ++i) {
        Map::AtomicFetchAdd(value, 1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(Map::AtomicLoad(value), uint64_t{kThreads} * kIters);
}

TEST(HashMap, ConcurrentInsertsAreSafe) {
  HashMap map(HashSpec(10'000));
  constexpr int kThreads = 4;
  constexpr uint32_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t]() {
      for (uint32_t i = 0; i < kPerThread; ++i) {
        const uint32_t key = static_cast<uint32_t>(t) * kPerThread + i;
        ASSERT_TRUE(map.UpdateU64(key, key).ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(map.Size(), kThreads * kPerThread);
  for (uint32_t key = 0; key < kThreads * kPerThread; ++key) {
    ASSERT_EQ(map.LookupU64(key).value(), key);
  }
}

// Regression: table sizing used to be computed as NextPow2 of the u32
// product `max_entries * 2`, which wraps to 0 for max_entries >= 2^31 and
// collapsed the table to a single bucket. Sizing must be monotonic in
// max_entries up to the cap — and hitting the cap must be *reported*, not
// silent: the constructor bumps the per-map bucket_clamp counter.
TEST(HashMap, HugeMaxEntriesClampIsCountedNotSilent) {
  HashMap huge(HashSpec(1u << 31));
  HashMap small(HashSpec(64));
  EXPECT_GE(huge.slot_count(), small.slot_count());
  EXPECT_EQ(huge.slot_count(), HashMap::kMaxSlots);  // sizing cap, not 1
  EXPECT_EQ(huge.op_counters().bucket_clamp->Load(), 1u);
  EXPECT_EQ(small.op_counters().bucket_clamp->Load(), 0u);
  // And the degenerate pre-fix behavior — every key in one chain — stays
  // gone: distinct keys stay retrievable.
  ASSERT_TRUE(huge.UpdateU64(1, 10).ok());
  ASSERT_TRUE(huge.UpdateU64(2, 20).ok());
  EXPECT_EQ(huge.LookupU64(1).value(), 10u);
  EXPECT_EQ(huge.LookupU64(2).value(), 20u);
}

// Same clamp reporting on the retained chained oracle (2^20 buckets).
TEST(ChainedHashMap, BucketClampIsCounted) {
  ChainedHashMap huge(HashSpec(1u << 31));
  EXPECT_EQ(huge.bucket_count(), 1u << 20);
  EXPECT_EQ(huge.op_counters().bucket_clamp->Load(), 1u);
  ASSERT_TRUE(huge.UpdateU64(1, 10).ok());
  EXPECT_EQ(huge.LookupU64(1).value(), 10u);
}

TEST(HashMap, ConcurrentReadersDontBlockEachOther) {
  // Smoke for the shared_mutex read path: many threads hammering Lookup on
  // the same key while one thread updates values in place via atomics.
  HashMap map(HashSpec(16));
  ASSERT_TRUE(map.UpdateU64(7, 0).ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&map, &stop]() {
      uint32_t key = 7;
      while (!stop.load(std::memory_order_relaxed)) {
        void* v = map.Lookup(&key);
        ASSERT_NE(v, nullptr);
        (void)Map::AtomicLoad(v);
      }
    });
  }
  uint32_t key = 7;
  void* v = map.Lookup(&key);
  for (int i = 0; i < 10'000; ++i) {
    Map::AtomicFetchAdd(v, 1);
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(map.LookupU64(7).value(), 10'000u);
}

// --- ProgArrayMap --------------------------------------------------------------

TEST(ProgArray, EmptySlotsHoldNoProgram) {
  MapSpec spec;
  spec.type = MapType::kProgArray;
  spec.max_entries = 8;
  ProgArrayMap map(spec);
  EXPECT_EQ(map.ProgramAt(0), kNoProgram);
  EXPECT_EQ(map.ProgramAt(7), kNoProgram);
  EXPECT_EQ(map.ProgramAt(8), kNoProgram);  // out of range: miss, not crash
  EXPECT_EQ(map.Size(), 0u);
}

TEST(ProgArray, InstallAndClear) {
  MapSpec spec;
  spec.type = MapType::kProgArray;
  spec.max_entries = 8;
  ProgArrayMap map(spec);
  uint32_t key = 3;
  uint64_t prog = 42;
  EXPECT_TRUE(map.Update(&key, &prog, UpdateFlag::kAny).ok());
  EXPECT_EQ(map.ProgramAt(3), 42u);
  EXPECT_EQ(map.Size(), 1u);
  EXPECT_TRUE(map.Delete(&key).ok());
  EXPECT_EQ(map.ProgramAt(3), kNoProgram);
}

TEST(ProgArray, OutOfRangeUpdateFails) {
  MapSpec spec;
  spec.type = MapType::kProgArray;
  spec.max_entries = 4;
  ProgArrayMap map(spec);
  uint32_t key = 4;
  uint64_t prog = 1;
  EXPECT_FALSE(map.Update(&key, &prog, UpdateFlag::kAny).ok());
}

// --- typed helpers ---------------------------------------------------------------

TEST(MapTyped, LookupU64RejectsWrongShape) {
  HashMap map(HashSpec(4, /*key_size=*/8));
  EXPECT_EQ(map.LookupU64(1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(map.UpdateU64(1, 1).code(), StatusCode::kInvalidArgument);
}

TEST(MapTyped, LookupU64MissIsNotFound) {
  HashMap map(HashSpec(4));
  EXPECT_EQ(map.LookupU64(1).status().code(), StatusCode::kNotFound);
}

// --- Registry ---------------------------------------------------------------------

TEST(Registry, PinOpenUnpin) {
  MapRegistry registry;
  auto map = CreateMap(ArraySpec(4)).value();
  ASSERT_TRUE(registry.Pin("/syrup/app/m", map, /*owner=*/1000).ok());
  auto opened = registry.Open("/syrup/app/m", 1000);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().get(), map.get());
  EXPECT_TRUE(registry.Unpin("/syrup/app/m", 1000).ok());
  EXPECT_FALSE(registry.Open("/syrup/app/m", 1000).ok());
}

TEST(Registry, DuplicatePinRejected) {
  MapRegistry registry;
  auto map = CreateMap(ArraySpec(4)).value();
  ASSERT_TRUE(registry.Pin("/p", map, 1).ok());
  EXPECT_EQ(registry.Pin("/p", map, 1).code(), StatusCode::kAlreadyExists);
}

TEST(Registry, NonOwnerDeniedByDefault) {
  MapRegistry registry;
  auto map = CreateMap(ArraySpec(4)).value();
  ASSERT_TRUE(registry.Pin("/p", map, /*owner=*/1000).ok());
  EXPECT_EQ(registry.Open("/p", 2000).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(registry.Open("/p", 2000, MapAccess::kRead).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(Registry, WorldReadableAllowsReadOnly) {
  MapRegistry registry;
  auto map = CreateMap(ArraySpec(4)).value();
  PinMode mode;
  mode.world_readable = true;
  ASSERT_TRUE(registry.Pin("/p", map, 1000, mode).ok());
  EXPECT_TRUE(registry.Open("/p", 2000, MapAccess::kRead).ok());
  EXPECT_FALSE(registry.Open("/p", 2000, MapAccess::kWrite).ok());
}

TEST(Registry, WorldWritableAllowsAll) {
  MapRegistry registry;
  auto map = CreateMap(ArraySpec(4)).value();
  PinMode mode;
  mode.world_writable = true;
  ASSERT_TRUE(registry.Pin("/p", map, 1000, mode).ok());
  EXPECT_TRUE(registry.Open("/p", 2000, MapAccess::kWrite).ok());
}

TEST(Registry, OnlyOwnerUnpins) {
  MapRegistry registry;
  auto map = CreateMap(ArraySpec(4)).value();
  ASSERT_TRUE(registry.Pin("/p", map, 1000).ok());
  EXPECT_EQ(registry.Unpin("/p", 2000).code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(registry.Unpin("/p", 1000).ok());
}

TEST(Registry, MapSurvivesUnpinWhileHandleHeld) {
  MapRegistry registry;
  auto map = CreateMap(ArraySpec(4)).value();
  ASSERT_TRUE(registry.Pin("/p", map, 1000).ok());
  auto handle = registry.Open("/p", 1000).value();
  ASSERT_TRUE(registry.Unpin("/p", 1000).ok());
  EXPECT_TRUE(handle->UpdateU64(0, 9).ok());  // still alive
}

TEST(Registry, ListPaths) {
  MapRegistry registry;
  auto map = CreateMap(ArraySpec(4)).value();
  ASSERT_TRUE(registry.Pin("/b", map, 1).ok());
  ASSERT_TRUE(registry.Pin("/a", map, 1).ok());
  EXPECT_EQ(registry.ListPaths(), (std::vector<std::string>{"/a", "/b"}));
}

TEST(Registry, EmptyPathRejected) {
  MapRegistry registry;
  auto map = CreateMap(ArraySpec(4)).value();
  EXPECT_FALSE(registry.Pin("", map, 1).ok());
  EXPECT_FALSE(registry.Pin("/x", nullptr, 1).ok());
}


// --- OffloadMapProxy -------------------------------------------------------------

TEST(OffloadProxy, DelegatesOperations) {
  auto backing = CreateMap(HashSpec(8)).value();
  OffloadMapProxy proxy(backing, std::chrono::nanoseconds(0));
  EXPECT_TRUE(proxy.UpdateU64(1, 11).ok());
  EXPECT_EQ(proxy.LookupU64(1).value(), 11u);
  // Writes through the proxy are visible on the backing map and vice versa.
  EXPECT_EQ(backing->LookupU64(1).value(), 11u);
  EXPECT_TRUE(backing->UpdateU64(2, 22).ok());
  EXPECT_EQ(proxy.LookupU64(2).value(), 22u);
  uint32_t key = 1;
  EXPECT_TRUE(proxy.Delete(&key).ok());
  EXPECT_FALSE(backing->LookupU64(1).ok());
  EXPECT_EQ(proxy.Size(), 1u);
}

TEST(OffloadProxy, ChargesRoundTripLatency) {
  auto backing = CreateMap(HashSpec(8)).value();
  ASSERT_TRUE(backing->UpdateU64(1, 1).ok());
  constexpr auto kRtt = std::chrono::microseconds(50);
  OffloadMapProxy proxy(backing, kRtt);
  uint32_t key = 1;
  const auto start = std::chrono::steady_clock::now();
  proxy.Lookup(&key);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, kRtt);
}

TEST(OffloadProxy, SharesSpecWithBacking) {
  auto backing = CreateMap(HashSpec(8, 16, 32)).value();
  OffloadMapProxy proxy(backing, std::chrono::nanoseconds(0));
  EXPECT_EQ(proxy.spec().key_size, 16u);
  EXPECT_EQ(proxy.spec().value_size, 32u);
}


// --- Visit (iteration) -----------------------------------------------------------

TEST(MapVisit, ArrayMapVisitsEveryIndex) {
  ArrayMap map(ArraySpec(4));
  ASSERT_TRUE(map.UpdateU64(2, 22).ok());
  std::vector<std::pair<uint32_t, uint64_t>> seen;
  map.Visit([&](const void* key, void* value) {
    uint32_t k;
    std::memcpy(&k, key, sizeof(k));
    seen.push_back({k, Map::AtomicLoad(value)});
  });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[2].first, 2u);
  EXPECT_EQ(seen[2].second, 22u);
  EXPECT_EQ(seen[0].second, 0u);
}

TEST(MapVisit, HashMapVisitsLiveEntriesOnly) {
  HashMap map(HashSpec(32));
  for (uint32_t key : {3u, 7u, 9u}) {
    ASSERT_TRUE(map.UpdateU64(key, key * 10).ok());
  }
  uint32_t del = 7;
  ASSERT_TRUE(map.Delete(&del).ok());
  std::map<uint32_t, uint64_t> seen;
  map.Visit([&](const void* key, void* value) {
    uint32_t k;
    std::memcpy(&k, key, sizeof(k));
    seen[k] = Map::AtomicLoad(value);
  });
  EXPECT_EQ(seen, (std::map<uint32_t, uint64_t>{{3, 30}, {9, 90}}));
}

TEST(MapVisit, ProgArraySkipsEmptySlots) {
  MapSpec spec;
  spec.type = MapType::kProgArray;
  spec.max_entries = 8;
  ProgArrayMap map(spec);
  uint32_t key = 5;
  uint64_t prog = 42;
  ASSERT_TRUE(map.Update(&key, &prog, UpdateFlag::kAny).ok());
  int visited = 0;
  map.Visit([&](const void* k, void* v) {
    uint32_t index;
    std::memcpy(&index, k, sizeof(index));
    EXPECT_EQ(index, 5u);
    EXPECT_EQ(Map::AtomicLoad(v), 42u);
    ++visited;
  });
  EXPECT_EQ(visited, 1);
}

TEST(MapVisit, VisitCanMutateValuesInPlace) {
  ArrayMap map(ArraySpec(3));
  map.Visit([](const void*, void* value) { Map::AtomicStore(value, 5); });
  for (uint32_t key = 0; key < 3; ++key) {
    EXPECT_EQ(map.LookupU64(key).value(), 5u);
  }
}

// --- swiss-table vs chained differential -------------------------------------
// The retained ChainedHashMap is the oracle (the ReferenceSimulator
// pattern): a long randomized op stream — insert/overwrite/flagged
// update/delete/lookup — must produce byte-identical results on both
// implementations at every step, across key sizes, value sizes (inline
// and slab), and Visit/Size shapes.

// Deterministic xorshift so failures replay.
class DiffRng {
 public:
  explicit DiffRng(uint64_t seed) : state_(seed | 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

 private:
  uint64_t state_;
};

void RunDifferential(uint32_t key_size, uint32_t value_size, uint64_t seed) {
  SCOPED_TRACE("key_size=" + std::to_string(key_size) +
               " value_size=" + std::to_string(value_size) +
               " seed=" + std::to_string(seed));
  constexpr uint32_t kEntries = 128;
  constexpr int kOps = 4000;
  HashMap subject(HashSpec(kEntries, key_size, value_size));
  ChainedHashMap oracle(HashSpec(kEntries, key_size, value_size));
  DiffRng rng(seed);

  auto make_key = [&](uint64_t id, std::vector<uint8_t>* out) {
    out->assign(key_size, 0);
    for (uint32_t i = 0; i < key_size && i < 8; ++i) {
      (*out)[i] = static_cast<uint8_t>(id >> (8 * i));
    }
  };
  std::vector<uint8_t> key;
  std::vector<uint8_t> value(value_size);
  for (int op = 0; op < kOps; ++op) {
    // Key universe ~2x capacity so both hit and miss paths churn.
    make_key(rng.Next() % (2 * kEntries), &key);
    switch (rng.Next() % 4) {
      case 0:
      case 1: {  // update, cycling through the three flags
        for (uint32_t i = 0; i < value_size; ++i) {
          value[i] = static_cast<uint8_t>(rng.Next());
        }
        const auto flag = static_cast<UpdateFlag>(rng.Next() % 3);
        const Status a = subject.Update(key.data(), value.data(), flag);
        const Status b = oracle.Update(key.data(), value.data(), flag);
        ASSERT_EQ(a.ok(), b.ok()) << "op " << op << ": " << a.message()
                                  << " vs " << b.message();
        break;
      }
      case 2: {  // delete
        const Status a = subject.Delete(key.data());
        const Status b = oracle.Delete(key.data());
        ASSERT_EQ(a.ok(), b.ok()) << "op " << op;
        break;
      }
      default: {  // lookup: same presence, same bytes
        void* a = subject.Lookup(key.data());
        void* b = oracle.Lookup(key.data());
        ASSERT_EQ(a == nullptr, b == nullptr) << "op " << op;
        if (a != nullptr) {
          ASSERT_EQ(std::memcmp(a, b, value_size), 0) << "op " << op;
        }
      }
    }
    ASSERT_EQ(subject.Size(), oracle.Size()) << "op " << op;
  }

  // Full-table sweep: identical contents, and Visit sees exactly the
  // live entries with matching bytes.
  std::map<std::vector<uint8_t>, std::vector<uint8_t>> subject_entries;
  subject.Visit([&](const void* k, void* v) {
    std::vector<uint8_t> kk(static_cast<const uint8_t*>(k),
                            static_cast<const uint8_t*>(k) + key_size);
    std::vector<uint8_t> vv(static_cast<uint8_t*>(v),
                            static_cast<uint8_t*>(v) + value_size);
    ASSERT_TRUE(subject_entries.emplace(kk, vv).second);
  });
  std::map<std::vector<uint8_t>, std::vector<uint8_t>> oracle_entries;
  oracle.Visit([&](const void* k, void* v) {
    std::vector<uint8_t> kk(static_cast<const uint8_t*>(k),
                            static_cast<const uint8_t*>(k) + key_size);
    std::vector<uint8_t> vv(static_cast<uint8_t*>(v),
                            static_cast<uint8_t*>(v) + value_size);
    ASSERT_TRUE(oracle_entries.emplace(kk, vv).second);
  });
  EXPECT_EQ(subject_entries, oracle_entries);
}

TEST(HashMapDifferential, U32KeysU64Values) { RunDifferential(4, 8, 1); }
TEST(HashMapDifferential, U64KeysInlineStructValues) {
  RunDifferential(8, 16, 2);
}
TEST(HashMapDifferential, OddKeysSlabValues) { RunDifferential(13, 40, 3); }
TEST(HashMapDifferential, ManySeeds) {
  for (uint64_t seed = 10; seed < 14; ++seed) {
    RunDifferential(4, 8, seed);
    RunDifferential(8, 40, seed);
  }
}

// --- batched lookup ----------------------------------------------------------

TEST(HashMapBatch, MatchesSequentialLookups) {
  HashMap map(HashSpec(256));
  for (uint32_t k = 0; k < 200; k += 3) {
    ASSERT_TRUE(map.UpdateU64(k, uint64_t{k} * 7).ok());
  }
  uint32_t keys[Map::kMaxLookupBatch];
  void* batched[Map::kMaxLookupBatch];
  for (uint32_t i = 0; i < Map::kMaxLookupBatch; ++i) {
    keys[i] = i * 5;  // mix of present and absent keys
  }
  map.LookupBatch(Map::kMaxLookupBatch, keys, batched);
  for (uint32_t i = 0; i < Map::kMaxLookupBatch; ++i) {
    EXPECT_EQ(batched[i], map.Lookup(&keys[i])) << "key " << keys[i];
  }
}

TEST(HashMapBatch, U64FlavorCopiesValuesAndBitmap) {
  HashMap map(HashSpec(64));
  ASSERT_TRUE(map.UpdateU64(2, 22).ok());
  ASSERT_TRUE(map.UpdateU64(5, 55).ok());
  const uint32_t keys[4] = {2, 3, 5, 7};
  uint64_t out[4] = {99, 99, 99, 99};
  const uint64_t hits = map.LookupBatchU64(4, keys, out);
  EXPECT_EQ(hits, 0b101u);
  EXPECT_EQ(out[0], 22u);
  EXPECT_EQ(out[1], 0u);  // miss writes 0
  EXPECT_EQ(out[2], 55u);
  EXPECT_EQ(out[3], 0u);
}

TEST(HashMapBatch, CountersMatchSequentialAccounting) {
  HashMap map(HashSpec(64));
  ASSERT_TRUE(map.UpdateU64(1, 1).ok());
  const uint64_t lookups_before = map.op_counters().lookups->Load();
  const uint64_t misses_before = map.op_counters().misses->Load();
  const uint32_t keys[3] = {1, 2, 3};
  void* out[3];
  map.LookupBatch(3, keys, out);
  EXPECT_EQ(map.op_counters().lookups->Load() - lookups_before, 3u);
  EXPECT_EQ(map.op_counters().misses->Load() - misses_before, 2u);
}

// --- runtime gauges ----------------------------------------------------------

TEST(HashMapStats, RuntimeStatsTrackOccupancyAndTombstones) {
  HashMap map(HashSpec(64));
  for (uint32_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(map.UpdateU64(k, k).ok());
  }
  MapRuntimeStats stats = map.RuntimeStats();
  EXPECT_EQ(stats.occupancy, 10u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_GE(stats.max_probe_len, 1u);

  for (uint32_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(map.Delete(&k).ok());
  }
  stats = map.RuntimeStats();
  EXPECT_EQ(stats.occupancy, 6u);
  EXPECT_EQ(stats.tombstones, 4u);
}

}  // namespace
}  // namespace syrup
