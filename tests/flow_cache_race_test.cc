// Cache-invalidation race test (run under ASan and TSan in CI): dispatcher
// threads serving decisions through FlowDecisionCaches while an updater
// storms Map::Update must never serve a stale-map-version decision.
//
// Concurrency model mirrors production: each dispatcher owns its cache
// (syrupd keeps one per hook and the simulator serializes dispatch within
// a hook), while the map — values and version stamp — is shared by all
// threads. The invariant exercised is the one DESIGN.md's flow-cache
// section proves: Map bumps its version AFTER publishing the new value
// (release) and the dispatcher captures the version BEFORE executing the
// policy (acquire), so a cached decision can be fresher than its stamp but
// never staler. With a single writer publishing a monotone generation
// counter, that bound is directly checkable: a hit served at version sum S
// must carry a generation >= S - 1 (update k publishes generation k - 1,
// then bumps the version to k).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/core/flow_cache.h"
#include "src/map/map.h"
#include "src/net/packet.h"

namespace syrup {
namespace {

Packet MakePacket(uint32_t key_hash) {
  Packet pkt;
  pkt.tuple.src_port = 20'000;
  pkt.tuple.dst_port = 9'000;
  pkt.SetHeader(ReqType::kGet, 1, key_hash, 1, 0);
  return pkt;
}

// The "policy": decision = the generation currently stored in the map,
// read the way in-flight policies read hot map values (atomically through
// the stable value pointer).
Decision PolicyOf(Map& map) {
  uint32_t key = 0;
  return static_cast<Decision>(Map::AtomicLoad(map.Lookup(&key)));
}

TEST(FlowCacheRace, NoStaleDecisionUnderUpdateStorm) {
  MapSpec spec;
  spec.max_entries = 1;
  spec.name = "stormed";
  auto map = CreateMap(spec).value();
  ASSERT_TRUE(map->UpdateU64(0, 0).ok());  // generation 0, version 1

  FlowCacheBinding binding;
  binding.cacheable = true;
  binding.pkt_read_mask = 0xF00000u;  // key-hash bytes
  binding.read_maps = {map.get()};

  constexpr uint64_t kGenerations = 30'000;
  constexpr int kDispatchers = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<uint64_t> stale_evictions{0};
  std::atomic<uint64_t> hits{0};

  std::vector<std::thread> dispatchers;
  for (int t = 0; t < kDispatchers; ++t) {
    dispatchers.emplace_back([&] {
      // Per-dispatcher cache, as per-hook in syrupd. The map underneath
      // is shared and hot.
      FlowDecisionCache cache;
      cache.Allocate();
      ready.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint32_t flow = 0; flow < 8; ++flow) {
          const Packet pkt = MakePacket(flow);
          const PacketView view = PacketView::Of(pkt);
          const FlowDecisionCache::Key key =
              FlowDecisionCache::MakeKey(view, binding.pkt_read_mask);
          const uint64_t version_sum = binding.VersionSum();
          Decision d = 0;
          bool stale = false;
          if (cache.Lookup(key, /*epoch=*/1, version_sum, &d, &stale)) {
            // Version sum S certifies updates 1..S completed before the
            // entry's capture, i.e. generation S-1 was already published.
            // Serving anything older is the stale-decision bug.
            ASSERT_GE(static_cast<uint64_t>(d) + 1, version_sum)
                << "stale decision served: cached generation " << d
                << " under version sum " << version_sum;
            hits.fetch_add(1, std::memory_order_relaxed);
          } else {
            if (stale) {
              stale_evictions.fetch_add(1, std::memory_order_relaxed);
            }
            cache.Insert(key, PolicyOf(*map), /*epoch=*/1, version_sum);
          }
        }
      }
    });
  }

  // Single writer keeps the map value monotone (generation g is the g-th
  // update), which is what makes the staleness bound checkable above.
  // Wait until every dispatcher is spinning so the storm actually lands
  // on live caches, then keep storming — yielding periodically so the
  // dispatchers get to both cache a decision and catch it going stale —
  // until the contention provably happened (an entry was invalidated by
  // a version bump AND a hit was served in a quiet window).
  while (ready.load() < kDispatchers) {
    std::this_thread::yield();
  }
  uint64_t gen = 0;
  while (gen < kGenerations ||
         stale_evictions.load(std::memory_order_relaxed) == 0 ||
         hits.load(std::memory_order_relaxed) == 0) {
    ++gen;
    ASSERT_TRUE(map->UpdateU64(0, gen).ok());
    if ((gen & 0x3F) == 0) {
      std::this_thread::yield();
    }
    ASSERT_LT(gen, 100'000'000u) << "dispatchers never contended";
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : dispatchers) {
    t.join();
  }

  // The storm actually contended with the caches (the writer loop only
  // exits once both counters moved).
  EXPECT_GT(stale_evictions.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(map->version(), gen + 1);

  // Once quiet, the cache converges: insert-then-hit returns the final
  // generation under the final version sum.
  FlowDecisionCache cache;
  cache.Allocate();
  const Packet pkt = MakePacket(0);
  const auto key =
      FlowDecisionCache::MakeKey(PacketView::Of(pkt), binding.pkt_read_mask);
  const uint64_t final_sum = binding.VersionSum();
  cache.Insert(key, PolicyOf(*map), 1, final_sum);
  Decision d = 0;
  bool stale = false;
  ASSERT_TRUE(cache.Lookup(key, 1, final_sum, &d, &stale));
  EXPECT_EQ(d, gen);
}

// Version stamps alone (no cache): the sum over a binding's read set is
// monotone under concurrent updates — a captured sum can only go stale,
// never "un-stale", so an invalidation can never be missed.
TEST(FlowCacheRace, VersionSumIsMonotoneAcrossConcurrentUpdates) {
  MapSpec spec;
  spec.max_entries = 4;
  auto a = CreateMap(spec).value();
  auto b = CreateMap(spec).value();

  FlowCacheBinding binding;
  binding.cacheable = true;
  binding.read_maps = {a.get(), b.get()};

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < 50'000; ++i) {
      ASSERT_TRUE((i & 1 ? a : b)->UpdateU64(i & 3, i).ok());
    }
    stop.store(true);
  });

  uint64_t last = binding.VersionSum();
  while (!stop.load(std::memory_order_relaxed)) {
    const uint64_t now = binding.VersionSum();
    ASSERT_GE(now, last) << "version sum went backwards";
    last = now;
  }
  writer.join();
  EXPECT_EQ(binding.VersionSum(), 50'000u);
}

}  // namespace
}  // namespace syrup
