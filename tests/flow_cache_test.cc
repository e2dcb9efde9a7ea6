// Flow-decision cache tests: the verifier's purity/read-set facts, the
// cache table itself, and the syrupd dispatch integration (hits, misses,
// map-version invalidation, epoch flush on redeploy, transparency, the
// tier-priced gate, and lazily allocated tables).
#include <gtest/gtest.h>

#include <span>

#include "src/bpf/assembler.h"
#include "src/bpf/cost_model.h"
#include "src/bpf/jit.h"
#include "src/bpf/verifier.h"
#include "src/core/flow_cache.h"
#include "src/core/syrup_api.h"
#include "src/core/syrupd.h"
#include "src/net/stack.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

Packet MakePacket(uint16_t dst_port, uint32_t key_hash,
                  uint16_t src_port = 20'000) {
  Packet pkt;
  pkt.tuple.src_ip = 0x0a000001;
  pkt.tuple.dst_ip = 0x0a0000ff;
  pkt.tuple.src_port = src_port;
  pkt.tuple.dst_port = dst_port;
  pkt.SetHeader(ReqType::kGet, 1, key_hash, 1, 0);
  return pkt;
}

bpf::AnalysisFacts FactsFor(const std::string& source) {
  auto assembled = bpf::Assemble(source).value();
  bpf::Program prog;
  prog.name = assembled.name;
  prog.insns = assembled.insns;
  for (const bpf::MapSlot& slot : assembled.map_slots) {
    if (slot.is_extern) {
      MapSpec spec;  // externs resolve at deploy; a stand-in map is fine
      spec.max_entries = 16;
      prog.maps.push_back(CreateMap(spec).value());
    } else {
      prog.maps.push_back(CreateMap(slot.spec).value());
    }
  }
  bpf::AnalysisFacts facts;
  EXPECT_TRUE(
      bpf::Verify(prog, assembled.context, {}, nullptr, &facts).ok());
  return facts;
}

// --- verifier purity summary ------------------------------------------------

TEST(FlowCacheFacts, MicaHomeIsPureAndReadsKeyHashBytes) {
  const bpf::AnalysisFacts facts = FactsFor(MicaHomePolicyAsm(6));
  EXPECT_TRUE(facts.cacheable);
  // The program reads exactly the 4 key-hash bytes at offset 20.
  EXPECT_EQ(facts.pkt_read_mask, 0xF00000u);
  EXPECT_TRUE(facts.read_maps.empty());
}

TEST(FlowCacheFacts, HashPolicyReadsPortBytes) {
  const bpf::AnalysisFacts facts = FactsFor(HashPolicyAsm(6));
  EXPECT_TRUE(facts.cacheable);
  EXPECT_EQ(facts.pkt_read_mask, 0xFu);  // src/dst port bytes [0, 4)
  EXPECT_TRUE(facts.read_maps.empty());
}

TEST(FlowCacheFacts, VarHeaderVariableOffsetReadIsCacheable) {
  const bpf::AnalysisFacts facts = FactsFor(VarHeaderPolicyAsm(6));
  EXPECT_TRUE(facts.cacheable);
  // Byte 5 (the length) plus the whole provable span of the variable read.
  EXPECT_NE(facts.pkt_read_mask & (uint64_t{1} << 5), 0u);
  EXPECT_NE(facts.pkt_read_mask & (uint64_t{1} << 35), 0u);
}

TEST(FlowCacheFacts, LeastLoadedIsCacheableWithMapReadSet) {
  const bpf::AnalysisFacts facts =
      FactsFor(LeastLoadedPolicyAsm(4, "/syrup/t/load"));
  EXPECT_TRUE(facts.cacheable);
  ASSERT_EQ(facts.read_maps.size(), 1u);
  EXPECT_EQ(facts.read_maps[0], 0);
}

TEST(FlowCacheFacts, MapValueWriteIsUncacheable) {
  // Round robin stores the bumped index back through the value pointer.
  EXPECT_FALSE(FactsFor(RoundRobinPolicyAsm(6)).cacheable);
}

TEST(FlowCacheFacts, AtomicMapMutationIsUncacheable) {
  // Token consumes a token with xadddw on the map value.
  EXPECT_FALSE(FactsFor(TokenPolicyAsm()).cacheable);
}

TEST(FlowCacheFacts, RandomHelperIsUncacheable) {
  EXPECT_FALSE(
      FactsFor(PowerOfTwoPolicyAsm(4, "/syrup/t/load")).cacheable);
}

TEST(FlowCacheFacts, ThreadContextIsUncacheable) {
  // Thread classifiers have no packet to key on.
  EXPECT_FALSE(
      FactsFor(GetPriorityThreadPolicyAsm("/syrup/t/types")).cacheable);
}

TEST(FlowCacheFacts, ScanAvoidRandomProbeIsUncacheable) {
  // scan_avoid probes random sockets via get_prandom_u32; two identical
  // packets legitimately get different decisions.
  EXPECT_FALSE(FactsFor(ScanAvoidPolicyAsm(6)).cacheable);
}

// --- the table itself -------------------------------------------------------

TEST(FlowDecisionCache, KeyIncludesPortLengthAndMaskedBytes) {
  const Packet pkt = MakePacket(9000, 0xdeadbeef);
  const PacketView view = PacketView::Of(pkt);
  const FlowDecisionCache::Key key =
      FlowDecisionCache::MakeKey(view, 0xF00000u);
  EXPECT_EQ(key.len, 4u + 4u);  // port + length + 4 masked bytes
  uint16_t port;
  std::memcpy(&port, key.bytes, sizeof(port));
  EXPECT_EQ(port, 9000);
  uint32_t key_hash;
  std::memcpy(&key_hash, key.bytes + 4, sizeof(key_hash));
  EXPECT_EQ(key_hash, 0xdeadbeefu);
}

TEST(FlowDecisionCache, MaskedBytesBeyondPacketEndAreAbsent) {
  const Packet pkt = MakePacket(9000, 7);
  PacketView view = PacketView::Of(pkt);
  view.end = view.start + 10;  // short packet
  const FlowDecisionCache::Key key =
      FlowDecisionCache::MakeKey(view, 0xF00000u);  // bytes 20-23: past end
  EXPECT_EQ(key.len, 4u);  // port + length only
}

TEST(FlowDecisionCache, HitRequiresExactKeyEpochAndVersion) {
  FlowDecisionCache cache;
  cache.Allocate();
  const Packet pkt = MakePacket(9000, 42);
  const FlowDecisionCache::Key key =
      FlowDecisionCache::MakeKey(PacketView::Of(pkt), 0xF00000u);
  cache.Insert(key, Decision{3}, /*epoch=*/1, /*version_sum=*/10);

  Decision d = 0;
  bool stale = false;
  EXPECT_TRUE(cache.Lookup(key, 1, 10, &d, &stale));
  EXPECT_EQ(d, 3u);

  // A read-set map changed: stale, entry self-invalidates.
  EXPECT_FALSE(cache.Lookup(key, 1, 11, &d, &stale));
  EXPECT_TRUE(stale);
  // And it stays gone (no longer even a stale match).
  EXPECT_FALSE(cache.Lookup(key, 1, 10, &d, &stale));
  EXPECT_FALSE(stale);

  // Epoch flush behaves the same way.
  cache.Insert(key, Decision{4}, /*epoch=*/1, /*version_sum=*/10);
  EXPECT_FALSE(cache.Lookup(key, 2, 10, &d, &stale));
  EXPECT_TRUE(stale);
}

TEST(FlowDecisionCache, DistinctFlowsDoNotFalselyHit) {
  FlowDecisionCache cache;
  cache.Allocate();
  for (uint32_t flow = 0; flow < 512; ++flow) {
    const Packet pkt = MakePacket(9000, flow);
    const auto key =
        FlowDecisionCache::MakeKey(PacketView::Of(pkt), 0xF00000u);
    cache.Insert(key, Decision{flow % 6}, 1, 0);
  }
  // Whatever eviction happened, a surviving entry must carry its own
  // flow's decision, never a colliding flow's.
  size_t hits = 0;
  for (uint32_t flow = 0; flow < 512; ++flow) {
    const Packet pkt = MakePacket(9000, flow);
    const auto key =
        FlowDecisionCache::MakeKey(PacketView::Of(pkt), 0xF00000u);
    Decision d = 0;
    bool stale = false;
    if (cache.Lookup(key, 1, 0, &d, &stale)) {
      EXPECT_EQ(d, flow % 6) << "false hit for flow " << flow;
      ++hits;
    }
  }
  EXPECT_GT(hits, 400u);  // 512 flows in 4096 slots: most survive
}

TEST(FlowDecisionCache, ClearDropsEverything) {
  FlowDecisionCache cache;
  cache.Allocate();
  const Packet pkt = MakePacket(9000, 1);
  const auto key =
      FlowDecisionCache::MakeKey(PacketView::Of(pkt), 0xF00000u);
  cache.Insert(key, Decision{2}, 1, 0);
  EXPECT_EQ(cache.OccupiedSlots(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.OccupiedSlots(), 0u);
  Decision d = 0;
  bool stale = false;
  EXPECT_FALSE(cache.Lookup(key, 1, 0, &d, &stale));
}

// --- frequency sketch -------------------------------------------------------

TEST(FrequencySketch, DoorkeeperAbsorbsFirstTouch) {
  FrequencySketch sketch;
  sketch.Resize(1024);
  EXPECT_EQ(sketch.Estimate(42), 0u);
  sketch.Touch(42);
  // One occurrence: only the doorkeeper bit, the counters stay clean.
  EXPECT_EQ(sketch.Estimate(42), 1u);
  sketch.Touch(42);
  EXPECT_EQ(sketch.Estimate(42), 2u);
}

TEST(FrequencySketch, EstimateTracksRepeatedTouches) {
  FrequencySketch sketch;
  sketch.Resize(4096);
  for (int i = 0; i < 10; ++i) {
    sketch.Touch(7);
  }
  // 1 doorkeeper absorption + 9 counter bumps.
  EXPECT_EQ(sketch.Estimate(7), 10u);
  // An untouched key reads ~0 (counter collisions can add at most noise,
  // and with 10 touches in 4096 counters there is none).
  EXPECT_LE(sketch.Estimate(123456789), 1u);
}

TEST(FrequencySketch, SaturatesAtMaxEstimate) {
  FrequencySketch sketch;
  sketch.Resize(1024);
  for (int i = 0; i < 100; ++i) {
    sketch.Touch(7);
  }
  EXPECT_EQ(sketch.Estimate(7), FrequencySketch::kMaxEstimate + 1);
}

TEST(FrequencySketch, AgingHalvesCountersAndClearsDoorkeeper) {
  FrequencySketch sketch;
  sketch.Resize(64);  // sample budget: 8 * 64 = 512
  for (int i = 0; i < 12; ++i) {
    sketch.Touch(99);
  }
  const uint32_t before = sketch.Estimate(99);
  ASSERT_GE(before, 10u);
  while (sketch.agings() == 0) {
    sketch.Touch(1234567);
  }
  // Counters halved, doorkeeper cleared: recent frequency, not all-time.
  EXPECT_LT(sketch.Estimate(99), before);
  EXPECT_LE(sketch.Estimate(99), before / 2);
}

// --- admission, eviction, and adaptive sizing -------------------------------

FlowDecisionCache::Key KeyFor(uint32_t flow) {
  const Packet pkt = MakePacket(9000, flow);
  return FlowDecisionCache::MakeKey(PacketView::Of(pkt), 0xF00000u);
}

TEST(FlowCacheAdmission, HotFlowsSurviveOneShotStorm) {
  FlowCacheConfig config;
  config.capacity = FlowDecisionCache::kMinSlots;  // 16 slots
  config.admission = true;
  config.adaptive = false;
  FlowDecisionCache cache(config);
  cache.Allocate();
  FlowCacheCounters counters = FlowCacheCounters::Detached();
  cache.BindCounters(counters);

  // Build frequency for 8 resident flows: every re-insert is an access
  // the sketch records.
  for (int round = 0; round < 10; ++round) {
    for (uint32_t flow = 0; flow < 8; ++flow) {
      cache.Insert(KeyFor(flow), Decision{flow}, 1, 0);
    }
  }
  // A one-shot storm: 64 flows seen exactly once each. Their estimate (1,
  // the doorkeeper bit) never out-counts a resident, so residents stay.
  for (uint32_t flow = 1000; flow < 1064; ++flow) {
    cache.Insert(KeyFor(flow), Decision{flow}, 1, 0);
  }
  EXPECT_GT(counters.admission_rejects->value, 0u);
  for (uint32_t flow = 0; flow < 8; ++flow) {
    Decision d = 0;
    bool stale = false;
    EXPECT_TRUE(cache.Lookup(KeyFor(flow), 1, 0, &d, &stale))
        << "hot flow " << flow << " evicted by a one-shot storm";
    EXPECT_EQ(d, flow);
  }
}

TEST(FlowCacheAdmission, DisabledAdmissionLetsTheStormEvict) {
  FlowCacheConfig config;
  config.capacity = FlowDecisionCache::kMinSlots;
  config.admission = false;
  config.adaptive = false;
  FlowDecisionCache cache(config);
  cache.Allocate();
  FlowCacheCounters counters = FlowCacheCounters::Detached();
  cache.BindCounters(counters);

  for (int round = 0; round < 10; ++round) {
    for (uint32_t flow = 0; flow < 8; ++flow) {
      cache.Insert(KeyFor(flow), Decision{flow}, 1, 0);
    }
  }
  for (uint32_t flow = 1000; flow < 1064; ++flow) {
    cache.Insert(KeyFor(flow), Decision{flow}, 1, 0);
  }
  // Without the filter every full-window insert evicts a resident.
  EXPECT_GT(counters.evictions->value, 0u);
  EXPECT_EQ(counters.admission_rejects->value, 0u);
  size_t survivors = 0;
  for (uint32_t flow = 0; flow < 8; ++flow) {
    Decision d = 0;
    bool stale = false;
    if (cache.Lookup(KeyFor(flow), 1, 0, &d, &stale)) {
      ++survivors;
    }
  }
  EXPECT_LT(survivors, 8u);
}

TEST(FlowCacheAdmission, StaleEpochResidentsAreFreeRealEstate) {
  FlowCacheConfig config;
  config.capacity = FlowDecisionCache::kMinSlots;
  config.admission = true;
  config.adaptive = false;
  FlowDecisionCache cache(config);
  cache.Allocate();
  // Fill the table under epoch 1 with well-known flows.
  for (int round = 0; round < 5; ++round) {
    for (uint32_t flow = 0; flow < 16; ++flow) {
      cache.Insert(KeyFor(flow), Decision{flow}, 1, 0);
    }
  }
  // Epoch 2 newcomers (estimate 1) must displace epoch-1 residents no
  // matter how hot those were: a stale entry can never hit again.
  for (uint32_t flow = 100; flow < 116; ++flow) {
    cache.Insert(KeyFor(flow), Decision{flow}, 2, 0);
  }
  size_t resident = 0;
  for (uint32_t flow = 100; flow < 116; ++flow) {
    Decision d = 0;
    bool stale = false;
    if (cache.Lookup(KeyFor(flow), 2, 0, &d, &stale)) {
      ++resident;
    }
  }
  EXPECT_GT(resident, 0u);
}

TEST(FlowCacheAdaptive, GrowsToTheLiveFlowPopulation) {
  FlowCacheConfig config;
  config.capacity = FlowDecisionCache::kMinSlots;
  config.admission = true;
  config.adaptive = true;
  FlowDecisionCache cache(config);
  cache.Allocate();
  FlowCacheCounters counters = FlowCacheCounters::Detached();
  cache.BindCounters(counters);
  ASSERT_EQ(cache.capacity(), FlowDecisionCache::kMinSlots);

  constexpr uint32_t kFlows = 256;
  for (int pass = 0; pass < 20; ++pass) {
    for (uint32_t flow = 0; flow < kFlows; ++flow) {
      Decision d = 0;
      bool stale = false;
      if (!cache.Lookup(KeyFor(flow), 1, 0, &d, &stale)) {
        cache.Insert(KeyFor(flow), Decision{flow % 6}, 1, 0);
      }
    }
  }
  EXPECT_GT(counters.resizes->value, 0u);
  EXPECT_GE(cache.capacity(), 2 * static_cast<size_t>(kFlows));
  EXPECT_EQ(counters.capacity->value,
            static_cast<int64_t>(cache.capacity()));
  // Steady state: the grown table holds (nearly) the whole population.
  size_t hits = 0;
  for (uint32_t flow = 0; flow < kFlows; ++flow) {
    Decision d = 0;
    bool stale = false;
    if (cache.Lookup(KeyFor(flow), 1, 0, &d, &stale)) {
      ++hits;
    }
  }
  EXPECT_GT(hits, kFlows * 9 / 10);
}

TEST(FlowCacheAdaptive, ShrinksWhenThePopulationCollapses) {
  FlowCacheConfig config;
  config.capacity = 4096;
  config.adaptive = true;
  FlowDecisionCache cache(config);
  cache.Allocate();
  FlowCacheCounters counters = FlowCacheCounters::Detached();
  cache.BindCounters(counters);
  cache.Insert(KeyFor(1), Decision{3}, 1, 0);

  // One live flow, many windows of lookups: the table is >4x oversized and
  // must give memory back (but never below the shrink floor).
  for (int i = 0; i < 20'000; ++i) {
    Decision d = 0;
    bool stale = false;
    if (!cache.Lookup(KeyFor(1), 1, 0, &d, &stale)) {
      cache.Insert(KeyFor(1), Decision{3}, 1, 0);
    }
  }
  EXPECT_LT(cache.capacity(), 4096u);
  EXPECT_GE(cache.capacity(), FlowDecisionCache::kShrinkFloor);
  EXPECT_GT(counters.resizes->value, 0u);
  // The live entry survived the shrink's live-first rehash.
  Decision d = 0;
  bool stale = false;
  EXPECT_TRUE(cache.Lookup(KeyFor(1), 1, 0, &d, &stale));
  EXPECT_EQ(d, 3u);
}

TEST(FlowCacheAdaptive, FixedSizeWhenDisabled) {
  FlowCacheConfig config;
  config.capacity = FlowDecisionCache::kMinSlots;
  config.adaptive = false;
  FlowDecisionCache cache(config);
  cache.Allocate();
  for (int pass = 0; pass < 10; ++pass) {
    for (uint32_t flow = 0; flow < 512; ++flow) {
      Decision d = 0;
      bool stale = false;
      if (!cache.Lookup(KeyFor(flow), 1, 0, &d, &stale)) {
        cache.Insert(KeyFor(flow), Decision{flow % 6}, 1, 0);
      }
    }
  }
  EXPECT_EQ(cache.capacity(), FlowDecisionCache::kMinSlots);
}

TEST(FlowCacheConfig_, ConfigureRoundsAndResets) {
  FlowCacheConfig config;
  config.capacity = 100;
  FlowDecisionCache cache(config);
  EXPECT_FALSE(cache.allocated());  // no table until asked for one
  EXPECT_EQ(cache.capacity(), 0u);
  cache.Allocate();
  EXPECT_EQ(cache.capacity(), 128u);  // rounded to a power of two
  cache.Insert(KeyFor(1), Decision{2}, 1, 0);
  EXPECT_EQ(cache.OccupiedSlots(), 1u);
  cache.Allocate();  // idempotent: the live table survives
  EXPECT_EQ(cache.OccupiedSlots(), 1u);
  config.capacity = 64;
  cache.Configure(config);
  EXPECT_FALSE(cache.allocated());  // reconfigure releases the table
  EXPECT_EQ(cache.OccupiedSlots(), 0u);
  cache.Allocate();
  EXPECT_EQ(cache.capacity(), 64u);
  EXPECT_EQ(cache.OccupiedSlots(), 0u);  // reconfigure dropped the entries
}

// --- syrupd dispatch integration --------------------------------------------

class FlowCacheDispatchTest : public testing::Test {
 protected:
  FlowCacheDispatchTest() : stack_(sim_, StackConfig{}),
                            syrupd_(sim_, &stack_) {}

  uint64_t CacheCounter(std::string_view name) {
    return syrupd_.StatsSnapshot().CounterValue(
        "syrupd", "socket_select", std::string("flow_cache.") + name.data());
  }

  // The hook's table size summed over every dispatch shard's lane.
  int64_t Capacity(Hook hook) {
    return syrupd_.StatsSnapshot().GaugeValue("syrupd", HookName(hook),
                                              "flow_cache.capacity");
  }

  int64_t Cacheable(std::string_view app) {
    return syrupd_.StatsSnapshot().GaugeValue(app, "socket_select",
                                              "policy.cacheable");
  }

  Simulator sim_;
  HostStack stack_;
  Syrupd syrupd_;
};

TEST_F(FlowCacheDispatchTest, RepeatFlowServedFromCache) {
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  const Packet pkt = MakePacket(9000, 123);
  const PacketView view = PacketView::Of(pkt);
  const Decision first = stack_.hooks().socket_select(view);
  const Decision second = stack_.hooks().socket_select(view);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, 123u % 6u);
  EXPECT_EQ(CacheCounter("misses"), 1u);
  EXPECT_EQ(CacheCounter("hits"), 1u);
  // The policy itself only ran once: the second decision skipped the VM.
  EXPECT_EQ(syrupd_.StatsSnapshot().CounterValue("a", "socket_select",
                                                 "policy.invocations"),
            1u);
  // Dispatch accounting stays consistent regardless of the serving tier.
  EXPECT_EQ(syrupd_.dispatch_stats(Hook::kSocketSelect).dispatched, 2u);
}

TEST_F(FlowCacheDispatchTest, DistinctFlowsEachMissThenHit) {
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  for (uint32_t flow = 0; flow < 32; ++flow) {
    const Packet pkt = MakePacket(9000, flow);
    EXPECT_EQ(stack_.hooks().socket_select(PacketView::Of(pkt)), flow % 6);
  }
  EXPECT_EQ(CacheCounter("misses"), 32u);
  for (uint32_t flow = 0; flow < 32; ++flow) {
    const Packet pkt = MakePacket(9000, flow);
    EXPECT_EQ(stack_.hooks().socket_select(PacketView::Of(pkt)), flow % 6);
  }
  EXPECT_EQ(CacheCounter("hits"), 32u);
}

TEST_F(FlowCacheDispatchTest, MapUpdateInvalidatesCachedDecision) {
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  // Seed the load map before deploying: index 1 is least loaded.
  MapSpec spec;
  spec.max_entries = 2;
  spec.name = "load";
  MapHandle load = client.MapCreate(spec, "/syrup/a/load").value();
  ASSERT_TRUE(load.Update(0, 10).ok());
  ASSERT_TRUE(load.Update(1, 5).ok());
  ASSERT_TRUE(
      syrupd_
          .DeployPolicyFile(app, LeastLoadedPolicyAsm(2, "/syrup/a/load"),
                            Hook::kSocketSelect)
          .ok());

  const Packet pkt = MakePacket(9000, 7);
  const PacketView view = PacketView::Of(pkt);
  EXPECT_EQ(stack_.hooks().socket_select(view), 1u);  // miss, cached
  EXPECT_EQ(stack_.hooks().socket_select(view), 1u);  // hit
  EXPECT_EQ(CacheCounter("hits"), 1u);

  // Shift the load: index 0 becomes least loaded. The version stamp makes
  // the cached decision self-invalidate; the re-executed policy sees the
  // new map contents.
  ASSERT_TRUE(load.Update(1, 50).ok());
  EXPECT_EQ(stack_.hooks().socket_select(view), 0u);
  EXPECT_EQ(CacheCounter("invalidations"), 1u);
  EXPECT_EQ(stack_.hooks().socket_select(view), 0u);  // cached again
  EXPECT_EQ(CacheCounter("hits"), 2u);
}

TEST_F(FlowCacheDispatchTest, RedeployFlushesViaEpoch) {
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  const uint64_t epoch0 = syrupd_.hook_epoch(Hook::kSocketSelect);
  const Packet pkt = MakePacket(9000, 9);
  const PacketView view = PacketView::Of(pkt);
  EXPECT_EQ(stack_.hooks().socket_select(view), 3u);  // 9 % 6
  EXPECT_EQ(stack_.hooks().socket_select(view), 3u);
  EXPECT_EQ(CacheCounter("hits"), 1u);

  // Redeploy with a different executor count: stale decisions from the
  // old program must not survive.
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(2),
                                       Hook::kSocketSelect)
                  .ok());
  EXPECT_GT(syrupd_.hook_epoch(Hook::kSocketSelect), epoch0);
  EXPECT_EQ(stack_.hooks().socket_select(view), 1u);  // 9 % 2, re-executed
  EXPECT_EQ(CacheCounter("hits"), 1u);  // no new hit for the old entry
}

TEST_F(FlowCacheDispatchTest, UncacheablePolicyFallsBackTransparently) {
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, RoundRobinPolicyAsm(4),
                                       Hook::kSocketSelect)
                  .ok());
  const Packet pkt = MakePacket(9000, 1);
  const PacketView view = PacketView::Of(pkt);
  // Round robin must advance on every dispatch — memoizing it would break
  // its semantics, which is exactly why the verifier rejects caching it.
  EXPECT_EQ(stack_.hooks().socket_select(view), 1u);
  EXPECT_EQ(stack_.hooks().socket_select(view), 2u);
  EXPECT_EQ(stack_.hooks().socket_select(view), 3u);
  EXPECT_EQ(CacheCounter("uncacheable"), 3u);
  EXPECT_EQ(CacheCounter("hits"), 0u);
  EXPECT_EQ(CacheCounter("misses"), 0u);
}

TEST_F(FlowCacheDispatchTest, NativePoliciesAreNeverCached) {
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_
                  .DeployNativePolicy(app, std::make_shared<MicaHomePolicy>(6),
                                      Hook::kSocketSelect)
                  .ok());
  const Packet pkt = MakePacket(9000, 5);
  const PacketView view = PacketView::Of(pkt);
  EXPECT_EQ(stack_.hooks().socket_select(view), 5u);
  EXPECT_EQ(stack_.hooks().socket_select(view), 5u);
  EXPECT_EQ(CacheCounter("uncacheable"), 2u);
  EXPECT_EQ(CacheCounter("hits"), 0u);
}

TEST_F(FlowCacheDispatchTest, DisabledCacheExecutesEveryPacket) {
  FlowCacheConfig config;
  config.enabled = false;
  syrupd_.set_flow_cache_config(config);
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  const Packet pkt = MakePacket(9000, 123);
  const PacketView view = PacketView::Of(pkt);
  EXPECT_EQ(stack_.hooks().socket_select(view), 3u);
  EXPECT_EQ(stack_.hooks().socket_select(view), 3u);
  EXPECT_EQ(CacheCounter("hits"), 0u);
  EXPECT_EQ(CacheCounter("misses"), 0u);
  EXPECT_EQ(CacheCounter("uncacheable"), 0u);
  EXPECT_EQ(syrupd_.StatsSnapshot().CounterValue("a", "socket_select",
                                                 "policy.invocations"),
            2u);
  // A disabled cache allocates nothing, cacheable deployment or not.
  EXPECT_EQ(Capacity(Hook::kSocketSelect), 0);
}

TEST_F(FlowCacheDispatchTest, ShortPacketKeyedByLength) {
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  Packet pkt = MakePacket(9000, 123);
  const PacketView full = PacketView::Of(pkt);
  PacketView truncated = full;
  truncated.end = truncated.start + 20;  // fails the program's bounds check

  EXPECT_EQ(stack_.hooks().socket_select(full), 3u);
  // Same masked bytes would be absent; the length in the key separates
  // the two flows, so the short packet gets its own (PASS) decision.
  EXPECT_EQ(stack_.hooks().socket_select(truncated), kPass);
  EXPECT_EQ(stack_.hooks().socket_select(truncated), kPass);
  EXPECT_EQ(stack_.hooks().socket_select(full), 3u);
  EXPECT_EQ(CacheCounter("misses"), 2u);
  EXPECT_EQ(CacheCounter("hits"), 2u);
}

TEST_F(FlowCacheDispatchTest, EvictionAndResizeCountersReachSnapshot) {
  FlowCacheConfig config;
  config.capacity = FlowDecisionCache::kMinSlots;
  config.admission = false;
  config.adaptive = true;
  syrupd_.set_flow_cache_config(config);
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  // Push far more flows than the 16-slot table holds, repeatedly: the
  // overflow shows up as evictions, and the adaptive sweep grows the table
  // (both under {"syrupd","socket_select"} in the snapshot).
  for (int pass = 0; pass < 10; ++pass) {
    for (uint32_t flow = 0; flow < 256; ++flow) {
      const Packet pkt = MakePacket(9000, flow);
      (void)stack_.hooks().socket_select(PacketView::Of(pkt));
    }
  }
  EXPECT_GT(CacheCounter("evictions"), 0u);
  EXPECT_GT(CacheCounter("resizes"), 0u);
  const int64_t capacity = syrupd_.StatsSnapshot().GaugeValue(
      "syrupd", "socket_select", "flow_cache.capacity");
  EXPECT_GT(capacity, static_cast<int64_t>(FlowDecisionCache::kMinSlots));
}

TEST_F(FlowCacheDispatchTest, AdmissionRejectCounterReachesSnapshot) {
  FlowCacheConfig config;
  config.capacity = FlowDecisionCache::kMinSlots;
  config.admission = true;
  config.adaptive = false;  // keep the table tiny so admission must act
  syrupd_.set_flow_cache_config(config);
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  // Residents gain frequency, then a one-shot storm of fresh flows hits a
  // full table: the storm is turned away at admission.
  for (int round = 0; round < 10; ++round) {
    for (uint32_t flow = 0; flow < 32; ++flow) {
      const Packet pkt = MakePacket(9000, flow);
      (void)stack_.hooks().socket_select(PacketView::Of(pkt));
    }
  }
  for (uint32_t flow = 1000; flow < 1256; ++flow) {
    const Packet pkt = MakePacket(9000, flow);
    (void)stack_.hooks().socket_select(PacketView::Of(pkt));
  }
  EXPECT_GT(CacheCounter("admission_rejects"), 0u);
}

// --- tier-priced cacheability -----------------------------------------------

TEST(FlowCacheGate, PricedWorstCaseMustExceedTheProbe) {
  // mica_home is pure at every tier; only the price decides. The default
  // model puts it above the probe on the compiled tier and below it on the
  // native tier.
  const bpf::CostFacts cost = FactsFor(MicaHomePolicyAsm(6)).cost;
  const double probe = bpf::DefaultCostModel().flow_cache_probe_ns;
  ASSERT_TRUE(cost.bounded);
  EXPECT_GT(cost.wcet_ns[static_cast<size_t>(bpf::ExecMode::kCompiled)],
            probe);
  EXPECT_LE(cost.wcet_ns[static_cast<size_t>(bpf::ExecMode::kNative)], probe);
  EXPECT_TRUE(bpf::FlowCachePays(cost, bpf::ExecMode::kInterpret));
  EXPECT_TRUE(bpf::FlowCachePays(cost, bpf::ExecMode::kCompiled));
  EXPECT_FALSE(bpf::FlowCachePays(cost, bpf::ExecMode::kNative));
  // The map-consulting builtins pay even as machine code.
  EXPECT_TRUE(bpf::FlowCachePays(
      FactsFor(LeastLoadedPolicyAsm(6, "/syrup/t/load")).cost,
      bpf::ExecMode::kNative));
  // No bound, no cache.
  EXPECT_FALSE(bpf::FlowCachePays(bpf::CostFacts{}, bpf::ExecMode::kInterpret));
}

TEST_F(FlowCacheDispatchTest, NativeTierMicaHomeIsNotCached) {
  if (!bpf::JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable: native deployments run compiled";
  }
  syrupd_.set_exec_mode(bpf::ExecMode::kNative);
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  EXPECT_EQ(Cacheable("a"), 0);
  const Packet pkt = MakePacket(9000, 123);
  const PacketView view = PacketView::Of(pkt);
  EXPECT_EQ(stack_.hooks().socket_select(view), 3u);
  EXPECT_EQ(stack_.hooks().socket_select(view), 3u);
  EXPECT_EQ(CacheCounter("hits"), 0u);
  EXPECT_EQ(CacheCounter("misses"), 0u);
  EXPECT_EQ(CacheCounter("uncacheable"), 2u);
  EXPECT_EQ(Capacity(Hook::kSocketSelect), 0);
  EXPECT_EQ(syrupd_.StatsSnapshot().CounterValue("a", "socket_select",
                                                 "policy.invocations"),
            2u);
}

TEST_F(FlowCacheDispatchTest, CompiledTierMicaHomeIsCached) {
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  EXPECT_EQ(Cacheable("a"), 1);
  EXPECT_EQ(Capacity(Hook::kSocketSelect), 4096);
}

// --- tables allocated on first cacheable attach -----------------------------

TEST_F(FlowCacheDispatchTest, NoTableBeforeCacheableAttach) {
  for (size_t i = 0; i < kNumHooks; ++i) {
    EXPECT_EQ(Capacity(HookFromIndex(i)), 0) << HookName(HookFromIndex(i));
  }
  // An uncacheable deployment never needs a table.
  const AppId rr = syrupd_.RegisterApp("rr", 1000, 9000).value();
  ASSERT_TRUE(syrupd_.DeployPolicyFile(rr, RoundRobinPolicyAsm(4),
                                       Hook::kSocketSelect)
                  .ok());
  EXPECT_EQ(Capacity(Hook::kSocketSelect), 0);
  // A cacheable one allocates its own hook only.
  const AppId mica = syrupd_.RegisterApp("mica", 1000, 9100).value();
  ASSERT_TRUE(
      syrupd_.DeployPolicyFile(mica, MicaHomePolicyAsm(6), Hook::kXdpSkb)
          .ok());
  EXPECT_EQ(Capacity(Hook::kXdpSkb), 4096);
  EXPECT_EQ(Capacity(Hook::kSocketSelect), 0);
  EXPECT_EQ(Capacity(Hook::kXdpDrv), 0);
}

TEST_F(FlowCacheDispatchTest, CacheableAttachAfterShardingAllocatesEveryLane) {
  syrupd_.ConfigureSharding(4);
  EXPECT_EQ(Capacity(Hook::kXdpSkb), 0);
  const AppId app = syrupd_.RegisterApp("mica", 1000, 9100).value();
  ASSERT_TRUE(
      syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6), Hook::kXdpSkb)
          .ok());
  EXPECT_EQ(Capacity(Hook::kXdpSkb), 4 * 4096);
  // Every lane serves from its own, now allocated, table.
  const Packet pkt = MakePacket(9100, 7);
  const PacketView view = PacketView::Of(pkt);
  for (int shard = 0; shard < 4; ++shard) {
    Decision d = kPass;
    syrupd_.DispatchBatch(Hook::kXdpSkb, std::span<const PacketView>(&view, 1),
                          std::span<Decision>(&d, 1), shard);
    EXPECT_EQ(d, 1u) << "shard " << shard;
  }
}

TEST_F(FlowCacheDispatchTest, ReconfigureAfterCacheableAttachKeepsTables) {
  const AppId app = syrupd_.RegisterApp("mica", 1000, 9100).value();
  ASSERT_TRUE(
      syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6), Hook::kXdpSkb)
          .ok());
  EXPECT_EQ(Capacity(Hook::kXdpSkb), 4096);
  syrupd_.ConfigureSharding(4);
  EXPECT_EQ(Capacity(Hook::kXdpSkb), 4 * 4096);
  FlowCacheConfig config;
  config.capacity = 1024;
  syrupd_.set_flow_cache_config(config);
  EXPECT_EQ(Capacity(Hook::kXdpSkb), 4 * 1024);
  // Disabling releases the tables; re-enabling rebuilds them.
  config.enabled = false;
  syrupd_.set_flow_cache_config(config);
  EXPECT_EQ(Capacity(Hook::kXdpSkb), 0);
  config.enabled = true;
  syrupd_.set_flow_cache_config(config);
  EXPECT_EQ(Capacity(Hook::kXdpSkb), 4 * 1024);
  EXPECT_EQ(Capacity(Hook::kSocketSelect), 0);
}

TEST_F(FlowCacheDispatchTest, ClientConfiguresTheDaemonCache) {
  const AppId app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  FlowCacheConfig config;
  config.enabled = false;
  config.capacity = 2048;
  client.SetFlowCacheConfig(config);
  EXPECT_FALSE(client.FlowCacheConfiguration().enabled);
  EXPECT_EQ(client.FlowCacheConfiguration().capacity, 2048u);
  ASSERT_TRUE(syrupd_.DeployPolicyFile(app, MicaHomePolicyAsm(6),
                                       Hook::kSocketSelect)
                  .ok());
  const Packet pkt = MakePacket(9000, 5);
  (void)stack_.hooks().socket_select(PacketView::Of(pkt));
  (void)stack_.hooks().socket_select(PacketView::Of(pkt));
  EXPECT_EQ(CacheCounter("hits"), 0u);  // disabled end to end
}

}  // namespace
}  // namespace syrup
