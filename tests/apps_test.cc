#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/apps/loadgen.h"
#include "src/apps/mica_server.h"
#include "src/apps/rocksdb_server.h"
#include "src/sched/pinned_scheduler.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

// --- LoadGenerator -----------------------------------------------------------------

class LoadGenTest : public testing::Test {
 protected:
  LoadGenTest() : stack_(sim_, Config()) {
    stack_.GetOrCreateGroup(9000)->AddSocket(100'000);
  }

  static StackConfig Config() {
    StackConfig config;
    config.num_nic_queues = 2;
    return config;
  }

  Simulator sim_;
  HostStack stack_;
};

TEST_F(LoadGenTest, GeneratesApproximatelyConfiguredRate) {
  LoadGenConfig config;
  config.rate_rps = 100'000;
  config.dst_port = 9000;
  LoadGenerator gen(sim_, stack_, config);
  gen.Start(1 * kSecond);
  sim_.RunUntil(1 * kSecond);
  EXPECT_NEAR(static_cast<double>(gen.sent()), 100'000, 2'000);
}

TEST_F(LoadGenTest, StopsAtDeadline) {
  LoadGenConfig config;
  config.rate_rps = 10'000;
  config.dst_port = 9000;
  LoadGenerator gen(sim_, stack_, config);
  gen.Start(100 * kMillisecond);
  sim_.RunUntil(1 * kSecond);
  const uint64_t at_deadline = gen.sent();
  sim_.RunUntil(2 * kSecond);
  EXPECT_EQ(gen.sent(), at_deadline);
}

TEST_F(LoadGenTest, MixFractionsRespected) {
  LoadGenConfig config;
  config.rate_rps = 100'000;
  config.dst_port = 9000;
  config.mix = {{ReqType::kGet, 0.995}, {ReqType::kScan, 0.005}};
  LoadGenerator gen(sim_, stack_, config);

  uint64_t scans = 0;
  uint64_t total = 0;
  Socket* sock = stack_.GetOrCreateGroup(9000)->at(0);
  sock->SetWakeCallback([&]() {
    auto pkt = sock->Dequeue();
    ++total;
    if (pkt->req_type() == ReqType::kScan) {
      ++scans;
    }
  });
  gen.Start(1 * kSecond);
  sim_.RunToCompletion();
  ASSERT_GT(total, 50'000u);
  EXPECT_NEAR(static_cast<double>(scans) / static_cast<double>(total), 0.005,
              0.002);
}

TEST_F(LoadGenTest, UsesConfiguredFlowCount) {
  LoadGenConfig config;
  config.rate_rps = 50'000;
  config.dst_port = 9000;
  config.num_flows = 5;
  LoadGenerator gen(sim_, stack_, config);
  std::set<uint16_t> src_ports;
  Socket* sock = stack_.GetOrCreateGroup(9000)->at(0);
  sock->SetWakeCallback([&]() {
    auto pkt = sock->Dequeue();
    src_ports.insert(pkt->tuple.src_port);
  });
  gen.Start(100 * kMillisecond);
  sim_.RunToCompletion();
  EXPECT_EQ(src_ports.size(), 5u);
}

TEST_F(LoadGenTest, DeterministicAcrossRuns) {
  LoadGenConfig config;
  config.rate_rps = 10'000;
  config.dst_port = 9000;
  config.seed = 999;
  uint64_t counts[2];
  for (int run = 0; run < 2; ++run) {
    Simulator sim;
    HostStack stack(sim, Config());
    stack.GetOrCreateGroup(9000)->AddSocket(100'000);
    LoadGenerator gen(sim, stack, config);
    gen.Start(100 * kMillisecond);
    sim.RunToCompletion();
    counts[run] = gen.sent();
  }
  EXPECT_EQ(counts[0], counts[1]);
}

// One emitted request: when it left the generator, its flow and its bytes.
struct Emission {
  Time when;
  FiveTuple tuple;
  std::array<uint8_t, kWireSize> wire;
  bool operator==(const Emission&) const = default;
};

TEST(LoadGenLookAhead, LookingAheadLeavesTheStreamUnchanged) {
  LoadGenConfig config;
  config.rate_rps = 100'000;
  config.seed = 7;
  constexpr Time kUntil = 20 * kMillisecond;
  const std::vector<std::function<bool(const Packet&)>> preds = {
      [](const Packet&) { return true; },
      [](const Packet& pkt) { return pkt.tuple.Hash() % 1000 < 50; },
      [](const Packet&) { return false; },  // always runs into the depth cap
  };

  Simulator plain_sim;
  std::vector<Emission> plain;
  LoadGenerator plain_gen(
      plain_sim,
      [&](Packet pkt) {
        plain.push_back({plain_sim.Now(), pkt.tuple, pkt.wire});
      },
      config);
  plain_gen.Start(kUntil);
  plain_sim.RunToCompletion();

  // The same stream, asked at every emission for its next arrival under a
  // rotating predicate: query i is made right after emission i.
  Simulator sim;
  std::vector<Emission> emitted;
  std::vector<Time> bounds;
  LoadGenerator* gen_ptr = nullptr;
  LoadGenerator gen(
      sim,
      [&](Packet pkt) {
        emitted.push_back({sim.Now(), pkt.tuple, pkt.wire});
        bounds.push_back(gen_ptr->NextArrivalWhere(
            preds[(emitted.size() - 1) % preds.size()]));
      },
      config);
  gen_ptr = &gen;
  gen.Start(kUntil);
  sim.RunToCompletion();

  ASSERT_GT(plain.size(), 1000u);
  EXPECT_EQ(emitted, plain);

  // Each answer is exact: the first later match within the depth cap, the
  // last arrival drawn when the cap runs out first, none past the end.
  const size_t n = emitted.size();
  std::vector<Time> last(preds.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t p = i % preds.size();
    Packet probe;
    Time expected = emitted[std::min(i + LoadGenerator::kMaxLookAhead,
                                     n - 1)].when;
    for (size_t k = 1; k <= LoadGenerator::kMaxLookAhead; ++k) {
      if (i + k >= n) {
        expected = Simulator::kNoEventTime;
        break;
      }
      probe.tuple = emitted[i + k].tuple;
      if (preds[p](probe)) {
        expected = emitted[i + k].when;
        break;
      }
    }
    SCOPED_TRACE(i);
    EXPECT_EQ(bounds[i], expected);
    EXPECT_GE(bounds[i], last[p]);  // a predicate's bound never decreases
    last[p] = bounds[i];
  }
  EXPECT_EQ(bounds.back(), Simulator::kNoEventTime);
  for (const auto& pred : preds) {
    EXPECT_EQ(gen.NextArrivalWhere(pred), Simulator::kNoEventTime);
  }
}

// --- RocksDbServer -----------------------------------------------------------------

struct RocksRig {
  explicit RocksRig(RocksDbConfig config = {})
      : stack(sim, StackCfg()),
        machine(sim, config.num_threads),
        sched(machine) {
    machine.SetScheduler(&sched);
    server = std::make_unique<RocksDbServer>(sim, stack, machine, config);
  }

  static StackConfig StackCfg() {
    StackConfig config;
    config.num_nic_queues = 6;
    return config;
  }

  Packet MakePacket(ReqType type, uint16_t src_port = 20'000,
                    uint32_t user = 1) {
    Packet pkt;
    pkt.tuple.src_port = src_port;
    pkt.tuple.dst_port = 9000;
    pkt.SetHeader(type, user, 0, ++req_id, sim.Now());
    return pkt;
  }

  Simulator sim;
  HostStack stack;
  Machine machine;
  PinnedScheduler sched;
  std::unique_ptr<RocksDbServer> server;
  uint64_t req_id = 0;
};

TEST(RocksDbServer, ServesRequestAndRecordsLatency) {
  RocksRig rig;
  rig.stack.Rx(rig.MakePacket(ReqType::kGet));
  rig.sim.RunToCompletion();
  EXPECT_EQ(rig.server->completed(), 1u);
  EXPECT_EQ(rig.server->completed(ReqType::kGet), 1u);
  const uint64_t latency = rig.server->latency(ReqType::kGet).max();
  // At least the service time (10-12us) + stack costs + wire delay.
  EXPECT_GT(latency, 10 * kMicrosecond);
  EXPECT_LT(latency, 100 * kMicrosecond);
}

TEST(RocksDbServer, ScanLatencyReflectsServiceTime) {
  RocksRig rig;
  rig.stack.Rx(rig.MakePacket(ReqType::kScan));
  rig.sim.RunToCompletion();
  EXPECT_GT(rig.server->latency(ReqType::kScan).max(), 690 * kMicrosecond);
}

TEST(RocksDbServer, QueuedRequestsServeFifo) {
  RocksRig rig;
  // All to the same flow -> same socket via default hash.
  for (int i = 0; i < 5; ++i) {
    rig.stack.Rx(rig.MakePacket(ReqType::kGet));
  }
  rig.sim.RunToCompletion();
  EXPECT_EQ(rig.server->completed(), 5u);
  // Head waited ~1 service, tail ~5 services: p~100 > min.
  EXPECT_GT(rig.server->overall_latency().max(),
            rig.server->overall_latency().min());
}

TEST(RocksDbServer, ScanMapTracksSocketState) {
  MapSpec spec;
  spec.type = MapType::kArray;
  spec.max_entries = 6;
  auto scan_map = CreateMap(spec).value();
  RocksDbConfig config;
  config.scan_map = scan_map;
  RocksRig rig(config);

  // Initially all sockets report GET (schedulable).
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(scan_map->LookupU64(i).value(),
              static_cast<uint64_t>(ReqType::kGet));
  }
  Packet pkt = rig.MakePacket(ReqType::kScan);
  const uint32_t target =
      static_cast<uint32_t>(pkt.tuple.Hash() % 6);  // default steering
  rig.stack.Rx(pkt);
  // Mid-scan: the socket is marked SCAN (Fig. 5b's userspace update).
  rig.sim.RunUntil(300 * kMicrosecond);
  EXPECT_EQ(scan_map->LookupU64(target).value(),
            static_cast<uint64_t>(ReqType::kScan));
  rig.sim.RunToCompletion();
  EXPECT_EQ(scan_map->LookupU64(target).value(),
            static_cast<uint64_t>(ReqType::kGet));
}

TEST(RocksDbServer, ThreadTypeMapPublishedForGhost) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 64;
  auto type_map = CreateMap(spec).value();
  RocksDbConfig config;
  config.thread_type_map = type_map;
  RocksRig rig(config);
  Packet pkt = rig.MakePacket(ReqType::kScan);
  rig.stack.Rx(pkt);
  rig.sim.RunUntil(300 * kMicrosecond);
  // Some thread is marked as serving a SCAN.
  int scan_threads = 0;
  for (int i = 0; i < 6; ++i) {
    const uint32_t tid =
        static_cast<uint32_t>(rig.server->thread(i)->tid());
    auto value = type_map->LookupU64(tid);
    if (value.ok() &&
        *value == static_cast<uint64_t>(ReqType::kScan)) {
      ++scan_threads;
    }
  }
  EXPECT_EQ(scan_threads, 1);
}

TEST(RocksDbServer, PerUserStatsSeparate) {
  RocksRig rig;
  rig.stack.Rx(rig.MakePacket(ReqType::kGet, 20'000, /*user=*/1));
  rig.stack.Rx(rig.MakePacket(ReqType::kGet, 20'001, /*user=*/2));
  rig.stack.Rx(rig.MakePacket(ReqType::kGet, 20'002, /*user=*/2));
  rig.sim.RunToCompletion();
  EXPECT_EQ(rig.server->user_completed(1), 1u);
  EXPECT_EQ(rig.server->user_completed(2), 2u);
  EXPECT_EQ(rig.server->user_completed(3), 0u);
}

TEST(RocksDbServer, ResetStatsClearsEverything) {
  RocksRig rig;
  rig.stack.Rx(rig.MakePacket(ReqType::kGet));
  rig.sim.RunToCompletion();
  ASSERT_EQ(rig.server->completed(), 1u);
  rig.server->ResetStats();
  EXPECT_EQ(rig.server->completed(), 0u);
  EXPECT_EQ(rig.server->overall_latency().count(), 0u);
  EXPECT_EQ(rig.server->user_completed(1), 0u);
}

// --- MicaServer --------------------------------------------------------------------

struct MicaRig {
  explicit MicaRig(MicaVariant variant)
      : stack(sim, StackCfg()), machine(sim, 8), sched(machine) {
    machine.SetScheduler(&sched);
    MicaConfig config;
    server = std::make_unique<MicaServer>(sim, stack, machine, config,
                                          variant);
  }

  static StackConfig StackCfg() {
    StackConfig config;
    config.num_nic_queues = 8;
    return config;
  }

  Packet MakePacket(uint32_t key_hash, ReqType type = ReqType::kGet) {
    Packet pkt;
    pkt.tuple.src_port = 20'000;
    pkt.tuple.dst_port = 9100;
    pkt.SetHeader(type, 1, key_hash, ++req_id, sim.Now());
    return pkt;
  }

  Simulator sim;
  HostStack stack;
  Machine machine;
  PinnedScheduler sched;
  std::unique_ptr<MicaServer> server;
  uint64_t req_id = 0;
};

TEST(MicaServer, SwRedirectForwardsToHomeCore) {
  MicaRig rig(MicaVariant::kSwRedirect);
  // 64 random keys: with hash distribution, most land on a non-home core
  // first and get redirected.
  for (uint32_t key = 0; key < 64; ++key) {
    rig.stack.Rx(rig.MakePacket(key * 2'654'435'761u));
  }
  rig.sim.RunToCompletion();
  EXPECT_EQ(rig.server->completed(), 64u);
  EXPECT_GT(rig.server->redirected(), 32u);  // ~7/8 expected
}

TEST(MicaServer, SyrupSwDeliversDirectlyViaXdp) {
  MicaRig rig(MicaVariant::kSyrupSw);
  // Install the home steering policy at the XDP_SKB hook by hand.
  rig.stack.hooks().xdp_skb = [](const PacketView& pkt) -> Decision {
    uint32_t key_hash;
    std::memcpy(&key_hash, pkt.start + 20, 4);
    return key_hash % 8;
  };
  for (uint32_t key = 0; key < 64; ++key) {
    rig.stack.Rx(rig.MakePacket(key * 2'654'435'761u));
  }
  rig.sim.RunToCompletion();
  EXPECT_EQ(rig.server->completed(), 64u);
  EXPECT_EQ(rig.server->redirected(), 0u);  // no app-layer forwarding
  EXPECT_EQ(rig.stack.stats().delivered_afxdp, 64u);
}

TEST(MicaServer, SyrupHwHasLowerLatencyThanSwRedirect) {
  auto run = [](MicaVariant variant, bool hw_hooks) {
    MicaRig rig(variant);
    if (hw_hooks) {
      rig.stack.hooks().xdp_offload = [](const PacketView& pkt) -> Decision {
        uint32_t key_hash;
        std::memcpy(&key_hash, pkt.start + 20, 4);
        return key_hash % 8;
      };
      rig.stack.hooks().xdp_skb = [](const PacketView&) -> Decision {
        return 0;
      };
    }
    for (uint32_t key = 0; key < 32; ++key) {
      rig.stack.Rx(rig.MakePacket(key * 2'654'435'761u));
      rig.sim.RunToCompletion();  // one at a time: pure path latency
    }
    return rig.server->latency().Mean();
  };
  const double sw_redirect = run(MicaVariant::kSwRedirect, false);
  const double hw = run(MicaVariant::kSyrupHw, true);
  EXPECT_LT(hw, sw_redirect);
}

TEST(MicaServer, PutsCostMoreThanGets) {
  MicaRig rig(MicaVariant::kSyrupHw);
  rig.stack.hooks().xdp_offload = [](const PacketView& pkt) -> Decision {
    uint32_t key_hash;
    std::memcpy(&key_hash, pkt.start + 20, 4);
    return key_hash % 8;
  };
  rig.stack.hooks().xdp_skb = [](const PacketView&) -> Decision { return 0; };
  rig.stack.Rx(rig.MakePacket(1, ReqType::kGet));
  rig.sim.RunToCompletion();
  const double get_latency = rig.server->latency().Mean();
  rig.server->ResetStats();
  rig.stack.Rx(rig.MakePacket(1, ReqType::kPut));
  rig.sim.RunToCompletion();
  EXPECT_GT(rig.server->latency().Mean(), get_latency);
}

}  // namespace
}  // namespace syrup
