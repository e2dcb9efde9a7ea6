// Batched dispatch differential tests: Syrupd::DispatchBatch must be
// observably identical to per-packet dispatch — same decisions in the same
// order, same counters — for every packet hook, every chunking, and every
// mix of pure/stateful/absent policies; and its native port routing must
// decide exactly what the literal root-dispatcher program (paper §4.3)
// decides through tail calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/syrup_api.h"
#include "src/core/syrupd.h"
#include "src/net/kcm.h"
#include "src/net/stack.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"
#include "tests/oracles/root_dispatcher.h"

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

SteerHook& SingleHook(HostStack& stack, Hook hook) {
  switch (hook) {
    case Hook::kXdpOffload:
      return stack.hooks().xdp_offload;
    case Hook::kXdpDrv:
      return stack.hooks().xdp_drv;
    case Hook::kXdpSkb:
      return stack.hooks().xdp_skb;
    case Hook::kCpuRedirect:
      return stack.hooks().cpu_redirect;
    default:
      return stack.hooks().socket_select;
  }
}

// One daemon + stack pair; the differential runs two of these in lockstep.
struct Side {
  Side() : stack(sim, StackConfig{}), syrupd(sim, &stack) {
    app = syrupd.RegisterApp("a", 1000, 9000).value();
  }

  Simulator sim;
  HostStack stack;
  Syrupd syrupd;
  AppId app = 0;
};

// Drives the same randomized packet sequence through per-packet dispatch
// on one side and randomly-chunked DispatchBatch on the other. Any
// map mutation happens only at chunk boundaries, identically on both
// sides, so per-packet state evolution must match exactly.
void RunDifferential(Hook hook, const std::string& policy_asm,
                     bool with_load_map, uint64_t seed) {
  SCOPED_TRACE(std::string(HookName(hook)) + " seed=" +
               std::to_string(seed));
  Side single, batch;
  MapHandle single_load, batch_load;
  auto pin_load = [](Side& side) {
    SyrupClient client(side.syrupd, side.app);
    MapSpec spec;
    spec.max_entries = 6;
    spec.name = "load";
    MapHandle load = client.MapCreate(spec, "/syrup/a/load").value();
    for (uint32_t i = 0; i < 6; ++i) {
      EXPECT_TRUE(load.Update(i, 10 + i).ok());
    }
    return load;
  };
  if (with_load_map) {
    single_load = pin_load(single);
    batch_load = pin_load(batch);
  }
  ASSERT_TRUE(
      single.syrupd.DeployPolicyFile(single.app, policy_asm, hook).ok());
  ASSERT_TRUE(
      batch.syrupd.DeployPolicyFile(batch.app, policy_asm, hook).ok());

  // ~200 flows across 1500 packets, with a sprinkle of packets to an
  // unowned port (no-policy fall-through) so the batch's port-resolution
  // memoization sees transitions.
  Rng traffic(seed);
  std::vector<Packet> packets;
  packets.reserve(1500);
  for (int i = 0; i < 1500; ++i) {
    const uint16_t port = traffic.NextBounded(10) == 0 ? 9001 : 9000;
    packets.push_back(MakePacket(
        port, static_cast<uint32_t>(traffic.NextBounded(200)) * 2654435761u));
  }
  std::vector<PacketView> views;
  views.reserve(packets.size());
  for (const Packet& pkt : packets) {
    views.push_back(PacketView::Of(pkt));
  }

  std::vector<Decision> single_out(packets.size(), 0);
  std::vector<Decision> batch_out(packets.size(), 0);
  Rng chunks(seed ^ 0x9e3779b97f4a7c15ull);
  size_t pos = 0;
  while (pos < packets.size()) {
    const size_t n = std::min(
        packets.size() - pos, size_t{1} + chunks.NextBounded(63));
    if (with_load_map && chunks.NextBounded(4) == 0) {
      // Shift the load between chunks — same update on both sides, so
      // the policy sees the same load at the same packet index.
      const uint32_t idx = static_cast<uint32_t>(chunks.NextBounded(6));
      const uint64_t value = 1 + chunks.NextBounded(100);
      ASSERT_TRUE(single_load.Update(idx, value).ok());
      ASSERT_TRUE(batch_load.Update(idx, value).ok());
    }
    for (size_t i = pos; i < pos + n; ++i) {
      single_out[i] = SingleHook(single.stack, hook)(views[i]);
    }
    batch.syrupd.DispatchBatch(
        hook, std::span<const PacketView>(&views[pos], n),
        std::span<Decision>(&batch_out[pos], n));
    pos += n;
  }

  for (size_t i = 0; i < packets.size(); ++i) {
    ASSERT_EQ(single_out[i], batch_out[i]) << "packet " << i;
  }
  // Counter-for-counter equality: the batch path may not change *when*
  // policies run, only amortize the bookkeeping.
  EXPECT_EQ(single.syrupd.dispatch_stats(hook).dispatched,
            batch.syrupd.dispatch_stats(hook).dispatched);
  EXPECT_EQ(single.syrupd.dispatch_stats(hook).no_policy,
            batch.syrupd.dispatch_stats(hook).no_policy);
  EXPECT_EQ(single.syrupd.StatsSnapshot().CounterValue(
                "a", HookName(hook), "policy.invocations"),
            batch.syrupd.StatsSnapshot().CounterValue(
                "a", HookName(hook), "policy.invocations"));
}

constexpr Hook kPacketHooks[] = {Hook::kXdpOffload, Hook::kXdpDrv,
                                 Hook::kXdpSkb, Hook::kCpuRedirect,
                                 Hook::kSocketSelect};

TEST(DispatchBatch, PurePolicyMatchesSingleOnAllHooks) {
  for (Hook hook : kPacketHooks) {
    RunDifferential(hook, MicaHomePolicyAsm(6), /*with_load_map=*/false, 1);
  }
}

TEST(DispatchBatch, StatefulPolicyMatchesSingleOnAllHooks) {
  // Round robin mutates map state on every decision: the batch must
  // execute it per packet, in order.
  for (Hook hook : kPacketHooks) {
    RunDifferential(hook, RoundRobinPolicyAsm(6), /*with_load_map=*/false, 2);
  }
}

TEST(DispatchBatch, MapReadingPolicyWithChurnMatchesSingle) {
  // least_loaded reads the pinned load map through map_lookup_batch (its
  // asm twin batches the whole register scan); chunk-boundary updates
  // change the load at identical packet indices on both sides. All packet
  // hooks: batched dispatch must stay bit-identical to single-packet
  // dispatch everywhere.
  for (Hook hook : kPacketHooks) {
    RunDifferential(hook, LeastLoadedPolicyAsm(6, "/syrup/a/load"),
                    /*with_load_map=*/true, 3);
  }
}

TEST(DispatchBatch, RoutesLikeTheRootDispatcherProgram) {
  // Four apps on distinct ports, each running a pure bytecode policy. The
  // oracle is the paper's root program: a port-map lookup, then a tail
  // call into the owner's policy, run by the interpreter with the
  // daemon's own execution environment. Bursts mix owned ports, unowned
  // ports and runts (too short to carry a port), so every routing branch
  // meets every other at a burst boundary and inside one.
  Simulator sim;
  HostStack stack(sim, StackConfig{});
  Syrupd syrupd(sim, &stack);
  auto dispatcher = BuildRootDispatcher(8);
  ASSERT_TRUE(dispatcher.ok()) << dispatcher.status();
  const std::pair<uint16_t, std::string> apps[] = {
      {9000, MicaHomePolicyAsm(6)},
      {9001, HashPolicyAsm(4)},
      {9002, VarHeaderPolicyAsm(5)},
      {9003, ConstIndexPolicyAsm(3)},
  };
  std::vector<RouteHandle> routes;
  for (uint32_t i = 0; i < std::size(apps); ++i) {
    const auto& [port, policy] = apps[i];
    const AppId app = syrupd
                          .RegisterApp("app" + std::to_string(i), 1000 + i,
                                       port)
                          .value();
    const StatusOr<int> prog_id =
        syrupd.DeployPolicyFile(app, policy, Hook::kXdpDrv);
    ASSERT_TRUE(prog_id.ok()) << prog_id.status();
    StatusOr<RouteHandle> route =
        dispatcher->AddRoute(port, i, static_cast<uint64_t>(*prog_id));
    ASSERT_TRUE(route.ok()) << route.status();
    routes.push_back(std::move(route).value());
  }
  bpf::Interpreter oracle(syrupd.MakeExecEnv());

  Rng rng(21);
  const uint16_t ports[] = {9000, 9001, 9002, 9003, 9004, 80};
  std::vector<Packet> packets;
  std::vector<PacketView> views;
  packets.reserve(2000);
  views.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    packets.push_back(MakePacket(
        ports[rng.NextBounded(std::size(ports))],
        static_cast<uint32_t>(rng.Next()),
        static_cast<uint16_t>(20'000 + rng.NextBounded(64))));
    const PacketView view = PacketView::Of(packets.back());
    // One packet in eight is a runt of 0-3 bytes.
    views.push_back(rng.NextBounded(8) == 0
                        ? PacketView{view.start,
                                     view.start + rng.NextBounded(4)}
                        : view);
  }

  std::vector<Decision> got(views.size(), 0);
  std::vector<Decision> want(views.size(), 0);
  size_t pos = 0;
  while (pos < views.size()) {
    const size_t n =
        std::min(views.size() - pos,
                 size_t{1} + rng.NextBounded(2 * Syrupd::kMaxDispatchBatch));
    const std::span<const PacketView> burst(&views[pos], n);
    syrupd.DispatchBatch(Hook::kXdpDrv, burst,
                         std::span<Decision>(&got[pos], n));
    const Status oracle_status = dispatcher->DispatchBatch(
        oracle, burst, std::span<Decision>(&want[pos], n));
    ASSERT_TRUE(oracle_status.ok()) << oracle_status;
    pos += n;
  }
  for (size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "packet " << i << " (" << views[i].size()
                               << " bytes, port " << views[i].DstPort()
                               << ")";
  }
  const DispatchStats stats = syrupd.dispatch_stats(Hook::kXdpDrv);
  EXPECT_EQ(stats.dispatched + stats.no_policy, views.size());
  EXPECT_GT(stats.dispatched, 0u);
  EXPECT_GT(stats.no_policy, 0u);
}

TEST(DispatchBatch, OversizedBatchIsChunkedTransparently) {
  Side side;
  ASSERT_TRUE(side.syrupd
                  .DeployPolicyFile(side.app, MicaHomePolicyAsm(6),
                                    Hook::kSocketSelect)
                  .ok());
  // 3 * kMaxDispatchBatch + 7 packets in one call: the public API accepts
  // any span and chunks internally.
  const size_t total = 3 * Syrupd::kMaxDispatchBatch + 7;
  std::vector<Packet> packets;
  for (size_t i = 0; i < total; ++i) {
    packets.push_back(MakePacket(9000, static_cast<uint32_t>(i)));
  }
  std::vector<PacketView> views;
  for (const Packet& pkt : packets) {
    views.push_back(PacketView::Of(pkt));
  }
  std::vector<Decision> out(total, 0);
  side.syrupd.DispatchBatch(Hook::kSocketSelect, views, out);
  for (size_t i = 0; i < total; ++i) {
    EXPECT_EQ(out[i], static_cast<Decision>(i % 6));
  }
  EXPECT_EQ(side.syrupd.dispatch_stats(Hook::kSocketSelect).dispatched,
            total);
}

// --- burst entry points ------------------------------------------------------

TEST(DispatchBatch, RxBurstMatchesSequentialRx) {
  // Same packets, same instant: RxBurst (batched offload hook, NIC DMA
  // burst model) must produce the same stack accounting as per-packet Rx
  // when the offload policy has no cross-packet state.
  auto run = [](bool burst) {
    Simulator sim;
    HostStack stack(sim, StackConfig{});
    Syrupd syrupd(sim, &stack);
    const AppId app = syrupd.RegisterApp("a", 1000, 9000).value();
    EXPECT_TRUE(syrupd
                    .DeployPolicyFile(app, MicaHomePolicyAsm(4),
                                      Hook::kXdpOffload)
                    .ok());
    ReuseportGroup* group = stack.GetOrCreateGroup(9000);
    for (int i = 0; i < 4; ++i) {
      group->AddSocket(64);
    }
    std::vector<Packet> packets;
    for (uint32_t i = 0; i < 256; ++i) {
      packets.push_back(MakePacket(9000, i, 20'000 + (i % 64)));
    }
    if (burst) {
      stack.RxBurst(packets);
    } else {
      for (const Packet& pkt : packets) {
        stack.Rx(pkt);
      }
    }
    sim.RunUntil(1 * kMillisecond);
    return stack.stats();
  };
  const StackStats sequential = run(false);
  const StackStats bursty = run(true);
  EXPECT_EQ(sequential.rx_packets, bursty.rx_packets);
  EXPECT_EQ(sequential.delivered_socket, bursty.delivered_socket);
  EXPECT_EQ(sequential.policy_drops, bursty.policy_drops);
  EXPECT_EQ(sequential.socket_drops, bursty.socket_drops);
  EXPECT_EQ(sequential.invalid_decisions, bursty.invalid_decisions);
  EXPECT_GT(bursty.rx_packets, 0u);
}

TEST(DispatchBatch, KcmBatchPolicySchedulesWholeSegments) {
  // A TCP segment carrying several complete messages reaches the batch
  // policy as one burst; decisions and delivery order match the
  // per-message policy exactly.
  struct Delivered {
    uint64_t stream;
    Decision decision;
    std::vector<uint8_t> message;
  };
  auto run = [](bool batched) {
    std::vector<Delivered> log;
    KcmMultiplexor kcm([&log](uint64_t stream, Decision d,
                              const std::vector<uint8_t>& msg) {
      log.push_back({stream, d, msg});
    });
    auto decide = [](const PacketView& view) -> Decision {
      // Schedule by first payload byte; drop 0xFF messages.
      if (view.size() > 0 && view.start[0] == 0xFF) {
        return kDrop;
      }
      return view.size() > 0 ? view.start[0] % 4 : kPass;
    };
    if (batched) {
      kcm.SetBatchPolicy([decide](std::span<const PacketView> msgs,
                                  std::span<Decision> out) {
        for (size_t i = 0; i < msgs.size(); ++i) {
          out[i] = decide(msgs[i]);
        }
      });
    } else {
      kcm.SetPolicy(decide);
    }
    // One segment, four messages (one of them a drop).
    std::vector<uint8_t> segment;
    for (uint8_t first : {uint8_t{1}, uint8_t{6}, uint8_t{0xFF},
                          uint8_t{3}}) {
      const uint8_t payload[3] = {first, 0xAA, 0xBB};
      const std::vector<uint8_t> frame = KcmFrame(payload, sizeof(payload));
      segment.insert(segment.end(), frame.begin(), frame.end());
    }
    EXPECT_TRUE(kcm.OnSegment(7, segment.data(), segment.size()).ok());
    EXPECT_EQ(kcm.messages_delivered(), 3u);
    EXPECT_EQ(kcm.messages_dropped(), 1u);
    return log;
  };
  const std::vector<Delivered> single = run(false);
  const std::vector<Delivered> batch = run(true);
  ASSERT_EQ(single.size(), batch.size());
  ASSERT_EQ(single.size(), 3u);
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].stream, batch[i].stream);
    EXPECT_EQ(single[i].decision, batch[i].decision);
    EXPECT_EQ(single[i].message, batch[i].message);
  }
  EXPECT_EQ(batch[0].decision, 1u);
  EXPECT_EQ(batch[1].decision, 2u);
  EXPECT_EQ(batch[2].decision, 3u);
}

}  // namespace
}  // namespace syrup
