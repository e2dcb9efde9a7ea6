// Rack-level tests (§6.1 distributed extension): switch match-action
// isolation, data-plane registers, least-loaded scheduling, and end-to-end
// request flow through two Syrup scheduling layers.
#include <gtest/gtest.h>

#include "src/apps/loadgen.h"
#include "src/common/rng.h"
#include "src/bpf/loader.h"
#include "src/map/registry.h"
#include "src/policies/builtin.h"
#include "src/rack/rack.h"
#include "src/rack/tor_switch.h"
#include "src/sim/simulator.h"
#include "tests/oracles/native_policies.h"

namespace syrup {
namespace {

Packet MakePacket(uint16_t dst_port, uint16_t src_port = 20'000,
                  uint64_t req_id = 1) {
  Packet pkt;
  pkt.tuple.src_ip = 0x0a000001;
  pkt.tuple.src_port = src_port;
  pkt.tuple.dst_port = dst_port;
  pkt.SetHeader(ReqType::kGet, 1, 0, req_id, 0);
  return pkt;
}

// Load options binding a program's extern map to the switch's registers,
// as the switch's control plane does.
bpf::LoadOptions ExternTo(const std::shared_ptr<Map>& registers) {
  bpf::LoadOptions options;
  options.resolve = [registers](const bpf::MapSlot& slot)
      -> StatusOr<std::shared_ptr<Map>> {
    return slot.is_extern ? registers : nullptr;
  };
  return options;
}

// --- TorSwitch ----------------------------------------------------------------

struct SwitchRig {
  explicit SwitchRig(int ports = 4)
      : tor(sim, Config(ports), [this](int port, const Packet& pkt) {
          delivered.push_back({port, pkt});
        }) {}

  static TorSwitchConfig Config(int ports) {
    TorSwitchConfig config;
    config.num_server_ports = ports;
    return config;
  }

  Simulator sim;
  std::vector<std::pair<int, Packet>> delivered;
  TorSwitch tor;
};

TEST(TorSwitch, DefaultHashesAcrossServers) {
  SwitchRig rig;
  rig.tor.RxFromUplink(MakePacket(9000));
  rig.sim.RunToCompletion();
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.tor.stats().no_tenant_match, 1u);
  // Same flow always lands on the same server.
  rig.tor.RxFromUplink(MakePacket(9000));
  rig.sim.RunToCompletion();
  EXPECT_EQ(rig.delivered[1].first, rig.delivered[0].first);
}

TEST(TorSwitch, TenantProgramsIsolatedByMatchActionRules) {
  SwitchRig rig;
  // Tenant A (port 9000) pins everything to server 3; tenant B (9001) to
  // server 1.
  ASSERT_TRUE(rig.tor
                  .InstallTenantProgram(9000,
                                        std::make_shared<ConstIndexPolicy>(3))
                  .ok());
  ASSERT_TRUE(rig.tor
                  .InstallTenantProgram(9001,
                                        std::make_shared<ConstIndexPolicy>(1))
                  .ok());
  rig.tor.RxFromUplink(MakePacket(9000));
  rig.tor.RxFromUplink(MakePacket(9001));
  rig.sim.RunToCompletion();
  ASSERT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.delivered[0].first, 3);
  EXPECT_EQ(rig.delivered[1].first, 1);
  EXPECT_EQ(rig.tor.stats().no_tenant_match, 0u);
}

TEST(TorSwitch, RegistersTrackOutstanding) {
  SwitchRig rig;
  ASSERT_TRUE(rig.tor
                  .InstallTenantProgram(9000,
                                        std::make_shared<ConstIndexPolicy>(2))
                  .ok());
  Packet pkt = MakePacket(9000);
  rig.tor.RxFromUplink(pkt);
  rig.tor.RxFromUplink(pkt);
  EXPECT_EQ(rig.tor.OutstandingOn(2), 2u);
  rig.tor.RxFromServer(2, pkt);
  EXPECT_EQ(rig.tor.OutstandingOn(2), 1u);
  rig.tor.RxFromServer(2, pkt);
  rig.tor.RxFromServer(2, pkt);  // extra response: saturates at zero
  EXPECT_EQ(rig.tor.OutstandingOn(2), 0u);
}

TEST(TorSwitch, DropAndInvalidDecisions) {
  SwitchRig rig;
  ASSERT_TRUE(rig.tor
                  .InstallTenantProgram(
                      9000, std::make_shared<ConstIndexPolicy>(kDrop))
                  .ok());
  ASSERT_TRUE(rig.tor
                  .InstallTenantProgram(
                      9001, std::make_shared<ConstIndexPolicy>(77))
                  .ok());
  rig.tor.RxFromUplink(MakePacket(9000));
  rig.tor.RxFromUplink(MakePacket(9001));
  rig.sim.RunToCompletion();
  EXPECT_EQ(rig.tor.stats().policy_drops, 1u);
  EXPECT_EQ(rig.tor.stats().invalid_decisions, 1u);
  EXPECT_EQ(rig.delivered.size(), 1u);  // invalid fell back to the default
}

TEST(TorSwitch, ForwardingAddsPipelineAndWireLatency) {
  SwitchRig rig;
  rig.tor.RxFromUplink(MakePacket(9000));
  rig.sim.RunToCompletion();
  const TorSwitchConfig config = SwitchRig::Config(4);
  EXPECT_EQ(rig.sim.Now(), config.pipeline_latency + config.wire_latency);
}

TEST(TorSwitch, LeastLoadedPolicySteersToIdleServer) {
  SwitchRig rig;
  auto policy = std::make_shared<LeastLoadedPolicy>(
      4, rig.tor.outstanding_map());
  ASSERT_TRUE(rig.tor.InstallTenantProgram(9000, policy).ok());
  // Four requests, no responses: each goes to a different server.
  for (uint64_t id = 1; id <= 4; ++id) {
    rig.tor.RxFromUplink(MakePacket(9000, 20'000, id));
  }
  rig.sim.RunToCompletion();
  for (int port = 0; port < 4; ++port) {
    EXPECT_EQ(rig.tor.OutstandingOn(port), 1u) << "port " << port;
  }
  // Server 2 responds: the next request goes there.
  rig.tor.RxFromServer(2, MakePacket(9000));
  rig.tor.RxFromUplink(MakePacket(9000, 20'001, 5));
  rig.sim.RunToCompletion();
  EXPECT_EQ(rig.tor.OutstandingOn(2), 1u);
  EXPECT_EQ(rig.delivered.back().first, 2);
}

TEST(LeastLoaded, NativeMatchesBytecode) {
  // Resolve the bytecode twin's extern map against the same registers.
  MapSpec spec;
  spec.type = MapType::kArray;
  spec.max_entries = 4;
  auto registers = CreateMap(spec).value();

  auto loaded =
      bpf::Load(LeastLoadedPolicyAsm(4, "/tor/load"), ExternTo(registers));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  BytecodePacketPolicy bytecode(loaded->compiled, bpf::ExecEnv{});
  LeastLoadedPolicy native(4, registers);

  Rng rng(33);
  Packet pkt = MakePacket(9000);
  const PacketView view = PacketView::Of(pkt);
  for (int round = 0; round < 100; ++round) {
    for (uint32_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(registers->UpdateU64(i, rng.NextBounded(64)).ok());
    }
    ASSERT_EQ(native.Schedule(view), bytecode.Schedule(view))
        << "round " << round;
  }
}

// --- Rack end-to-end ------------------------------------------------------------

TEST(Rack, ServesRequestsThroughBothLayers) {
  Simulator sim;
  RackConfig config;
  config.num_servers = 4;
  Rack rack(sim, config);
  ASSERT_TRUE(rack.tor()
                  .InstallTenantProgram(
                      9000, std::make_shared<LeastLoadedPolicy>(
                                4, rack.tor().outstanding_map()))
                  .ok());

  LoadGenConfig gen_config;
  gen_config.rate_rps = 100'000;
  gen_config.dst_port = 9000;
  LoadGenerator gen(
      sim, [&rack](Packet pkt) { rack.InjectRequest(std::move(pkt)); },
      gen_config);
  gen.Start(200 * kMillisecond);
  sim.RunUntil(250 * kMillisecond);

  EXPECT_GT(rack.completed(), 19'000u);
  // All servers participated.
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(rack.server_completed(i), 2'000u) << "server " << i;
  }
  // Registers drain back toward zero once load stops.
  uint64_t outstanding = 0;
  for (int i = 0; i < 4; ++i) {
    outstanding += rack.tor().OutstandingOn(i);
  }
  EXPECT_EQ(outstanding, 0u);
  // End-to-end latency includes both wire hops and the service time.
  EXPECT_GT(rack.latency().Percentile(50), 20'000u);  // > 20us
}

TEST(Rack, LeastLoadedRoutesAroundStraggler) {
  // One server is 4x slower. Flow hashing keeps sending it its share;
  // least-loaded shifts work away from it.
  auto run = [](bool least_loaded) {
    Simulator sim;
    RackConfig config;
    config.num_servers = 4;
    config.server_speed = {1.0, 1.0, 1.0, 4.0};
    Rack rack(sim, config);
    if (least_loaded) {
      (void)rack.tor().InstallTenantProgram(
          9000, std::make_shared<LeastLoadedPolicy>(
                    4, rack.tor().outstanding_map()));
    }
    LoadGenConfig gen_config;
    gen_config.rate_rps = 1'200'000;  // ~78% of the heterogeneous capacity
    gen_config.dst_port = 9000;
    gen_config.num_flows = 200;
    LoadGenerator gen(
        sim, [&rack](Packet pkt) { rack.InjectRequest(std::move(pkt)); },
        gen_config);
    gen.Start(300 * kMillisecond);
    sim.RunUntil(350 * kMillisecond);
    return static_cast<double>(rack.latency().Percentile(99)) / 1000.0;
  };
  const double hashed_p99 = run(false);
  const double jsq_p99 = run(true);
  EXPECT_LT(jsq_p99, hashed_p99 / 2)
      << "least-loaded should mask the straggler";
}


TEST(PowerOfTwo, PicksLessLoadedOfTwoSamples) {
  MapSpec spec;
  spec.type = MapType::kArray;
  spec.max_entries = 4;
  auto registers = CreateMap(spec).value();
  ASSERT_TRUE(registers->UpdateU64(0, 10).ok());
  ASSERT_TRUE(registers->UpdateU64(1, 0).ok());
  ASSERT_TRUE(registers->UpdateU64(2, 10).ok());
  ASSERT_TRUE(registers->UpdateU64(3, 10).ok());
  auto rng = std::make_shared<Rng>(5);
  PowerOfTwoPolicy policy(4, registers,
                          [rng]() { return static_cast<uint32_t>(rng->Next()); });
  Packet pkt = MakePacket(9000);
  // Whenever index 1 is sampled it wins; otherwise some loaded index.
  int wins = 0;
  for (int i = 0; i < 400; ++i) {
    if (policy.Schedule(PacketView::Of(pkt)) == 1u) {
      ++wins;
    }
  }
  // P(sample includes 1) = 1 - (3/4)^2 = 43.75%.
  EXPECT_NEAR(wins, 175, 40);
}

TEST(PowerOfTwo, NativeMatchesBytecode) {
  MapSpec spec;
  spec.type = MapType::kArray;
  spec.max_entries = 8;
  auto registers = CreateMap(spec).value();

  auto loaded =
      bpf::Load(PowerOfTwoPolicyAsm(8, "/tor/load"), ExternTo(registers));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto bytecode_rng = std::make_shared<Rng>(77);
  bpf::ExecEnv env;
  env.random_u32 = [bytecode_rng]() {
    return static_cast<uint32_t>(bytecode_rng->Next());
  };
  BytecodePacketPolicy bytecode(loaded->compiled, env);
  auto native_rng = std::make_shared<Rng>(77);
  PowerOfTwoPolicy native(8, registers, [native_rng]() {
    return static_cast<uint32_t>(native_rng->Next());
  });

  Rng scenario(3);
  Packet pkt = MakePacket(9000);
  const PacketView view = PacketView::Of(pkt);
  for (int round = 0; round < 200; ++round) {
    for (uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(registers->UpdateU64(i, scenario.NextBounded(32)).ok());
    }
    ASSERT_EQ(native.Schedule(view), bytecode.Schedule(view))
        << "round " << round;
  }
}

}  // namespace
}  // namespace syrup
