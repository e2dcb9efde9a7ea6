// syrupd tests: the deployment workflow (Fig. 3), the Table-1 API, and the
// multi-tenancy / isolation guarantees of §3.5 and §4.3.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/bpf/jit.h"
#include "src/core/syrup_api.h"
#include "src/core/syrupd.h"
#include "src/net/stack.h"
#include "src/policies/builtin.h"
#include "src/sched/machine.h"
#include "src/sim/simulator.h"
#include "tests/oracles/root_dispatcher.h"

namespace syrup {
namespace {

Packet MakePacket(uint16_t dst_port, uint16_t src_port = 20'000) {
  Packet pkt;
  pkt.tuple.src_ip = 0x0a000001;
  pkt.tuple.dst_ip = 0x0a0000ff;
  pkt.tuple.src_port = src_port;
  pkt.tuple.dst_port = dst_port;
  pkt.SetHeader(ReqType::kGet, 1, 0, 1, 0);
  return pkt;
}

class SyrupdTest : public testing::Test {
 protected:
  SyrupdTest() : stack_(sim_, Config()), syrupd_(sim_, &stack_) {}

  static StackConfig Config() {
    StackConfig config;
    config.num_nic_queues = 2;
    return config;
  }

  Simulator sim_;
  HostStack stack_;
  Syrupd syrupd_;
};

// --- app registration -------------------------------------------------------------

TEST_F(SyrupdTest, RegisterAppAndPorts) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000);
  ASSERT_TRUE(app.ok());
  EXPECT_TRUE(syrupd_.AddPort(*app, 9001).ok());
}

TEST_F(SyrupdTest, PortConflictRejected) {
  ASSERT_TRUE(syrupd_.RegisterApp("a", 1000, 9000).ok());
  EXPECT_EQ(syrupd_.RegisterApp("b", 2000, 9000).status().code(),
            StatusCode::kAlreadyExists);
  auto b = syrupd_.RegisterApp("b", 2000, 9001);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(syrupd_.AddPort(*b, 9000).code(), StatusCode::kAlreadyExists);
}

// --- deployment workflow -----------------------------------------------------------

TEST_F(SyrupdTest, DeploysVerifiedPolicyFile) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  auto fd = client.syr_deploy_policy(RoundRobinPolicyAsm(4),
                                     Hook::kSocketSelect);
  ASSERT_TRUE(fd.ok()) << fd.status();
  EXPECT_GT(*fd, 0);
}

TEST_F(SyrupdTest, RejectsUnverifiablePolicy) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  // Reads the packet without a bounds check: must never reach a hook.
  auto fd = client.syr_deploy_policy(R"(
    ldxw r0, [r1+0]
    exit
  )", Hook::kSocketSelect);
  ASSERT_FALSE(fd.ok());
  EXPECT_NE(fd.status().message().find("verifier"), std::string::npos);
  // And no dispatcher was installed.
  EXPECT_FALSE(static_cast<bool>(stack_.hooks().socket_select));
}

TEST_F(SyrupdTest, RejectsSyntacticallyBrokenPolicy) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  EXPECT_FALSE(client.syr_deploy_policy("not a program", Hook::kXdpDrv).ok());
}

// A tenant's map declaration is untrusted input. A size that does not fit
// its field, a spec CreateMap rejects, and a map too large to preallocate
// each come back as a Status; none aborts the daemon or deploys.
TEST_F(SyrupdTest, RejectsMapDeclarationsThatDoNotFit) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  for (const char* map_line :
       {".map m array 4 8 99999999999",   // truncated: 1.2G entries
        ".map m array 4 8 4294967297",    // truncated: 1 entry
        ".map m array 8 8 1",             // array keys are u32
        ".map m array 4 8 30000000"}) {   // over CreateMap's byte limit
    const std::string source = std::string(".name p\n.ctx packet\n") +
                               map_line + "\n  mov r0, PASS\n  exit\n";
    const StatusOr<int> deployed =
        syrupd_.DeployPolicyFile(app, source, Hook::kSocketSelect);
    ASSERT_FALSE(deployed.ok()) << map_line;
    EXPECT_EQ(deployed.status().code(), StatusCode::kInvalidArgument)
        << map_line;
  }
  EXPECT_TRUE(syrupd_.ListDeployments().empty());
  EXPECT_TRUE(syrupd_.registry().ListPaths().empty());
}

TEST_F(SyrupdTest, DeclaredMapsArePinnedUnderAppPath) {
  auto app = syrupd_.RegisterApp("rocksdb", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  ASSERT_TRUE(client.syr_deploy_policy(ScanAvoidPolicyAsm(4),
                                       Hook::kSocketSelect)
                  .ok());
  EXPECT_TRUE(
      syrupd_.registry().Open("/syrup/rocksdb/scan_map", 1000).ok());
  // A different uid cannot open the pin.
  EXPECT_FALSE(
      syrupd_.registry().Open("/syrup/rocksdb/scan_map", 2000).ok());
}

TEST_F(SyrupdTest, RedeployReusesPinnedMapState) {
  auto app = syrupd_.RegisterApp("rocksdb", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  ASSERT_TRUE(client.syr_deploy_policy(RoundRobinPolicyAsm(4),
                                       Hook::kSocketSelect)
                  .ok());
  auto map =
      syrupd_.registry().Open("/syrup/rocksdb/rr_state", 1000).value();
  ASSERT_TRUE(map->UpdateU64(0, 41).ok());
  // Redeploy (policy update at runtime, §3.1): counter state survives.
  ASSERT_TRUE(client.syr_deploy_policy(RoundRobinPolicyAsm(4),
                                       Hook::kSocketSelect)
                  .ok());
  auto again =
      syrupd_.registry().Open("/syrup/rocksdb/rr_state", 1000).value();
  EXPECT_EQ(again->LookupU64(0).value(), 41u);
  EXPECT_EQ(again.get(), map.get());
}

TEST_F(SyrupdTest, ExternMapRequiresPermission) {
  auto owner = syrupd_.RegisterApp("owner", 1000, 9000).value();
  auto other = syrupd_.RegisterApp("other", 2000, 9001).value();
  MapSpec spec;
  spec.max_entries = 4;
  ASSERT_TRUE(syrupd_.MapCreate(owner, spec, "/pins/private").ok());

  const std::string policy = R"(
    .extern_map m /pins/private
    mov r0, PASS
    exit
  )";
  SyrupClient other_client(syrupd_, other);
  auto result = other_client.syr_deploy_policy(policy, Hook::kSocketSelect);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);

  SyrupClient owner_client(syrupd_, owner);
  EXPECT_TRUE(
      owner_client.syr_deploy_policy(policy, Hook::kSocketSelect).ok());
}

TEST_F(SyrupdTest, RemovePolicyRestoresDefault) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app, RoundRobinPolicyAsm(4),
                                    Hook::kSocketSelect)
                  .ok());
  EXPECT_TRUE(static_cast<bool>(stack_.hooks().socket_select));
  ASSERT_TRUE(syrupd_.RemovePolicy(app, Hook::kSocketSelect).ok());
  EXPECT_FALSE(static_cast<bool>(stack_.hooks().socket_select));
  EXPECT_EQ(syrupd_.RemovePolicy(app, Hook::kSocketSelect).code(),
            StatusCode::kNotFound);
}

TEST_F(SyrupdTest, ThreadHookRejectsPolicyFiles) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  EXPECT_FALSE(
      client.syr_deploy_policy("mov r0, 0\nexit\n", Hook::kThreadScheduler)
          .ok());
}

// A machine runs one thread policy. A second deploy is refused before it
// pins maps, spends a prog id or publishes verifier and cost gauges over
// the live deployment's.
TEST_F(SyrupdTest, RejectedThreadDeployLeavesNoTrace) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 16;
  spec.name = "types";
  ASSERT_TRUE(syrupd_.registry()
                  .Pin("/syrup/a/types", CreateMap(spec).value(), 1000)
                  .ok());
  Machine machine(sim_, 2);
  GhostConfig config;
  config.num_managed_cores = 1;
  const StatusOr<int> first = syrupd_.DeployThreadPolicyFile(
      app, GetPriorityThreadPolicyAsm("/syrup/a/types"), machine, config);
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string stats = syrupd_.StatsSnapshot().ToJson();
  const std::string analysis = syrupd_.AnalyzeDeployments().ToJson();

  // Cheaper than the first and with a map of its own: verifying, pricing
  // or resolving it would each change the snapshot.
  const StatusOr<int> second = syrupd_.DeployThreadPolicyFile(app, R"(
.name constant_class
.ctx thread
.map scratch hash 4 8 4
  mov r0, 2
  exit
)", machine, config);
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(syrupd_.StatsSnapshot().ToJson(), stats);
  EXPECT_EQ(syrupd_.AnalyzeDeployments().ToJson(), analysis);
  EXPECT_EQ(syrupd_
                .DeployPolicyFile(app, RoundRobinPolicyAsm(4),
                                  Hook::kSocketSelect)
                .value(),
            *first + 1);  // no prog id spent on the rejected deploy
}

TEST_F(SyrupdTest, UnknownAppRejected) {
  EXPECT_EQ(syrupd_
                .DeployPolicyFile(999, RoundRobinPolicyAsm(4),
                                  Hook::kSocketSelect)
                .status()
                .code(),
            StatusCode::kNotFound);
}

// --- isolation (§4.3) ----------------------------------------------------------------

TEST_F(SyrupdTest, PoliciesOnlySeeOwnTraffic) {
  auto app_a = syrupd_.RegisterApp("a", 1000, 9000).value();
  auto app_b = syrupd_.RegisterApp("b", 2000, 9001).value();

  // Each policy counts its runs in policy.invocations under its own app,
  // so the counters show exactly which packets each saw.
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app_a, ConstIndexPolicyAsm(0),
                                    Hook::kSocketSelect)
                  .ok());
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app_b, ConstIndexPolicyAsm(0),
                                    Hook::kSocketSelect)
                  .ok());

  stack_.GetOrCreateGroup(9000)->AddSocket(16);
  stack_.GetOrCreateGroup(9001)->AddSocket(16);

  for (int i = 0; i < 3; ++i) {
    stack_.Rx(MakePacket(9000));
  }
  stack_.Rx(MakePacket(9001));
  sim_.RunToCompletion();

  const obs::Snapshot snap = syrupd_.StatsSnapshot();
  EXPECT_EQ(snap.CounterValue("a", "socket_select", "policy.invocations"), 3u);
  EXPECT_EQ(snap.CounterValue("b", "socket_select", "policy.invocations"), 1u);
}

TEST_F(SyrupdTest, MaliciousDropPolicyOnlyHurtsItsOwner) {
  auto app_a = syrupd_.RegisterApp("victim", 1000, 9000).value();
  auto app_b = syrupd_.RegisterApp("malicious", 2000, 9001).value();
  (void)app_a;
  // "b" drops everything it schedules.
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app_b, ConstIndexPolicyAsm(kDrop),
                                    Hook::kSocketSelect)
                  .ok());
  Socket* victim_sock = stack_.GetOrCreateGroup(9000)->AddSocket(16);
  Socket* malicious_sock = stack_.GetOrCreateGroup(9001)->AddSocket(16);

  stack_.Rx(MakePacket(9000));
  stack_.Rx(MakePacket(9001));
  sim_.RunToCompletion();

  EXPECT_EQ(victim_sock->queue_length(), 1u);    // unaffected
  EXPECT_EQ(malicious_sock->queue_length(), 0u); // self-inflicted drop
  EXPECT_EQ(stack_.stats().policy_drops, 1u);
}

TEST_F(SyrupdTest, UnmatchedPortPassesThrough) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app, RoundRobinPolicyAsm(1),
                                    Hook::kSocketSelect)
                  .ok());
  Socket* other = stack_.GetOrCreateGroup(7777)->AddSocket(16);
  stack_.Rx(MakePacket(7777));
  sim_.RunToCompletion();
  EXPECT_EQ(other->queue_length(), 1u);
  EXPECT_EQ(syrupd_.dispatch_stats(Hook::kSocketSelect).no_policy, 1u);
}

// --- map fd API ------------------------------------------------------------------------

TEST_F(SyrupdTest, MapFdLifecycle) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  MapSpec spec;
  spec.max_entries = 8;
  auto created = syrupd_.MapCreate(app, spec, "/pins/counters");
  ASSERT_TRUE(created.ok());

  auto fd = client.syr_map_open("/pins/counters");
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(client.syr_map_update_elem(*fd, 3, 300).ok());
  EXPECT_EQ(client.syr_map_lookup_elem(*fd, 3).value(), 300u);
  EXPECT_TRUE(client.syr_map_close(*fd).ok());
  EXPECT_FALSE(client.syr_map_lookup_elem(*fd, 3).ok());
  EXPECT_FALSE(client.syr_map_close(*fd).ok());
}

TEST_F(SyrupdTest, StatsSnapshotCarriesMapRuntimeGauges) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 64;
  spec.name = "flows";
  auto fd = syrupd_.MapCreate(app, spec, "/pins/flows");
  ASSERT_TRUE(fd.ok());
  auto map = syrupd_.MapByFd(*fd);
  for (uint32_t k = 0; k < 12; ++k) {
    ASSERT_TRUE(map->UpdateU64(k, k).ok());
  }
  for (uint32_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(map->Delete(&k).ok());
  }

  const obs::Snapshot snap = syrupd_.StatsSnapshot();
  EXPECT_EQ(snap.GaugeValue("a", "map", "flows.occupancy"), 7);
  EXPECT_EQ(snap.GaugeValue("a", "map", "flows.tombstones"), 5);
  EXPECT_GE(snap.GaugeValue("a", "map", "flows.max_probe_len"), 1);
  EXPECT_GE(snap.GaugeValue("a", "map", "flows.epoch_lag"), 0);

  // Gauges refresh on every snapshot, not just the first.
  ASSERT_TRUE(map->UpdateU64(100, 1).ok());
  EXPECT_EQ(syrupd_.StatsSnapshot().GaugeValue("a", "map", "flows.occupancy"),
            8);
}

TEST_F(SyrupdTest, MapOpenEnforcesUid) {
  auto owner = syrupd_.RegisterApp("owner", 1000, 9000).value();
  auto other = syrupd_.RegisterApp("other", 2000, 9001).value();
  MapSpec spec;
  spec.max_entries = 8;
  ASSERT_TRUE(syrupd_.MapCreate(owner, spec, "/pins/m").ok());
  SyrupClient other_client(syrupd_, other);
  EXPECT_EQ(other_client.syr_map_open("/pins/m").status().code(),
            StatusCode::kPermissionDenied);
}

// --- bytecode path end to end ------------------------------------------------------------

TEST_F(SyrupdTest, BytecodePolicySteersPackets) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  ASSERT_TRUE(client.syr_deploy_policy(RoundRobinPolicyAsm(2),
                                       Hook::kSocketSelect)
                  .ok());
  ReuseportGroup* group = stack_.GetOrCreateGroup(9000);
  Socket* sock0 = group->AddSocket(64);
  Socket* sock1 = group->AddSocket(64);
  for (int i = 0; i < 10; ++i) {
    stack_.Rx(MakePacket(9000));
  }
  sim_.RunToCompletion();
  // Perfect 5/5 balance regardless of flow hashing.
  EXPECT_EQ(sock0->queue_length(), 5u);
  EXPECT_EQ(sock1->queue_length(), 5u);
}

// --- literal root dispatcher artifact -----------------------------------------------------

TEST(RootDispatcher, RoutesByPortViaTailCalls) {
  auto dispatcher = BuildRootDispatcher(8);
  ASSERT_TRUE(dispatcher.ok()) << dispatcher.status();

  // Two app policies: app A returns 10, app B returns 20.
  bpf::Program policy_a;
  {
    auto assembled = bpf::Assemble("mov r0, 10\nexit\n");
    policy_a.insns = assembled->insns;
    policy_a.name = "a";
  }
  bpf::Program policy_b;
  {
    auto assembled = bpf::Assemble("mov r0, 20\nexit\n");
    policy_b.insns = assembled->insns;
    policy_b.name = "b";
  }
  StatusOr<RouteHandle> route_a = dispatcher->AddRoute(9000, 0,
                                                       /*prog_id=*/101);
  ASSERT_TRUE(route_a.ok()) << route_a.status();
  StatusOr<RouteHandle> route_b = dispatcher->AddRoute(9001, 1,
                                                       /*prog_id=*/102);
  ASSERT_TRUE(route_b.ok()) << route_b.status();

  bpf::Interpreter interp(bpf::ExecEnv{},
                          [&](uint64_t id) -> const bpf::Program* {
                            if (id == 101) return &policy_a;
                            if (id == 102) return &policy_b;
                            return nullptr;
                          });

  // Drive the literal program through the batch entry point (the VM
  // mirror of Syrupd::DispatchBatch).
  const Packet p0 = MakePacket(9000);
  const Packet p1 = MakePacket(9001);
  const Packet p2 = MakePacket(9000);
  const PacketView views[3] = {PacketView::Of(p0), PacketView::Of(p1),
                               PacketView::Of(p2)};
  Decision decisions[3] = {};
  const Status batch = dispatcher->DispatchBatch(interp, views, decisions);
  ASSERT_TRUE(batch.ok()) << batch;
  EXPECT_EQ(decisions[0], 10u);
  EXPECT_EQ(decisions[1], 20u);
  EXPECT_EQ(decisions[2], 10u);

  // Dropping a route handle withdraws the route: port 9001 reverts to
  // PASS while 9000 keeps routing.
  ASSERT_TRUE(route_b->Remove().ok());
  Decision after[3] = {};
  ASSERT_TRUE(dispatcher->DispatchBatch(interp, views, after).ok());
  EXPECT_EQ(after[0], 10u);
  EXPECT_EQ(after[1], kPass);
  EXPECT_EQ(after[2], 10u);

  // A stale handle never tears down a newer route: re-point slot 0 at
  // program 102 via a fresh route, then let the original 9000 handle go
  // out of scope — the new route must survive.
  {
    StatusOr<RouteHandle> replaced = dispatcher->AddRoute(9000, 0,
                                                          /*prog_id=*/102);
    ASSERT_TRUE(replaced.ok());
    replaced->Release();  // permanent
  }
  {
    RouteHandle stale = std::move(route_a).value();
    // `stale` drops here; slot 0 no longer holds prog 101, so the
    // conditional remove is a no-op.
  }
  Decision still[1] = {};
  const PacketView one[1] = {PacketView::Of(p0)};
  ASSERT_TRUE(dispatcher->DispatchBatch(interp, one, still).ok());
  EXPECT_EQ(still[0], 20u);

  // Unowned port: default policy passes.
  const Packet unowned = MakePacket(9002);
  const PacketView unowned_view[1] = {PacketView::Of(unowned)};
  Decision unowned_decision[1] = {};
  ASSERT_TRUE(
      dispatcher->DispatchBatch(interp, unowned_view, unowned_decision).ok());
  EXPECT_EQ(unowned_decision[0], kPass);
}

TEST(RootDispatcher, RuntPacketPasses) {
  auto dispatcher = BuildRootDispatcher(8);
  ASSERT_TRUE(dispatcher.ok());
  bpf::Interpreter interp(bpf::ExecEnv{});
  uint8_t tiny[2] = {0, 1};
  auto result = interp.Run(*dispatcher->program,
                           reinterpret_cast<uint64_t>(tiny),
                           reinterpret_cast<uint64_t>(tiny + 2), true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(static_cast<uint32_t>(result->r0), kPass);
}


TEST_F(SyrupdTest, ListDeploymentsReportsAttachedPolicies) {
  auto app_a = syrupd_.RegisterApp("alpha", 1000, 9000).value();
  auto app_b = syrupd_.RegisterApp("beta", 2000, 9001).value();
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app_a, RoundRobinPolicyAsm(4),
                                    Hook::kSocketSelect)
                  .ok());
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app_b, SitaPolicyAsm(4), Hook::kXdpSkb)
                  .ok());
  auto deployments = syrupd_.ListDeployments();
  ASSERT_EQ(deployments.size(), 2u);
  bool saw_rr = false, saw_sita = false;
  for (const auto& d : deployments) {
    if (d.policy_name == "round_robin") {
      saw_rr = true;
      EXPECT_EQ(d.app_name, "alpha");
      EXPECT_EQ(d.port, 9000u);
      EXPECT_EQ(d.hook, Hook::kSocketSelect);
    }
    if (d.policy_name == "sita") {
      saw_sita = true;
      EXPECT_EQ(d.app_name, "beta");
      EXPECT_EQ(d.hook, Hook::kXdpSkb);
    }
  }
  EXPECT_TRUE(saw_rr);
  EXPECT_TRUE(saw_sita);
  // Removal is reflected.
  ASSERT_TRUE(syrupd_.RemovePolicy(app_a, Hook::kSocketSelect).ok());
  EXPECT_EQ(syrupd_.ListDeployments().size(), 1u);
}

TEST_F(SyrupdTest, ExecEnvIsDeterministicPerSeed) {
  Simulator sim_a, sim_b;
  Syrupd a(sim_a, nullptr, 42), b(sim_b, nullptr, 42);
  auto env_a = a.MakeExecEnv();
  auto env_b = b.MakeExecEnv();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(env_a.random_u32(), env_b.random_u32());
  }
}

TEST_F(SyrupdTest, ExecEnvTimeTracksSimulator) {
  auto env = syrupd_.MakeExecEnv();
  EXPECT_EQ(env.ktime_ns(), 0u);
  sim_.ScheduleAt(12'345, []() {});
  sim_.RunToCompletion();
  EXPECT_EQ(env.ktime_ns(), 12'345u);
}

// --- observability (StatsSnapshot) --------------------------------------------------------

TEST_F(SyrupdTest, StatsSnapshotCountsMatchDispatchDecisions) {
  auto app = syrupd_.RegisterApp("alpha", 1000, 9000).value();
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app, RoundRobinPolicyAsm(2),
                                    Hook::kSocketSelect)
                  .ok());
  ReuseportGroup* group = stack_.GetOrCreateGroup(9000);
  group->AddSocket(64);
  group->AddSocket(64);
  stack_.GetOrCreateGroup(7777)->AddSocket(64);

  for (int i = 0; i < 6; ++i) {
    stack_.Rx(MakePacket(9000));
  }
  stack_.Rx(MakePacket(7777));  // no policy owns this port
  sim_.RunToCompletion();

  const obs::Snapshot snap = syrupd_.StatsSnapshot();
  // Per-hook dispatcher accounting.
  EXPECT_EQ(snap.CounterValue("syrupd", "socket_select", "dispatched"), 6u);
  EXPECT_EQ(snap.CounterValue("syrupd", "socket_select", "no_policy"), 1u);
  EXPECT_EQ(snap.CounterValue("syrupd", "socket_select", "decision_steer"),
            6u);
  EXPECT_EQ(snap.CounterValue("syrupd", "socket_select", "decision_drop"),
            0u);
  // Per-app attribution.
  EXPECT_EQ(snap.CounterValue("alpha", "socket_select", "dispatched"), 6u);
  // The dispatch_stats() accessor reads the same cells.
  EXPECT_EQ(syrupd_.dispatch_stats(Hook::kSocketSelect).dispatched, 6u);
  EXPECT_EQ(syrupd_.dispatch_stats(Hook::kSocketSelect).no_policy, 1u);
  // Host-stack accounting flows into the same registry.
  EXPECT_EQ(snap.CounterValue("host", "stack", "rx_packets"), 7u);
}

TEST_F(SyrupdTest, StatsSnapshotClassifiesDropDecisions) {
  auto app = syrupd_.RegisterApp("dropper", 1000, 9000).value();
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app, ConstIndexPolicyAsm(kDrop),
                                    Hook::kSocketSelect)
                  .ok());
  stack_.GetOrCreateGroup(9000)->AddSocket(64);
  for (int i = 0; i < 3; ++i) {
    stack_.Rx(MakePacket(9000));
  }
  sim_.RunToCompletion();

  const obs::Snapshot snap = syrupd_.StatsSnapshot();
  EXPECT_EQ(snap.CounterValue("syrupd", "socket_select", "decision_drop"),
            3u);
  EXPECT_EQ(snap.CounterValue("syrupd", "socket_select", "decision_steer"),
            0u);
  EXPECT_EQ(snap.CounterValue("host", "stack", "policy_drops"), 3u);
}

TEST_F(SyrupdTest, StatsSnapshotTracksBytecodePolicyCounters) {
  auto app = syrupd_.RegisterApp("bc", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  PolicyHandle deployed =
      client.DeployPolicy(RoundRobinPolicyAsm(2), Hook::kSocketSelect)
          .value();
  ReuseportGroup* group = stack_.GetOrCreateGroup(9000);
  group->AddSocket(64);
  group->AddSocket(64);
  for (int i = 0; i < 4; ++i) {
    stack_.Rx(MakePacket(9000));
  }
  sim_.RunToCompletion();

  const obs::Snapshot snap = syrupd_.StatsSnapshot();
  EXPECT_EQ(snap.CounterValue("bc", "socket_select", "policy.invocations"),
            4u);
  EXPECT_GT(snap.CounterValue("bc", "socket_select", "policy.insns"), 0u);
  // The round-robin policy file calls map_lookup_elem once per decision.
  EXPECT_EQ(snap.CounterValue("bc", "socket_select", "policy.helper_calls"),
            4u);
  EXPECT_EQ(snap.CounterValue("bc", "socket_select", "policy.runtime_faults"),
            0u);
  // Its rr_state map was exercised through the instrumented Map layer.
  EXPECT_EQ(snap.CounterValue("bc", "map", "rr_state.lookups"), 4u);
  // JSON renders the whole tree.
  const std::string json = snap.ToJson(/*pretty=*/false);
  EXPECT_NE(json.find("\"policy.invocations\""), std::string::npos);
}

TEST_F(SyrupdTest, DeploymentPublishesVerifierStatsGauges) {
  auto app = syrupd_.RegisterApp("vf", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  PolicyHandle deployed =
      client.DeployPolicy(ScanAvoidPolicyAsm(4), Hook::kSocketSelect)
          .value();

  const obs::Snapshot snap = syrupd_.StatsSnapshot();
  // Every visited instruction costs at least one abstract step, and the
  // scan-avoid policy branches (probe loop), so states were forked.
  EXPECT_GT(snap.GaugeValue("vf", "socket_select", "verifier.visited_insns"),
            0);
  EXPECT_GT(snap.GaugeValue("vf", "socket_select", "verifier.branch_states"),
            0);
  EXPECT_GE(snap.GaugeValue("vf", "socket_select", "verifier.pruned_states"),
            0);
  EXPECT_GT(snap.GaugeValue("vf", "socket_select", "verifier.verify_ns"), 0);
}

TEST_F(SyrupdTest, ExecModeGaugeReportsEffectiveTier) {
  auto app = syrupd_.RegisterApp("em", 1000, 9000).value();
  SyrupClient client(syrupd_, app);

  // Requesting native must report what actually happened: the native tier
  // on hosts with a JIT, the compiled tier on hosts without one — never
  // the raw requested mode.
  syrupd_.set_exec_mode(bpf::ExecMode::kNative);
  {
    PolicyHandle deployed =
        client.DeployPolicy(RoundRobinPolicyAsm(2), Hook::kSocketSelect)
            .value();
    const obs::Snapshot snap = syrupd_.StatsSnapshot();
    const auto effective = static_cast<bpf::ExecMode>(
        snap.GaugeValue("em", "socket_select", "policy.exec_mode"));
    if (bpf::JitAvailable()) {
      EXPECT_EQ(effective, bpf::ExecMode::kNative);
      EXPECT_GT(snap.GaugeValue("em", "socket_select",
                                "policy.jit_code_bytes"),
                0);
      EXPECT_GT(snap.GaugeValue("em", "socket_select", "policy.jit_ns"), 0);
    } else {
      EXPECT_EQ(effective, bpf::ExecMode::kCompiled);
    }
  }

  // Forced fallback (the documented non-x86-64 behavior): still a native
  // request, but the gauge must say compiled.
  setenv("SYRUP_JIT_DISABLE", "1", 1);
  {
    PolicyHandle deployed =
        client.DeployPolicy(RoundRobinPolicyAsm(2), Hook::kSocketSelect)
            .value();
    const obs::Snapshot snap = syrupd_.StatsSnapshot();
    EXPECT_EQ(static_cast<bpf::ExecMode>(snap.GaugeValue(
                  "em", "socket_select", "policy.exec_mode")),
              bpf::ExecMode::kCompiled);
  }
  unsetenv("SYRUP_JIT_DISABLE");
}

// --- typed RAII handles -------------------------------------------------------------------

TEST_F(SyrupdTest, DroppedMapHandleClosesFd) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  MapSpec spec;
  spec.max_entries = 8;
  int raw_fd = -1;
  {
    MapHandle handle = client.MapCreate(spec, "/pins/scoped").value();
    raw_fd = handle.fd();
    ASSERT_TRUE(handle.Update(1, 100).ok());
    EXPECT_EQ(handle.Lookup(1).value(), 100u);
    EXPECT_NE(syrupd_.MapByFd(raw_fd), nullptr);
  }
  // The handle died: the fd is gone, the pin (and its data) survive.
  EXPECT_EQ(syrupd_.MapByFd(raw_fd), nullptr);
  EXPECT_FALSE(syrupd_.MapLookupElem(raw_fd, 1).ok());
  auto reopened = client.MapOpen("/pins/scoped");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Lookup(1).value(), 100u);
}

TEST_F(SyrupdTest, ReleasedMapHandleLeavesFdOpen) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  MapSpec spec;
  spec.max_entries = 8;
  int raw_fd = -1;
  {
    MapHandle handle = client.MapCreate(spec, "/pins/released").value();
    raw_fd = handle.Release();  // the shim path: caller owns the fd now
  }
  EXPECT_NE(syrupd_.MapByFd(raw_fd), nullptr);
  EXPECT_TRUE(client.syr_map_close(raw_fd).ok());
}

TEST_F(SyrupdTest, ReadOnlyMapHandleRejectsUpdates) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  MapSpec spec;
  spec.max_entries = 8;
  ASSERT_TRUE(client.MapCreate(spec, "/pins/ro").value().Update(2, 7).ok());

  MapHandle ro = client.MapOpen("/pins/ro", MapAccess::kRead).value();
  EXPECT_EQ(ro.access(), MapAccess::kRead);
  EXPECT_EQ(ro.Lookup(2).value(), 7u);
  EXPECT_EQ(ro.Update(2, 8).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(syrupd_.MapFdAccess(ro.fd()), MapAccess::kRead);
}

TEST_F(SyrupdTest, DroppedPolicyHandleDetaches) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  {
    PolicyHandle handle =
        client.DeployPolicy(RoundRobinPolicyAsm(2), Hook::kSocketSelect)
            .value();
    EXPECT_TRUE(handle.valid());
    EXPECT_EQ(handle.hook(), Hook::kSocketSelect);
    EXPECT_EQ(syrupd_.ListDeployments().size(), 1u);
  }
  EXPECT_EQ(syrupd_.ListDeployments().size(), 0u);
  EXPECT_FALSE(static_cast<bool>(stack_.hooks().socket_select));
}

TEST_F(SyrupdTest, StalePolicyHandleDoesNotDetachNewerDeployment) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  auto first =
      client.DeployPolicy(RoundRobinPolicyAsm(2), Hook::kSocketSelect)
          .value();
  // Redeploy (policy update at runtime): `first` is now stale.
  auto second =
      client.DeployPolicy(RoundRobinPolicyAsm(4), Hook::kSocketSelect)
          .value();
  EXPECT_NE(first.prog_id(), second.prog_id());

  // Dropping the stale handle must not tear down the live deployment.
  { PolicyHandle dying = std::move(first); }
  EXPECT_EQ(syrupd_.ListDeployments().size(), 1u);
  EXPECT_NE(syrupd_.PolicyAt(Hook::kSocketSelect, 9000), nullptr);

  // Dropping the live handle does.
  EXPECT_TRUE(second.Detach().ok());
  EXPECT_EQ(syrupd_.ListDeployments().size(), 0u);
}

TEST_F(SyrupdTest, ProgramByIdResolvesDeployedBytecode) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  auto prog_id = client.syr_deploy_policy(RoundRobinPolicyAsm(4),
                                          Hook::kSocketSelect);
  ASSERT_TRUE(prog_id.ok());
  const bpf::Program* program =
      syrupd_.ProgramById(static_cast<uint64_t>(*prog_id));
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->name, "round_robin");
  EXPECT_EQ(syrupd_.ProgramById(999'999), nullptr);
  // Every bytecode deployment compiles at attach time, so a tail call
  // finds each one in the compile cache.
  const bpf::CompiledProgram* compiled =
      syrupd_.CompiledById(static_cast<uint64_t>(*prog_id));
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->name, "round_robin");
  EXPECT_EQ(syrupd_.CompiledById(999'999), nullptr);
}

// --- deploy-time WCET budgets ------------------------------------------------

// Verifiable (the loop bound is concrete) but far too slow for a tight
// packet hook: the compiled-tier wcet is ~3 us against xdp_offload's 1 us
// budget.
constexpr char kBurnerPolicy[] = R"(
.name burner
.ctx packet
  mov r6, 0
  mov r0, 0
loop:
  jge r6, 600, done
  add r0, 3
  add r6, 1
  ja loop
done:
  exit
)";

TEST_F(SyrupdTest, OverBudgetPolicyRejectedAtTightHook) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  auto fd = client.syr_deploy_policy(kBurnerPolicy, Hook::kXdpOffload);
  ASSERT_FALSE(fd.ok());
  // The rejection names the worst-case cost, the budget, and the concrete
  // hottest path so the author can see where the time goes.
  EXPECT_NE(fd.status().message().find("worst-case path"),
            std::string::npos)
      << fd.status();
  EXPECT_NE(fd.status().message().find("hottest path"), std::string::npos);
  EXPECT_NE(fd.status().message().find("xdp_offload"), std::string::npos);
  EXPECT_FALSE(static_cast<bool>(stack_.hooks().xdp_offload));
  // The same program fits the looser socket_select budget.
  EXPECT_TRUE(
      client.syr_deploy_policy(kBurnerPolicy, Hook::kSocketSelect).ok());
}

TEST_F(SyrupdTest, OverBudgetOverrideAdmitsWithWarningGauge) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  syrupd_.set_admit_over_budget(true);
  auto fd = client.syr_deploy_policy(kBurnerPolicy, Hook::kXdpOffload);
  ASSERT_TRUE(fd.ok()) << fd.status();
  const obs::Snapshot snapshot = syrupd_.StatsSnapshot();
  EXPECT_EQ(snapshot.GaugeValue("a", "xdp_offload", "policy.over_budget"),
            1);
  EXPECT_GT(snapshot.GaugeValue("a", "xdp_offload", "policy.wcet_ns"),
            1000);
  EXPECT_GT(snapshot.GaugeValue("a", "xdp_offload", "policy.wcet_insns"),
            0);
}

TEST_F(SyrupdTest, InBudgetPolicyPublishesWcetGauges) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  ASSERT_TRUE(client
                  .syr_deploy_policy(RoundRobinPolicyAsm(4),
                                     Hook::kSocketSelect)
                  .ok());
  const obs::Snapshot snapshot = syrupd_.StatsSnapshot();
  EXPECT_GT(snapshot.GaugeValue("a", "socket_select", "policy.wcet_ns"),
            0);
  EXPECT_GT(snapshot.GaugeValue("a", "socket_select", "policy.wcet_insns"),
            0);
  EXPECT_EQ(snapshot.GaugeValue("a", "socket_select", "policy.over_budget"),
            0);
}

// The thread-hook counterpart: ~50 us worst case against the 20 us budget.
constexpr char kThreadBurnerPolicy[] = R"(
.name thread_burner
.ctx thread
  mov r6, 0
  mov r0, 1
loop:
  jge r6, 10000, done
  add r0, 3
  add r6, 1
  ja loop
done:
  exit
)";

// A deploy the budget gate rejects publishes none of its gauges, so the
// live deployment's verifier.*, policy.compile_ns, exec-tier and budget
// gauges read as before.
TEST_F(SyrupdTest, RejectedPacketDeployLeavesGaugesAlone) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app, ConstIndexPolicyAsm(0),
                                    Hook::kXdpOffload)
                  .ok());
  const std::string stats = syrupd_.StatsSnapshot().ToJson();
  const std::string analysis = syrupd_.AnalyzeDeployments().ToJson();

  const StatusOr<int> burner =
      syrupd_.DeployPolicyFile(app, kBurnerPolicy, Hook::kXdpOffload);
  ASSERT_FALSE(burner.ok());
  EXPECT_NE(burner.status().message().find("worst-case path"),
            std::string::npos)
      << burner.status();
  EXPECT_EQ(syrupd_.StatsSnapshot().ToJson(), stats);
  EXPECT_EQ(syrupd_.AnalyzeDeployments().ToJson(), analysis);
}

TEST_F(SyrupdTest, RejectedThreadDeployLeavesGaugesAlone) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  ASSERT_TRUE(syrupd_
                  .DeployPolicyFile(app, ConstIndexPolicyAsm(0),
                                    Hook::kXdpOffload)
                  .ok());
  const std::string stats = syrupd_.StatsSnapshot().ToJson();
  const std::string analysis = syrupd_.AnalyzeDeployments().ToJson();

  Machine machine(sim_, 2);
  GhostConfig config;
  config.num_managed_cores = 1;
  const StatusOr<int> burner = syrupd_.DeployThreadPolicyFile(
      app, kThreadBurnerPolicy, machine, config);
  ASSERT_FALSE(burner.ok());
  EXPECT_NE(burner.status().message().find("worst-case path"),
            std::string::npos)
      << burner.status();
  EXPECT_EQ(syrupd_.StatsSnapshot().ToJson(), stats);
  EXPECT_EQ(syrupd_.AnalyzeDeployments().ToJson(), analysis);
}

// What a rejected deploy could leave behind, short of a spent prog id: its
// declared maps' pins (and their op counters), gauges and analysis rows.
struct DaemonTrace {
  std::vector<std::string> pins;
  std::string stats;
  std::string analysis;
};

DaemonTrace TraceOf(Syrupd& syrupd) {
  return {syrupd.registry().ListPaths(), syrupd.StatsSnapshot().ToJson(),
          syrupd.AnalyzeDeployments().ToJson()};
}

void ExpectNoTraceLeft(Syrupd& syrupd, const DaemonTrace& before) {
  const DaemonTrace after = TraceOf(syrupd);
  EXPECT_EQ(after.pins, before.pins);
  EXPECT_EQ(after.stats, before.stats);
  EXPECT_EQ(after.analysis, before.analysis);
}

// The sources below each declare a fresh map: a rejection at the verifier
// or at the budget gate must not pin it.
constexpr char kUnverifiablePacketPolicy[] = R"(
.name unbounded_read
.ctx packet
.map scratch array 4 8 1024
  ldxw r0, [r1+0]
  exit
)";

constexpr char kUnverifiableThreadPolicy[] = R"(
.name uninit_class
.ctx thread
.map scratch hash 4 8 16
  mov r0, r5
  exit
)";

// Adds a map declaration to a burner policy above, which the budget gate
// rejects at a tight hook.
std::string WithScratchMap(const char* source) {
  std::string text = source;
  const std::string ctx_line = text.find(".ctx thread") != std::string::npos
                                   ? ".ctx thread\n"
                                   : ".ctx packet\n";
  text.replace(text.find(ctx_line), ctx_line.size(),
               ctx_line + ".map scratch array 4 8 1024\n");
  return text;
}

TEST_F(SyrupdTest, RejectedPacketDeployLeavesNothingBehind) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  const StatusOr<int> live =
      syrupd_.DeployPolicyFile(app, RoundRobinPolicyAsm(4),
                               Hook::kSocketSelect);
  ASSERT_TRUE(live.ok()) << live.status();
  const DaemonTrace before = TraceOf(syrupd_);

  const StatusOr<int> unverifiable = syrupd_.DeployPolicyFile(
      app, kUnverifiablePacketPolicy, Hook::kSocketSelect);
  ASSERT_FALSE(unverifiable.ok());
  EXPECT_NE(unverifiable.status().message().find("verifier"),
            std::string::npos)
      << unverifiable.status();
  ExpectNoTraceLeft(syrupd_, before);

  const StatusOr<int> over_budget = syrupd_.DeployPolicyFile(
      app, WithScratchMap(kBurnerPolicy), Hook::kXdpOffload);
  ASSERT_FALSE(over_budget.ok());
  EXPECT_NE(over_budget.status().message().find("worst-case path"),
            std::string::npos)
      << over_budget.status();
  ExpectNoTraceLeft(syrupd_, before);

  // No prog id was spent on either rejection.
  EXPECT_EQ(syrupd_
                .DeployPolicyFile(app, ConstIndexPolicyAsm(0), Hook::kXdpDrv)
                .value(),
            *live + 1);
}

TEST_F(SyrupdTest, RejectedThreadDeployLeavesNothingBehind) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  const StatusOr<int> live =
      syrupd_.DeployPolicyFile(app, RoundRobinPolicyAsm(4),
                               Hook::kSocketSelect);
  ASSERT_TRUE(live.ok()) << live.status();
  const DaemonTrace before = TraceOf(syrupd_);
  Machine machine(sim_, 2);
  GhostConfig config;
  config.num_managed_cores = 1;

  const StatusOr<int> unverifiable = syrupd_.DeployThreadPolicyFile(
      app, kUnverifiableThreadPolicy, machine, config);
  ASSERT_FALSE(unverifiable.ok());
  EXPECT_NE(unverifiable.status().message().find("verifier"),
            std::string::npos)
      << unverifiable.status();
  ExpectNoTraceLeft(syrupd_, before);

  const StatusOr<int> over_budget = syrupd_.DeployThreadPolicyFile(
      app, WithScratchMap(kThreadBurnerPolicy), machine, config);
  ASSERT_FALSE(over_budget.ok());
  EXPECT_NE(over_budget.status().message().find("worst-case path"),
            std::string::npos)
      << over_budget.status();
  ExpectNoTraceLeft(syrupd_, before);
  EXPECT_EQ(syrupd_.ghost_scheduler(), nullptr);

  // No prog id was spent, and the machine's thread hook is still free.
  EXPECT_EQ(syrupd_
                .DeployThreadPolicyFile(app, R"(
.name constant_class
.ctx thread
  mov r0, 1
  exit
)", machine, config)
                .value(),
            *live + 1);
}

// --- deployment interference analysis ----------------------------------------

TEST_F(SyrupdTest, AnalyzeDeploymentsFlagsCrossAppWriteWrite) {
  auto alpha = syrupd_.RegisterApp("alpha", 1000, 9000).value();
  auto beta = syrupd_.RegisterApp("beta", 2000, 9001).value();
  MapSpec spec;
  spec.max_entries = 4;
  PinMode world;
  world.world_readable = true;
  world.world_writable = true;
  ASSERT_TRUE(syrupd_.MapCreate(alpha, spec, "/pins/shared", world).ok());

  const std::string writer = R"(
.name writer
.ctx packet
.extern_map m /pins/shared
  stw [r10-4], 0
  stdw [r10-16], 1
  ldmapfd r1, m
  mov r2, r10
  add r2, -4
  mov r3, r10
  add r3, -16
  call map_update_elem
  mov r0, PASS
  exit
)";
  SyrupClient alpha_client(syrupd_, alpha);
  SyrupClient beta_client(syrupd_, beta);
  ASSERT_TRUE(
      alpha_client.syr_deploy_policy(writer, Hook::kSocketSelect).ok());
  ASSERT_TRUE(
      beta_client.syr_deploy_policy(writer, Hook::kSocketSelect).ok());

  const DeploymentAnalysis analysis = syrupd_.AnalyzeDeployments();
  ASSERT_TRUE(analysis.HasErrors());
  bool found = false;
  for (const InterferenceFinding& f : analysis.findings) {
    if (f.category != "write-write") {
      continue;
    }
    found = true;
    EXPECT_EQ(f.level, InterferenceFinding::Level::kError);
    EXPECT_EQ(f.map, "/pins/shared");
    EXPECT_NE(f.detail.find("alpha/socket_select/writer"),
              std::string::npos);
    EXPECT_NE(f.detail.find("beta/socket_select/writer"),
              std::string::npos);
  }
  EXPECT_TRUE(found);
  // The shared row names both writers against the pin path.
  bool row_found = false;
  for (const MapInterferenceRow& row : analysis.rows) {
    if (row.map == "/pins/shared") {
      row_found = true;
      EXPECT_EQ(row.writers.size(), 2u);
    }
  }
  EXPECT_TRUE(row_found);
  // JSON rendering is well-formed enough to carry the same error.
  EXPECT_NE(analysis.ToJson().find("\"level\":\"error\""),
            std::string::npos);
}

TEST_F(SyrupdTest, AnalyzeDeploymentsSingleAppIsErrorFree) {
  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  SyrupClient client(syrupd_, app);
  ASSERT_TRUE(client
                  .syr_deploy_policy(RoundRobinPolicyAsm(4),
                                     Hook::kSocketSelect)
                  .ok());
  const DeploymentAnalysis analysis = syrupd_.AnalyzeDeployments();
  EXPECT_FALSE(analysis.HasErrors());
  // Round robin reads and writes its own cursor map: one row and no
  // finding. A packet program's impurity is no finding; only a thread
  // classifier's, which the agent would otherwise memoize.
  ASSERT_EQ(analysis.rows.size(), 1u);
  EXPECT_EQ(analysis.rows[0].readers.size(), 1u);
  EXPECT_EQ(analysis.rows[0].writers.size(), 1u);
  EXPECT_TRUE(analysis.findings.empty());
}

// Analyze reports whether the ghOSt agent can memoize a thread classifier
// per pass, and which instruction keeps it from doing so.
TEST_F(SyrupdTest, AnalyzeDeploymentsNamesUnmemoizedThreadClassifier) {
  auto memo_findings = [](const Syrupd& syrupd) {
    std::vector<InterferenceFinding> out;
    for (const InterferenceFinding& f : syrupd.AnalyzeDeployments().findings) {
      if (f.category == "unmemoized") {
        out.push_back(f);
      }
    }
    return out;
  };
  GhostConfig config;
  config.num_managed_cores = 1;

  auto app = syrupd_.RegisterApp("a", 1000, 9000).value();
  Machine machine(sim_, 2);
  ASSERT_TRUE(syrupd_
                  .DeployThreadPolicyFile(app, R"(
.name coin_class
.ctx thread
  call get_prandom_u32
  and r0, 1
  add r0, 1
  exit
)", machine, config)
                  .ok());
  const std::vector<InterferenceFinding> impure = memo_findings(syrupd_);
  ASSERT_EQ(impure.size(), 1u);
  EXPECT_EQ(impure[0].category, "unmemoized");
  EXPECT_EQ(impure[0].level, InterferenceFinding::Level::kInfo);
  EXPECT_EQ(impure[0].detail,
            "a/thread_scheduler/coin_class runs its classifier on every "
            "agent query: insn 0: get_prandom_u32 (nondeterministic "
            "result)");

  Syrupd pure_daemon(sim_, nullptr);
  auto pure_app = pure_daemon.RegisterApp("b", 1000, 9000).value();
  Machine pure_machine(sim_, 2);
  ASSERT_TRUE(pure_daemon
                  .DeployThreadPolicyFile(pure_app, R"(
.name constant_class
.ctx thread
  mov r0, 1
  exit
)", pure_machine, config)
                  .ok());
  EXPECT_TRUE(memo_findings(pure_daemon).empty());
}

}  // namespace
}  // namespace syrup
