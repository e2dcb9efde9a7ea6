// Trace subsystem tests, including the trace points wired into the stack,
// ghOSt scheduler, and syrupd.
#include <gtest/gtest.h>

#include "src/common/trace.h"
#include "src/core/syrupd.h"
#include "src/ghost/ghost.h"
#include "src/net/stack.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"
#include "tests/oracles/native_policies.h"

namespace syrup {
namespace {

// The tracer is process-global: each test fixture resets it.
class TraceTest : public testing::Test {
 protected:
  TraceTest() { Tracer::Get().Enable(64); }
  ~TraceTest() override { Tracer::Get().Disable(); }
};

TEST_F(TraceTest, DisabledByDefaultCostsNothing) {
  Tracer::Get().Disable();
  SYRUP_TRACE(1, "x", "never recorded");
  EXPECT_EQ(Tracer::Get().total_recorded(), 0u);
}

TEST_F(TraceTest, RecordsEventsInOrder) {
  SYRUP_TRACE(10, "cat", "first " << 1);
  SYRUP_TRACE(20, "cat", "second " << 2);
  const auto events = Tracer::Get().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].when, 10u);
  EXPECT_EQ(events[0].message, "first 1");
  EXPECT_EQ(events[1].message, "second 2");
}

TEST_F(TraceTest, RingDropsOldest) {
  Tracer::Get().Enable(4);
  for (int i = 0; i < 10; ++i) {
    SYRUP_TRACE(static_cast<Time>(i), "cat", "event " << i);
  }
  const auto events = Tracer::Get().Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].message, "event 6");
  EXPECT_EQ(events[3].message, "event 9");
  EXPECT_EQ(Tracer::Get().total_recorded(), 10u);
  EXPECT_EQ(Tracer::Get().dropped(), 6u);
}

TEST_F(TraceTest, CategoryFilterAndDump) {
  SYRUP_TRACE(1, "a", "one");
  SYRUP_TRACE(2, "b", "two");
  SYRUP_TRACE(3, "a", "three");
  EXPECT_EQ(Tracer::Get().SnapshotCategory("a").size(), 2u);
  EXPECT_EQ(Tracer::Get().SnapshotCategory("b").size(), 1u);
  const std::string dump = Tracer::Get().Dump();
  EXPECT_NE(dump.find("2 [b] two"), std::string::npos);
}

TEST_F(TraceTest, StackEmitsDropEvents) {
  Simulator sim;
  StackConfig config;
  config.num_nic_queues = 1;
  config.socket_queue_depth = 1;
  HostStack stack(sim, config);
  stack.GetOrCreateGroup(9000)->AddSocket(1);
  for (int i = 0; i < 4; ++i) {
    Packet pkt;
    pkt.tuple.dst_port = 9000;
    pkt.SetHeader(ReqType::kGet, 1, 0, static_cast<uint64_t>(i), 0);
    stack.Rx(pkt);
  }
  sim.RunToCompletion();
  const auto drops = Tracer::Get().SnapshotCategory("stack");
  ASSERT_FALSE(drops.empty());
  EXPECT_NE(drops[0].message.find("socket drop port=9000"),
            std::string::npos);
}

TEST_F(TraceTest, SyrupdEmitsDeployEvents) {
  Simulator sim;
  StackConfig config;
  config.num_nic_queues = 1;
  HostStack stack(sim, config);
  Syrupd syrupd(sim, &stack);
  auto app = syrupd.RegisterApp("traced", 1000, 9000).value();
  ASSERT_TRUE(syrupd
                  .DeployPolicyFile(app, RoundRobinPolicyAsm(2),
                                    Hook::kSocketSelect)
                  .ok());
  const auto events = Tracer::Get().SnapshotCategory("syrupd");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].message.find("app=traced"), std::string::npos);
  EXPECT_NE(events[0].message.find("policy=round_robin"), std::string::npos);
  EXPECT_NE(events[0].message.find("hook=socket_select"), std::string::npos);
}

TEST_F(TraceTest, GhostEmitsCommitAndPreemptEvents) {
  Simulator sim;
  Machine machine(sim, 1);
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 8;
  auto types = CreateMap(spec).value();
  GetPriorityGhostPolicy policy(types);
  GhostConfig ghost_config;
  ghost_config.num_managed_cores = 1;
  GhostScheduler sched(machine, policy, ghost_config);
  machine.SetScheduler(&sched);

  Thread* scan_thread = machine.CreateThread("scan");
  Thread* get_thread = machine.CreateThread("get");
  scan_thread->SetSegmentDoneCallback([] {});
  get_thread->SetSegmentDoneCallback([] {});
  ASSERT_TRUE(types->UpdateU64(static_cast<uint32_t>(scan_thread->tid()),
                               static_cast<uint64_t>(ReqType::kScan)).ok());
  ASSERT_TRUE(types->UpdateU64(static_cast<uint32_t>(get_thread->tid()),
                               static_cast<uint64_t>(ReqType::kGet)).ok());
  machine.AddWork(scan_thread, 500 * kMicrosecond);
  machine.Wake(scan_thread);
  sim.ScheduleAt(50 * kMicrosecond, [&]() {
    machine.AddWork(get_thread, 10 * kMicrosecond);
    machine.Wake(get_thread);
  });
  sim.RunToCompletion();

  bool saw_commit = false;
  bool saw_preempt = false;
  for (const auto& event : Tracer::Get().SnapshotCategory("ghost")) {
    saw_commit |= event.message.find("commit") == 0;
    saw_preempt |= event.message.find("preempt") == 0;
  }
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_preempt);
}

}  // namespace
}  // namespace syrup
