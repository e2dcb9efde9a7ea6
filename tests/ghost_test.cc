#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/syrupd.h"
#include "src/ghost/ghost.h"
#include "src/map/map.h"
#include "src/policies/builtin.h"
#include "src/sched/machine.h"
#include "src/sim/simulator.h"
#include "tests/oracles/native_policies.h"

namespace syrup {
namespace {

struct GhostRig {
  explicit GhostRig(int cores, int managed, GhostPolicy& policy)
      : machine(sim, cores), sched(machine, policy, Config(managed)) {
    machine.SetScheduler(&sched);
  }

  static GhostConfig Config(int managed) {
    GhostConfig config;
    config.num_managed_cores = managed;
    return config;
  }

  Simulator sim;
  Machine machine;
  GhostScheduler sched;
};

TEST(Ghost, PlacesThreadAfterMessageAndCommitDelays) {
  FcfsGhostPolicy policy;
  GhostRig rig(2, 1, policy);
  Thread* thread = rig.machine.CreateThread("t");
  Time done = 0;
  thread->SetSegmentDoneCallback([&]() { done = rig.sim.Now(); });
  rig.machine.AddWork(thread, 100);
  rig.machine.Wake(thread);
  rig.sim.RunToCompletion();
  const GhostConfig config = GhostRig::Config(1);
  // Wakeup -> message delay -> per-message cost -> commit delay -> 100ns.
  const Time expected = config.message_delay + config.per_message_cost +
                        config.commit_delay + 100;
  EXPECT_EQ(done, expected);
  EXPECT_GE(rig.sched.messages_processed(), 1u);
  EXPECT_EQ(rig.sched.commits(), 1u);
}

TEST(Ghost, NeverUsesUnmanagedCores) {
  FcfsGhostPolicy policy;
  GhostRig rig(4, 2, policy);  // cores 2,3 reserved (agent + spare)
  std::vector<Thread*> threads;
  int completions = 0;
  for (int i = 0; i < 4; ++i) {
    Thread* thread = rig.machine.CreateThread("t");
    thread->SetSegmentDoneCallback([&]() { ++completions; });
    rig.machine.AddWork(thread, 10'000);
    threads.push_back(thread);
  }
  for (Thread* thread : threads) {
    rig.machine.Wake(thread);
  }
  rig.sim.RunUntil(5'000);
  EXPECT_EQ(rig.machine.CurrentOn(2), nullptr);
  EXPECT_EQ(rig.machine.CurrentOn(3), nullptr);
  EXPECT_NE(rig.machine.CurrentOn(0), nullptr);
  EXPECT_NE(rig.machine.CurrentOn(1), nullptr);
  rig.sim.RunToCompletion();
  EXPECT_EQ(completions, 4);
}

TEST(Ghost, FcfsOrdersByWakeTime) {
  FcfsGhostPolicy policy;
  GhostRig rig(1, 1, policy);
  Thread* first = rig.machine.CreateThread("first");
  Thread* second = rig.machine.CreateThread("second");
  std::vector<std::string> order;
  first->SetSegmentDoneCallback([&]() { order.push_back("first"); });
  second->SetSegmentDoneCallback([&]() { order.push_back("second"); });
  rig.machine.AddWork(first, 1000);
  rig.machine.AddWork(second, 1000);
  rig.machine.Wake(first);
  rig.sim.ScheduleAt(10, [&]() { rig.machine.Wake(second); });
  rig.sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

TEST(Ghost, GetPriorityPolicyJumpsQueue) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 16;
  auto types = CreateMap(spec).value();
  GetPriorityGhostPolicy policy(types);
  GhostRig rig(1, 1, policy);

  Thread* scan_thread = rig.machine.CreateThread("scan");
  Thread* get_thread = rig.machine.CreateThread("get");
  std::vector<std::string> order;
  scan_thread->SetSegmentDoneCallback([&]() { order.push_back("scan"); });
  get_thread->SetSegmentDoneCallback([&]() { order.push_back("get"); });

  ASSERT_TRUE(types->UpdateU64(static_cast<uint32_t>(scan_thread->tid()),
                               static_cast<uint64_t>(ReqType::kScan))
                  .ok());
  ASSERT_TRUE(types->UpdateU64(static_cast<uint32_t>(get_thread->tid()),
                               static_cast<uint64_t>(ReqType::kGet))
                  .ok());

  // Both wake in the same agent batch, SCAN first; the GET thread still
  // runs first under strict priority.
  rig.machine.AddWork(scan_thread, 700'000);
  rig.machine.AddWork(get_thread, 10'000);
  rig.machine.Wake(scan_thread);
  rig.machine.Wake(get_thread);
  rig.sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<std::string>{"get", "scan"}));
}

TEST(Ghost, GetPreemptsRunningScan) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 16;
  auto types = CreateMap(spec).value();
  GetPriorityGhostPolicy policy(types);
  GhostRig rig(1, 1, policy);

  Thread* scan_thread = rig.machine.CreateThread("scan");
  Thread* get_thread = rig.machine.CreateThread("get");
  Time get_done = 0;
  Time scan_done = 0;
  scan_thread->SetSegmentDoneCallback([&]() { scan_done = rig.sim.Now(); });
  get_thread->SetSegmentDoneCallback([&]() { get_done = rig.sim.Now(); });
  ASSERT_TRUE(types->UpdateU64(static_cast<uint32_t>(scan_thread->tid()),
                               static_cast<uint64_t>(ReqType::kScan))
                  .ok());
  ASSERT_TRUE(types->UpdateU64(static_cast<uint32_t>(get_thread->tid()),
                               static_cast<uint64_t>(ReqType::kGet))
                  .ok());

  rig.machine.AddWork(scan_thread, 700 * kMicrosecond);
  rig.machine.Wake(scan_thread);
  // GET arrives mid-SCAN; the policy preempts "at will" (paper §5.3).
  rig.sim.ScheduleAt(100 * kMicrosecond, [&]() {
    rig.machine.AddWork(get_thread, 10 * kMicrosecond);
    rig.machine.Wake(get_thread);
  });
  rig.sim.RunToCompletion();
  EXPECT_GE(rig.sched.preemptions(), 1u);
  EXPECT_LT(get_done, 150 * kMicrosecond);  // didn't wait out the SCAN
  EXPECT_GT(scan_done, 700 * kMicrosecond);
  // SCAN work is conserved across preemption.
  EXPECT_EQ(scan_thread->total_cpu(), 700 * kMicrosecond);
}

TEST(Ghost, ScanDoesNotPreemptScan) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 16;
  auto types = CreateMap(spec).value();
  GetPriorityGhostPolicy policy(types);
  GhostRig rig(1, 1, policy);

  Thread* a = rig.machine.CreateThread("scan_a");
  Thread* b = rig.machine.CreateThread("scan_b");
  a->SetSegmentDoneCallback([] {});
  b->SetSegmentDoneCallback([] {});
  for (Thread* thread : {a, b}) {
    ASSERT_TRUE(types->UpdateU64(static_cast<uint32_t>(thread->tid()),
                                 static_cast<uint64_t>(ReqType::kScan))
                    .ok());
  }
  rig.machine.AddWork(a, 700 * kMicrosecond);
  rig.machine.Wake(a);
  rig.sim.ScheduleAt(50 * kMicrosecond, [&]() {
    rig.machine.AddWork(b, 700 * kMicrosecond);
    rig.machine.Wake(b);
  });
  rig.sim.RunToCompletion();
  EXPECT_EQ(rig.sched.preemptions(), 0u);
}

TEST(Ghost, UnclassifiedThreadTreatedAsShort) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 16;
  auto types = CreateMap(spec).value();
  GetPriorityGhostPolicy policy(types);
  const GhostThreadInfo info{42, 0};
  // tid 42 not in the map: PickThread treats it as GET-class.
  EXPECT_EQ(policy.PickThread(0, {info}), 42);
}

TEST(Ghost, PolicyCanLeaveCoreIdle) {
  class NeverPlace : public GhostPolicy {
   public:
    int PickThread(int, const std::vector<GhostThreadInfo>&) override {
      return -1;
    }
  };
  NeverPlace policy;
  GhostRig rig(1, 1, policy);
  Thread* thread = rig.machine.CreateThread("t");
  thread->SetSegmentDoneCallback([] {});
  rig.machine.AddWork(thread, 100);
  rig.machine.Wake(thread);
  rig.sim.RunUntil(1 * kMillisecond);
  EXPECT_EQ(thread->state(), Thread::State::kRunnable);  // starved by policy
  EXPECT_EQ(rig.sched.commits(), 0u);
}

TEST(Ghost, StalePickIsIgnored) {
  class PickBogus : public GhostPolicy {
   public:
    int PickThread(int, const std::vector<GhostThreadInfo>&) override {
      return 999;  // not a runnable tid
    }
  };
  PickBogus policy;
  GhostRig rig(1, 1, policy);
  Thread* thread = rig.machine.CreateThread("t");
  thread->SetSegmentDoneCallback([] {});
  rig.machine.AddWork(thread, 100);
  rig.machine.Wake(thread);
  rig.sim.RunUntil(1 * kMillisecond);
  EXPECT_EQ(rig.sched.commits(), 0u);  // bogus pick skipped, no crash
}


TEST(Ghost, ManyThreadsManyCores) {
  // 12 threads over 3 managed cores: everything completes, total CPU time
  // is conserved, unmanaged core untouched.
  FcfsGhostPolicy policy;
  GhostRig rig(4, 3, policy);
  std::vector<Thread*> threads;
  int completions = 0;
  for (int i = 0; i < 12; ++i) {
    Thread* thread = rig.machine.CreateThread("t" + std::to_string(i));
    thread->SetSegmentDoneCallback([&]() { ++completions; });
    rig.machine.AddWork(thread, 10'000 + static_cast<Duration>(i) * 100);
    threads.push_back(thread);
  }
  for (Thread* thread : threads) {
    rig.machine.Wake(thread);
  }
  rig.sim.RunToCompletion();
  EXPECT_EQ(completions, 12);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(threads[static_cast<size_t>(i)]->total_cpu(),
              10'000u + static_cast<Duration>(i) * 100);
  }
  EXPECT_EQ(rig.machine.CoreUtilization(3), 0.0);
  EXPECT_EQ(rig.sched.commits(), 12u);
}

TEST(Ghost, RepeatedWakeBlockCycles) {
  FcfsGhostPolicy policy;
  GhostRig rig(1, 1, policy);
  Thread* thread = rig.machine.CreateThread("t");
  int completions = 0;
  thread->SetSegmentDoneCallback([&]() { ++completions; });
  // Wake it 10 times with gaps larger than the run time.
  for (int i = 0; i < 10; ++i) {
    rig.sim.ScheduleAt(static_cast<Time>(i) * 100'000, [&]() {
      rig.machine.AddWork(thread, 1000);
      rig.machine.Wake(thread);
    });
  }
  rig.sim.RunToCompletion();
  EXPECT_EQ(completions, 10);
  EXPECT_EQ(thread->total_cpu(), 10'000u);
}

TEST(Ghost, PreemptionConservesWorkAcrossManyCycles) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 16;
  auto types = CreateMap(spec).value();
  GetPriorityGhostPolicy policy(types);
  GhostRig rig(1, 1, policy);

  Thread* scan_thread = rig.machine.CreateThread("scan");
  Thread* get_thread = rig.machine.CreateThread("get");
  Time scan_done = 0;
  int gets_done = 0;
  scan_thread->SetSegmentDoneCallback([&]() { scan_done = rig.sim.Now(); });
  get_thread->SetSegmentDoneCallback([&]() { ++gets_done; });
  ASSERT_TRUE(types->UpdateU64(static_cast<uint32_t>(scan_thread->tid()),
                               static_cast<uint64_t>(ReqType::kScan)).ok());
  ASSERT_TRUE(types->UpdateU64(static_cast<uint32_t>(get_thread->tid()),
                               static_cast<uint64_t>(ReqType::kGet)).ok());

  rig.machine.AddWork(scan_thread, 700 * kMicrosecond);
  rig.machine.Wake(scan_thread);
  // Five GETs arrive during the SCAN; each preempts it.
  for (int i = 1; i <= 5; ++i) {
    rig.sim.ScheduleAt(static_cast<Time>(i) * 100 * kMicrosecond, [&]() {
      rig.machine.AddWork(get_thread, 10 * kMicrosecond);
      rig.machine.Wake(get_thread);
    });
  }
  rig.sim.RunToCompletion();
  EXPECT_EQ(gets_done, 5);
  EXPECT_GE(rig.sched.preemptions(), 5u);
  EXPECT_EQ(scan_thread->total_cpu(), 700 * kMicrosecond);
  EXPECT_GT(scan_done, 750 * kMicrosecond);  // delayed by the GETs
}

TEST(Ghost, MessageCountsAreSane) {
  FcfsGhostPolicy policy;
  GhostRig rig(1, 1, policy);
  Thread* thread = rig.machine.CreateThread("t");
  thread->SetSegmentDoneCallback([] {});
  rig.machine.AddWork(thread, 100);
  rig.machine.Wake(thread);
  rig.sim.RunToCompletion();
  // At least: wakeup, blocked, cpu-available.
  EXPECT_GE(rig.sched.messages_processed(), 3u);
}

// --- bytecode classifiers deployed through syrupd ---------------------------
//
// Syrupd hands the agent a BytecodeGhostPolicy that classifies each thread
// once per agent pass when the verifier proves the program pure, and on
// every query otherwise.

constexpr Uid kAppUid = 1000;
constexpr char kTypesPath[] = "/syrup/g/thread_types";

std::shared_ptr<Map> MakeTypesMap() {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 64;
  spec.name = "thread_types";
  return CreateMap(spec).value();
}

void SetClass(Map& types, const Thread* thread, ReqType type) {
  ASSERT_TRUE(types
                  .UpdateU64(static_cast<uint32_t>(thread->tid()),
                             static_cast<uint64_t>(type))
                  .ok());
}

struct SyrupdGhostRig {
  SyrupdGhostRig(int cores, int managed, const std::string& classifier)
      : syrupd(sim, nullptr), machine(sim, cores), types(MakeTypesMap()) {
    SYRUP_CHECK_OK(syrupd.registry().Pin(kTypesPath, types, kAppUid));
    const AppId app = syrupd.RegisterApp("g", kAppUid, 9000).value();
    SYRUP_CHECK_OK(syrupd
                       .DeployThreadPolicyFile(app, classifier, machine,
                                               GhostRig::Config(managed))
                       .status());
  }

  const GhostScheduler& sched() const { return *syrupd.ghost_scheduler(); }
  uint64_t invocations() const {
    return syrupd.StatsSnapshot().CounterValue("g", "thread_scheduler",
                                               "policy.invocations");
  }

  Simulator sim;
  Syrupd syrupd;
  Machine machine;
  std::shared_ptr<Map> types;
};

// GET-priority with an ignored get_prandom_u32 call: the same classes as
// GetPriorityThreadPolicyAsm, but the verifier cannot prove it pure.
std::string PrandomClassifierAsm() {
  return std::string(R"(
.name get_priority_prandom
.ctx thread
.extern_map thread_types )") +
         kTypesPath + R"(
  stxw [r10-4], r1
  call get_prandom_u32
  ldmapfd r1, thread_types
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jne r0, 0, found
  mov r0, 1
  exit
found:
  ldxdw r0, [r0+0]
  exit
)";
}

// GET-priority that stores each class back where it read it: a map write.
std::string MapWriteClassifierAsm() {
  return std::string(R"(
.name get_priority_write
.ctx thread
.extern_map thread_types )") +
         kTypesPath + R"(
  stxw [r10-4], r1
  ldmapfd r1, thread_types
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jne r0, 0, found
  mov r0, 1
  exit
found:
  ldxdw r1, [r0+0]
  stxdw [r0+0], r1
  mov r0, r1
  exit
)";
}

// Preempts a thread exactly as its segment ends, and its segment-done
// callback reclassifies a thread the same pass already classified. Two
// managed cores: B (GET) runs on core 0, A (SCAN) on core 1, both placed at
// 3.6 us. Waiters W1 and W2 (GET) wake at 2.5 us, so the agent's pass lands
// at 4.1 us, in the same nanosecond as A's last one but queued before it.
// W1 finds B no worse than itself, then preempts A, whose callback turns B
// into a SCAN. W2 must see B's new class and preempt it too.
TEST(GhostMemo, BoundaryPreemptionReclassifiesWithinPass) {
  SyrupdGhostRig rig(3, 2, GetPriorityThreadPolicyAsm(kTypesPath));
  Thread* a = rig.machine.CreateThread("a");
  Thread* b = rig.machine.CreateThread("b");
  Thread* w1 = rig.machine.CreateThread("w1");
  Thread* w2 = rig.machine.CreateThread("w2");
  SetClass(*rig.types, a, ReqType::kScan);
  for (Thread* thread : {b, w1, w2}) {
    SetClass(*rig.types, thread, ReqType::kGet);
    thread->SetSegmentDoneCallback([] {});
  }
  Time a_done = 0;
  a->SetSegmentDoneCallback([&]() {
    a_done = rig.sim.Now();
    SetClass(*rig.types, b, ReqType::kScan);
  });
  rig.machine.AddWork(a, 500);
  rig.machine.AddWork(b, 100 * kMicrosecond);
  rig.machine.Wake(a);
  rig.machine.Wake(b);
  rig.sim.ScheduleAt(2'500, [&]() {
    for (Thread* waiter : {w1, w2}) {
      rig.machine.AddWork(waiter, 10 * kMicrosecond);
      rig.machine.Wake(waiter);
    }
  });
  rig.sim.RunUntil(4'100);
  EXPECT_EQ(a_done, 4'100u);  // ended by the preemption, on its boundary
  EXPECT_EQ(a->state(), Thread::State::kBlocked);
  EXPECT_EQ(b->state(), Thread::State::kRunnable);  // preempted for W2
  EXPECT_EQ(rig.sched().preemptions(), 2u);
  rig.sim.RunToCompletion();
  EXPECT_EQ(b->total_cpu(), 100 * kMicrosecond);
}

// Every thread serves kRequests requests: each one publishes its class to
// `types` before it runs (as RocksDbServer does), GETs take 10 us and
// SCANs 150 us, and a seeded think time separates them. With eight threads
// on three managed cores, GETs keep waking behind running SCANs. Returns
// every completion as (time, tid), in completion order.
std::vector<std::pair<Time, int>> RunMixedRequests(Simulator& sim,
                                                   Machine& machine,
                                                   Map& types) {
  constexpr int kThreads = 8;
  constexpr int kRequests = 40;
  Rng rng(11);
  std::vector<std::pair<Time, int>> done;
  std::vector<int> left(kThreads, kRequests);
  std::vector<Thread*> threads;
  std::function<void(int)> start = [&](int i) {
    const bool get = rng.NextBounded(2) == 0;
    SetClass(types, threads[static_cast<size_t>(i)],
             get ? ReqType::kGet : ReqType::kScan);
    machine.AddWork(threads[static_cast<size_t>(i)],
                    (get ? 10 : 150) * kMicrosecond);
    machine.Wake(threads[static_cast<size_t>(i)]);
  };
  auto think = [&]() { return (1 + rng.NextBounded(80)) * kMicrosecond; };
  for (int i = 0; i < kThreads; ++i) {
    Thread* thread = machine.CreateThread("w" + std::to_string(i));
    threads.push_back(thread);
    thread->SetSegmentDoneCallback([&, i, thread]() {
      done.emplace_back(sim.Now(), thread->tid());
      if (--left[static_cast<size_t>(i)] > 0) {
        sim.ScheduleAfter(think(), [&start, i]() { start(i); });
      }
    });
  }
  for (int i = 0; i < kThreads; ++i) {
    sim.ScheduleAfter(think(), [&start, i]() { start(i); });
  }
  sim.RunToCompletion();
  return done;
}

struct MixedRun {
  std::vector<std::pair<Time, int>> done;
  uint64_t preemptions = 0;
  uint64_t invocations = 0;  // bytecode runs only
};

MixedRun RunNativeMix() {
  std::shared_ptr<Map> types = MakeTypesMap();
  GetPriorityGhostPolicy policy(types);
  GhostRig rig(4, 3, policy);
  MixedRun run;
  run.done = RunMixedRequests(rig.sim, rig.machine, *types);
  run.preemptions = rig.sched.preemptions();
  return run;
}

MixedRun RunBytecodeMix(const std::string& classifier) {
  SyrupdGhostRig rig(4, 3, classifier);
  MixedRun run;
  run.done = RunMixedRequests(rig.sim, rig.machine, *rig.types);
  run.preemptions = rig.sched().preemptions();
  run.invocations = rig.invocations();
  return run;
}

// Classifier runs the agent made for this mix before it memoized classes:
// one per query.
constexpr uint64_t kQueriesPerMix = 12219;

TEST(GhostMemo, PureClassifierMatchesNativeWithFewerRuns) {
  const MixedRun native = RunNativeMix();
  ASSERT_EQ(native.done.size(), 8u * 40u);
  EXPECT_GT(native.preemptions, 0u);
  const MixedRun pure =
      RunBytecodeMix(GetPriorityThreadPolicyAsm(kTypesPath));
  EXPECT_EQ(pure.done, native.done);
  EXPECT_EQ(pure.preemptions, native.preemptions);
  EXPECT_LT(pure.invocations, kQueriesPerMix);
}

TEST(GhostMemo, PrandomClassifierRunsOnEveryQuery) {
  const MixedRun native = RunNativeMix();
  const MixedRun impure = RunBytecodeMix(PrandomClassifierAsm());
  EXPECT_EQ(impure.done, native.done);
  EXPECT_EQ(impure.preemptions, native.preemptions);
  EXPECT_EQ(impure.invocations, kQueriesPerMix);
}

TEST(GhostMemo, MapWritingClassifierRunsOnEveryQuery) {
  const MixedRun native = RunNativeMix();
  const MixedRun impure = RunBytecodeMix(MapWriteClassifierAsm());
  EXPECT_EQ(impure.done, native.done);
  EXPECT_EQ(impure.preemptions, native.preemptions);
  EXPECT_EQ(impure.invocations, kQueriesPerMix);
}

}  // namespace
}  // namespace syrup
