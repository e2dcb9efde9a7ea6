// Storage backend tests (§6.1 extension): device model, the IO hook, and
// policy portability from network hooks to the storage hook.
#include <gtest/gtest.h>

#include <vector>

#include "src/bpf/assembler.h"
#include "src/bpf/verifier.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"
#include "src/storage/io_scheduler.h"
#include "src/storage/nvme_device.h"

namespace syrup {
namespace {

IoRequest MakeIo(IoOp op, uint32_t tenant = 1, uint32_t blocks = 1,
                 uint64_t id = 1) {
  IoRequest request;
  request.op = op;
  request.tenant_id = tenant;
  request.num_blocks = blocks;
  request.req_id = id;
  return request;
}

// --- NvmeDevice ---------------------------------------------------------------

TEST(NvmeDevice, ReadServiceTime) {
  Simulator sim;
  NvmeConfig config;
  NvmeDevice device(sim, config);
  Time completed = 0;
  device.SetCompletionCallback(
      [&](const IoRequest&, Time when) { completed = when; });
  ASSERT_TRUE(device.Submit(0, MakeIo(IoOp::kRead)));
  sim.RunToCompletion();
  EXPECT_EQ(completed, config.read_4k);
}

TEST(NvmeDevice, WritesAreSlower) {
  Simulator sim;
  NvmeConfig config;
  NvmeDevice device(sim, config);
  EXPECT_GT(device.ServiceTime(MakeIo(IoOp::kWrite)),
            device.ServiceTime(MakeIo(IoOp::kRead)));
}

TEST(NvmeDevice, SizeScalesServiceTime) {
  Simulator sim;
  NvmeConfig config;
  NvmeDevice device(sim, config);
  const Duration small = device.ServiceTime(MakeIo(IoOp::kRead, 1, 1));
  const Duration big = device.ServiceTime(MakeIo(IoOp::kRead, 1, 9));
  EXPECT_EQ(big, small + 8 * config.per_extra_block);
}

TEST(NvmeDevice, QueuesServeFifoAndInParallel) {
  Simulator sim;
  NvmeConfig config;
  NvmeDevice device(sim, config);
  std::vector<uint64_t> completions;
  device.SetCompletionCallback(
      [&](const IoRequest& request, Time) {
        completions.push_back(request.req_id);
      });
  // Two on queue 0 (serialized), one on queue 1 (parallel).
  ASSERT_TRUE(device.Submit(0, MakeIo(IoOp::kRead, 1, 1, 10)));
  ASSERT_TRUE(device.Submit(0, MakeIo(IoOp::kRead, 1, 1, 11)));
  ASSERT_TRUE(device.Submit(1, MakeIo(IoOp::kRead, 1, 1, 20)));
  sim.RunToCompletion();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 10u);  // q0 first, q1 ties broken by order
  EXPECT_EQ(completions[1], 20u);
  EXPECT_EQ(completions[2], 11u);
  EXPECT_EQ(sim.Now(), 2 * config.read_4k);  // not 3x: queues overlap
}

TEST(NvmeDevice, BoundedQueueRejects) {
  Simulator sim;
  NvmeConfig config;
  config.num_queues = 1;
  config.queue_depth = 2;
  NvmeDevice device(sim, config);
  ASSERT_TRUE(device.Submit(0, MakeIo(IoOp::kWrite)));  // in service
  ASSERT_TRUE(device.Submit(0, MakeIo(IoOp::kWrite)));
  ASSERT_TRUE(device.Submit(0, MakeIo(IoOp::kWrite)));
  EXPECT_FALSE(device.Submit(0, MakeIo(IoOp::kWrite)));
  EXPECT_EQ(device.stats().rejected, 1u);
  sim.RunToCompletion();
  EXPECT_EQ(device.stats().completed, 3u);
}

TEST(NvmeDevice, UtilizationTracked) {
  Simulator sim;
  NvmeConfig config;
  NvmeDevice device(sim, config);
  ASSERT_TRUE(device.Submit(0, MakeIo(IoOp::kRead)));
  sim.RunUntil(2 * config.read_4k);
  EXPECT_NEAR(device.QueueUtilization(0), 0.5, 0.01);
  EXPECT_EQ(device.QueueUtilization(1), 0.0);
}

// --- wire image ----------------------------------------------------------------

TEST(IoRequest, WireLayoutMatchesPacketConventions) {
  IoRequest request = MakeIo(IoOp::kWrite, /*tenant=*/7, /*blocks=*/4, 99);
  const auto wire = request.ToWire();
  uint64_t op;
  std::memcpy(&op, wire.data() + 8, 8);  // packet req-type offset
  EXPECT_EQ(op, static_cast<uint64_t>(IoOp::kWrite));
  uint32_t tenant;
  std::memcpy(&tenant, wire.data() + 16, 4);  // packet user-id offset
  EXPECT_EQ(tenant, 7u);
  // kWrite maps to the same value as ReqType::kScan (the "long" class).
  EXPECT_EQ(static_cast<uint64_t>(IoOp::kWrite),
            static_cast<uint64_t>(ReqType::kScan));
}

// --- IoScheduler ------------------------------------------------------------------

TEST(IoScheduler, DefaultRoundRobinsAcrossQueues) {
  Simulator sim;
  NvmeConfig config;
  config.num_queues = 4;
  NvmeDevice device(sim, config);
  IoScheduler scheduler(device);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scheduler.Submit(MakeIo(IoOp::kRead)));
  }
  for (int queue = 0; queue < 4; ++queue) {
    // One in service, one pending per queue.
    EXPECT_EQ(device.QueueLength(queue), 1u);
  }
}

TEST(IoScheduler, NetworkSitaPolicyIsolatesWritesUnchanged) {
  // The Fig. 5d SITA policy, written for sockets, deployed verbatim on the
  // storage hook: writes (the "long" class) go to queue 0, reads round-
  // robin across queues 1..3.
  Simulator sim;
  NvmeConfig config;
  config.num_queues = 4;
  NvmeDevice device(sim, config);
  IoScheduler scheduler(device);
  scheduler.SetPolicy(std::make_shared<SitaPolicy>(4));

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler.Submit(MakeIo(IoOp::kWrite)));
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler.Submit(MakeIo(IoOp::kRead)));
  }
  // All writes on queue 0 (one in service + five pending).
  EXPECT_EQ(device.QueueLength(0), 5u);
  // Reads spread over queues 1-3, never on 0.
  EXPECT_EQ(device.QueueLength(1), 1u);
  EXPECT_EQ(device.QueueLength(2), 1u);
  EXPECT_EQ(device.QueueLength(3), 1u);
}

TEST(IoScheduler, TokenPolicyDropsOutOfBudgetTenant) {
  // The §3.4 token policy (ReFlex-like, per §6.1), reused unchanged.
  Simulator sim;
  NvmeDevice device(sim, NvmeConfig{});
  IoScheduler scheduler(device);
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 16;
  auto tokens = CreateMap(spec).value();
  ASSERT_TRUE(tokens->UpdateU64(1, 2).ok());  // tenant 1: 2 tokens
  scheduler.SetPolicy(std::make_shared<TokenPolicy>(tokens));

  EXPECT_TRUE(scheduler.Submit(MakeIo(IoOp::kRead, 1)));
  EXPECT_TRUE(scheduler.Submit(MakeIo(IoOp::kRead, 1)));
  EXPECT_FALSE(scheduler.Submit(MakeIo(IoOp::kRead, 1)));  // out of tokens
  EXPECT_EQ(scheduler.stats().policy_drops, 1u);
  // An unknown tenant is not throttled (default policy).
  EXPECT_TRUE(scheduler.Submit(MakeIo(IoOp::kRead, 9)));
}

TEST(IoScheduler, BytecodePolicyDeploysOnStorageHook) {
  // The *bytecode* MICA-style hash policy steering by the value at the
  // key-hash offset — here the request size field — verified and executed
  // on IO wire images.
  Simulator sim;
  NvmeConfig config;
  config.num_queues = 8;
  NvmeDevice device(sim, config);
  IoScheduler scheduler(device);

  auto assembled = bpf::Assemble(MicaHomePolicyAsm(8)).value();
  auto program = std::make_shared<bpf::Program>();
  program->name = assembled.name;
  program->insns = assembled.insns;
  ASSERT_TRUE(bpf::Verify(*program, bpf::ProgramContext::kPacket).ok());
  scheduler.SetPolicy(std::make_shared<BytecodePacketPolicy>(
      std::make_shared<const bpf::CompiledProgram>(
          bpf::Compile(*program, bpf::ProgramContext::kPacket).value()),
      bpf::ExecEnv{}));

  ASSERT_TRUE(scheduler.Submit(MakeIo(IoOp::kRead, 1, /*blocks=*/13)));
  EXPECT_EQ(device.QueueLength(13 % 8), 0u);  // in service there
  ASSERT_TRUE(scheduler.Submit(MakeIo(IoOp::kRead, 1, /*blocks=*/13)));
  EXPECT_EQ(device.QueueLength(13 % 8), 1u);  // queued behind it
}

TEST(IoScheduler, InvalidDecisionFallsBack) {
  Simulator sim;
  NvmeConfig config;
  config.num_queues = 2;
  NvmeDevice device(sim, config);
  IoScheduler scheduler(device);
  scheduler.SetPolicy(std::make_shared<ConstIndexPolicy>(42));
  EXPECT_TRUE(scheduler.Submit(MakeIo(IoOp::kRead)));
  EXPECT_EQ(scheduler.stats().invalid_decisions, 1u);
}

TEST(IoScheduler, ReadBehindWriteInterference) {
  // The phenomenon the token/SITA IO policies exist to fix: a read queued
  // behind a write waits ~write latency.
  Simulator sim;
  NvmeConfig config;
  config.num_queues = 1;
  NvmeDevice device(sim, config);
  IoScheduler scheduler(device);
  Time read_done = 0;
  device.SetCompletionCallback([&](const IoRequest& request, Time when) {
    if (request.op == IoOp::kRead) {
      read_done = when;
    }
  });
  ASSERT_TRUE(scheduler.Submit(MakeIo(IoOp::kWrite)));
  ASSERT_TRUE(scheduler.Submit(MakeIo(IoOp::kRead)));
  sim.RunToCompletion();
  EXPECT_EQ(read_done, config.write_4k + config.read_4k);
}

}  // namespace
}  // namespace syrup
