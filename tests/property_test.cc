// Property-based tests: parameterized sweeps asserting invariants that must
// hold across the whole configuration space, plus a randomized fuzz of the
// verifier against the interpreter oracle (the untrusted-code boundary).
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "src/bpf/assembler.h"
#include "src/bpf/verifier.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/map/hash_map.h"
#include "src/net/packet.h"
#include "src/policies/builtin.h"
#include "src/sched/machine.h"
#include "src/sched/pinned_scheduler.h"
#include "src/sim/simulator.h"
#include "tests/oracles/interpreter.h"
#include "tests/oracles/native_policies.h"

namespace syrup {
namespace {

// --- Histogram: quantile correctness across bucket scales -------------------------

class HistogramScaleTest : public testing::TestWithParam<uint64_t> {};

TEST_P(HistogramScaleTest, QuantilesBoundedRelativeError) {
  const uint64_t scale = GetParam();
  Histogram histogram;
  Rng rng(scale);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t v = rng.NextBounded(scale) + 1;
    values.push_back(v);
    histogram.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const auto rank = static_cast<size_t>(q * (values.size() - 1));
    const double exact = static_cast<double>(values[rank]);
    const double approx = static_cast<double>(histogram.ValueAtQuantile(q));
    EXPECT_NEAR(approx, exact, exact / 10.0 + 2.0)
        << "scale=" << scale << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramScaleTest,
                         testing::Values(100, 10'000, 1'000'000,
                                         100'000'000, 10'000'000'000ULL));

// --- Round robin: perfect balance for any executor count ----------------------------

class RoundRobinBalanceTest : public testing::TestWithParam<uint32_t> {};

TEST_P(RoundRobinBalanceTest, PerfectBalanceProperty) {
  const uint32_t n = GetParam();
  RoundRobinPolicy policy(n);
  Packet pkt;
  pkt.SetHeader(ReqType::kGet, 1, 0, 1, 0);
  const PacketView view = PacketView::Of(pkt);
  std::vector<int> counts(n, 0);
  const int kRounds = 40;
  for (uint32_t i = 0; i < n * kRounds; ++i) {
    const Decision d = policy.Schedule(view);
    ASSERT_LT(d, n);
    ++counts[d];
  }
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(counts[i], kRounds);
  }
}

INSTANTIATE_TEST_SUITE_P(ExecutorCounts, RoundRobinBalanceTest,
                         testing::Values(1, 2, 3, 6, 8, 17, 64));

// --- SITA: partition property for any executor count >= 2 ----------------------------

class SitaPartitionTest : public testing::TestWithParam<uint32_t> {};

TEST_P(SitaPartitionTest, ScansAndGetsNeverShareSocketZero) {
  const uint32_t n = GetParam();
  SitaPolicy policy(n);
  Rng rng(n);
  Packet pkt;
  for (int i = 0; i < 500; ++i) {
    const bool scan = rng.NextBounded(4) == 0;
    pkt.SetHeader(scan ? ReqType::kScan : ReqType::kGet, 1, 0, 1, 0);
    const Decision d = policy.Schedule(PacketView::Of(pkt));
    ASSERT_LT(d, n);
    if (scan) {
      EXPECT_EQ(d, 0u);
    } else {
      EXPECT_GE(d, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ExecutorCounts, SitaPartitionTest,
                         testing::Values(2, 3, 6, 12, 36));

// --- HashMap vs reference model under random operations -------------------------------

class HashMapModelTest : public testing::TestWithParam<uint64_t> {};

TEST_P(HashMapModelTest, MatchesReferenceModel) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 64;
  HashMap map(spec);
  std::map<uint32_t, uint64_t> model;
  Rng rng(GetParam());

  for (int op = 0; op < 5'000; ++op) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(96));
    switch (rng.NextBounded(3)) {
      case 0: {  // update
        const uint64_t value = rng.Next();
        const Status status = map.UpdateU64(key, value);
        if (model.size() >= 64 && model.find(key) == model.end()) {
          EXPECT_FALSE(status.ok());
        } else {
          ASSERT_TRUE(status.ok());
          model[key] = value;
        }
        break;
      }
      case 1: {  // lookup
        auto result = map.LookupU64(key);
        auto it = model.find(key);
        ASSERT_EQ(result.ok(), it != model.end()) << "key " << key;
        if (result.ok()) {
          ASSERT_EQ(*result, it->second);
        }
        break;
      }
      case 2: {  // delete
        const bool existed = model.erase(key) > 0;
        EXPECT_EQ(map.Delete(&key).ok(), existed);
        break;
      }
    }
    ASSERT_EQ(map.Size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashMapModelTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Machine: work conservation across thread/core mixes -------------------------------

struct MachineShape {
  int cores;
  int threads;
  int segments_per_thread;
};

class MachineConservationTest
    : public testing::TestWithParam<MachineShape> {};

TEST_P(MachineConservationTest, AllWorkCompletesAndCpuTimeBalances) {
  const MachineShape shape = GetParam();
  Simulator sim;
  Machine machine(sim, shape.cores);
  PinnedScheduler sched(machine);
  machine.SetScheduler(&sched);
  Rng rng(7);

  struct WorkerState {
    Thread* thread;
    int remaining_segments;
    Duration total_work = 0;
  };
  std::vector<WorkerState> workers;
  workers.reserve(static_cast<size_t>(shape.threads));
  for (int i = 0; i < shape.threads; ++i) {
    workers.push_back(
        {machine.CreateThread("w"), shape.segments_per_thread, 0});
  }
  int completions = 0;
  for (auto& w : workers) {
    WorkerState* state = &w;
    w.thread->SetSegmentDoneCallback([&, state]() {
      ++completions;
      if (--state->remaining_segments > 0) {
        const Duration work = 100 + rng.NextBounded(900);
        state->total_work += work;
        machine.AddWork(state->thread, work);
      } else {
        machine.Block(state->thread);
      }
    });
    const Duration work = 100 + rng.NextBounded(900);
    w.total_work += work;
    machine.AddWork(w.thread, work);
    machine.Wake(w.thread);
  }
  sim.RunToCompletion();

  EXPECT_EQ(completions, shape.threads * shape.segments_per_thread);
  Duration total_cpu = 0;
  for (const auto& w : workers) {
    EXPECT_EQ(w.thread->total_cpu(), w.total_work)
        << "thread CPU time must equal submitted work";
    EXPECT_EQ(w.thread->state(), Thread::State::kBlocked);
    total_cpu += w.thread->total_cpu();
  }
  // Makespan bounds: no faster than perfect parallelism, no slower than
  // fully serialized execution.
  EXPECT_GE(sim.Now() * static_cast<uint64_t>(shape.cores), total_cpu);
  EXPECT_LE(sim.Now(), total_cpu);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MachineConservationTest,
    testing::Values(MachineShape{1, 1, 10}, MachineShape{1, 4, 10},
                    MachineShape{4, 4, 10}, MachineShape{2, 8, 5},
                    MachineShape{6, 36, 3}, MachineShape{8, 8, 20}));

// --- Verifier/interpreter fuzz -----------------------------------------------------------

// Random instruction streams must never crash: each either fails
// verification or, if verified, executes within bounds on a real packet.
class VerifierFuzzTest : public testing::TestWithParam<uint64_t> {};

bpf::Insn RandomInsn(Rng& rng, size_t prog_len) {
  using bpf::Op;
  static constexpr Op kOps[] = {
      Op::kAddReg, Op::kAddImm, Op::kSubReg, Op::kSubImm, Op::kMulImm,
      Op::kDivImm, Op::kModImm, Op::kOrImm, Op::kAndImm, Op::kLshImm,
      Op::kRshImm, Op::kNeg, Op::kMovReg, Op::kMovImm, Op::kMov32Imm,
      Op::kBe16, Op::kLdxB, Op::kLdxW, Op::kLdxDW, Op::kStxB, Op::kStxDW,
      Op::kStW, Op::kJa, Op::kJeqImm, Op::kJneImm, Op::kJgtReg, Op::kJgeReg,
      Op::kJltImm, Op::kJsgtImm, Op::kJsetImm, Op::kCall, Op::kExit};
  bpf::Insn insn;
  insn.op = kOps[rng.NextBounded(sizeof(kOps) / sizeof(kOps[0]))];
  insn.dst = static_cast<uint8_t>(rng.NextBounded(11));
  insn.src = static_cast<uint8_t>(rng.NextBounded(11));
  insn.off = static_cast<int16_t>(rng.NextBounded(2 * prog_len) -
                                  prog_len);
  if (insn.op == Op::kCall) {
    insn.imm = static_cast<int64_t>(rng.NextBounded(8));
  } else {
    insn.imm = static_cast<int64_t>(rng.NextBounded(64)) - 16;
  }
  return insn;
}

TEST_P(VerifierFuzzTest, NeverCrashesAlwaysBounded) {
  Rng rng(GetParam());
  int verified = 0;
  for (int trial = 0; trial < 2'000; ++trial) {
    const size_t length = 2 + rng.NextBounded(14);
    bpf::Program prog;
    prog.name = "fuzz";
    for (size_t i = 0; i + 1 < length; ++i) {
      prog.insns.push_back(RandomInsn(rng, length));
    }
    prog.insns.push_back(bpf::Insn{bpf::Op::kExit, 0, 0, 0, 0});

    bpf::VerifierOptions options;
    options.max_visited_insns = 20'000;
    const Status status =
        bpf::Verify(prog, bpf::ProgramContext::kPacket, options);
    if (!status.ok()) {
      continue;
    }
    ++verified;
    // Verified: must run to completion against a real packet without
    // tripping the runtime bounds checks.
    Packet pkt;
    pkt.SetHeader(ReqType::kGet, 1, 2, 3, 4);
    bpf::ExecEnv env;
    env.random_u32 = [&rng]() { return static_cast<uint32_t>(rng.Next()); };
    env.ktime_ns = []() { return 0u; };
    bpf::Interpreter interp(env);
    auto result = interp.Run(
        prog, reinterpret_cast<uint64_t>(pkt.wire.data()),
        reinterpret_cast<uint64_t>(pkt.wire.data() + pkt.wire.size()),
        /*args_are_packet=*/true);
    EXPECT_TRUE(result.ok())
        << "verified program faulted at runtime: " << result.status();
  }
  // The generator is crude, but some trivially-safe programs should pass.
  EXPECT_GT(verified, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierFuzzTest,
                         testing::Values(11, 22, 33, 44, 55, 66));

// --- Token policy: admission accounting invariant ------------------------------------------

class TokenAccountingTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TokenAccountingTest, AdmittedNeverExceedsIssuedTokens) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 8;
  auto tokens = CreateMap(spec).value();
  const uint64_t issued = GetParam();
  ASSERT_TRUE(tokens->UpdateU64(1, issued).ok());
  TokenPolicy policy(tokens);
  Packet pkt;
  pkt.tuple.dst_port = 9000;
  uint64_t admitted = 0;
  for (int i = 0; i < 200; ++i) {
    pkt.SetHeader(ReqType::kGet, /*user_id=*/1, 0, 1, 0);
    if (policy.Schedule(PacketView::Of(pkt)) != kDrop) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, std::min<uint64_t>(issued, 200));
}

INSTANTIATE_TEST_SUITE_P(TokenBudgets, TokenAccountingTest,
                         testing::Values(0, 1, 5, 35, 199, 200, 1000));


// --- Assembler fuzz: arbitrary text never crashes -------------------------------------

class AssemblerFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(AssemblerFuzzTest, ArbitraryTextIsRejectedOrParsed) {
  Rng rng(GetParam());
  const char* fragments[] = {
      "mov", "add", "ldxw", "stxdw", "jeq", "call", "exit", "ja",
      "r0", "r1", "r10", "r11", "rX", "[r1+4]", "[r10-8]", "[bogus]",
      "0", "-1", "0xFF", "PASS", "DROP", "label:", "label", ",", "+2",
      ".map", ".name", ".ctx", ".extern_map", "array", "hash", "packet",
      "4", "8", "16", ";comment", "###", "", "\t"};
  constexpr size_t kFragments = sizeof(fragments) / sizeof(fragments[0]);
  for (int trial = 0; trial < 2'000; ++trial) {
    std::string source;
    const int lines = 1 + static_cast<int>(rng.NextBounded(10));
    for (int line = 0; line < lines; ++line) {
      const int tokens = static_cast<int>(rng.NextBounded(5));
      for (int tok = 0; tok < tokens; ++tok) {
        source += fragments[rng.NextBounded(kFragments)];
        source += ' ';
      }
      source += '\n';
    }
    // Must not crash; outcome (ok or error) is irrelevant, but a parsed
    // program must survive verification-or-rejection too.
    auto assembled = bpf::Assemble(source);
    if (assembled.ok()) {
      bpf::Program prog;
      prog.insns = assembled->insns;
      for (const auto& slot : assembled->map_slots) {
        if (!slot.is_extern) {
          auto map = CreateMap(slot.spec);
          if (!map.ok()) {
            prog.maps.clear();
            break;
          }
          prog.maps.push_back(*map);
        } else {
          MapSpec spec;
          spec.type = MapType::kHash;
          spec.max_entries = 4;
          prog.maps.push_back(CreateMap(spec).value());
        }
      }
      bpf::VerifierOptions options;
      options.max_visited_insns = 5'000;
      (void)bpf::Verify(prog, bpf::ProgramContext::kPacket, options);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerFuzzTest,
                         testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace syrup
