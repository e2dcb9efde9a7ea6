// Verifier soundness fuzz: the dual of the compiler-equivalence fuzz.
//
// The property under test is the verifier's actual safety contract: every
// program it ACCEPTS must execute in the interpreter oracle
// (tests/oracles/interpreter.h) without faults — no out-of-bounds access,
// no uninitialized read, no budget blowout — for arbitrary runtime inputs
// (randomized packet bytes AND packet sizes, randomized thread scalars). A
// verifier bug that under-approximates a range or mis-narrows a branch
// surfaces here as an oracle fault (or, under the CI ASan/UBSan job, as a
// sanitizer report on the raw packet buffer).
//
// Two generators:
//  * raw random instruction soup (same shape as the compiler fuzz) — broad
//    but rarely exercises the range machinery, and
//  * mutated bounds-check templates — guard size, probe offset, mask,
//    access offset, and access width all drawn at random, so the accepted
//    set straddles exactly the boundary the range analysis must get right.
//
// Every accepted program runs through the oracle and both deployment tiers
// (compiled, native) with identical inputs and helper streams: none may
// fault, and all must agree on r0. The deployment tiers run with
// assume_verified (checks elided), so an unsound acceptance surfaces as a
// raw bad access under the sanitizer jobs rather than a Status — which is
// precisely the production blast radius being tested.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/bpf/compiler.h"
#include "src/bpf/jit.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/common/rng.h"
#include "src/map/map.h"
#include "tests/oracles/interpreter.h"

namespace syrup::bpf {
namespace {

ExecEnv FuzzEnv(Rng* rng) {
  ExecEnv env;
  env.random_u32 = [rng]() { return static_cast<uint32_t>(rng->Next()); };
  env.ktime_ns = [rng]() { return rng->Next() & 0xffffff; };
  return env;
}

// The two compiled-family artifacts for an accepted program. The native
// artifact transparently degrades to the compiled tier when the JIT refuses
// the program (tail-call draws) or the host (non-x86-64, SYRUP_JIT_DISABLE)
// — exactly syrupd's deploy-time fallback, so the fuzz exercises it too.
struct Tiers {
  CompiledProgram plain;
  CompiledProgram native;
};

Tiers CompileTiers(const Program& prog, ProgramContext context) {
  CompileOptions options;
  options.assume_verified = true;  // acceptance IS the property under test
  Tiers t;
  auto plain = Compile(prog, context, options);
  EXPECT_TRUE(plain.ok()) << plain.status();
  if (plain.ok()) t.plain = *std::move(plain);
  t.native = t.plain;
  auto jit = JitCompile(t.native);
  if (jit.ok()) t.native.native = std::move(jit).value();
  return t;
}

// Cost soundness: the verifier's wcet_insns is a WORST-case bound, so no
// concrete execution may ever retire more instructions than it predicts.
// Checked on the oracle (counts source insns, the unit the bound is stated
// in) and the compiled tier (executes at most the source path).
void AssertWithinWcet(const AnalysisFacts* facts, const ExecResult& result,
                      const char* tier) {
  if (facts == nullptr || !facts->cost.bounded) {
    return;
  }
  ASSERT_LE(result.insns_executed, facts->cost.wcet_insns)
      << tier << " executed more instructions than the verifier's "
      << "worst-case bound";
}

// Executes an accepted program against `runs` random packets with random
// sizes (including sizes smaller than any guard) and asserts that neither
// the oracle nor a tier faults and that all three agree on r0.
void AssertSoundOnPackets(const Program& prog, Rng& rng, int runs,
                          const AnalysisFacts* facts = nullptr) {
  const Tiers tiers = CompileTiers(prog, ProgramContext::kPacket);
  // One helper stream per engine, identically seeded, so bpf_random draws
  // line up across tiers and r0 comparison is meaningful.
  const uint64_t helper_seed = rng.Next();
  Rng rng_i(helper_seed), rng_c(helper_seed), rng_n(helper_seed);
  Interpreter interp(FuzzEnv(&rng_i));
  CompiledExecutor plain(FuzzEnv(&rng_c));
  CompiledExecutor native(FuzzEnv(&rng_n));
  for (int i = 0; i < runs; ++i) {
    std::vector<uint8_t> wire(rng.NextBounded(96));
    for (uint8_t& b : wire) {
      b = static_cast<uint8_t>(rng.Next());
    }
    const auto start = reinterpret_cast<uint64_t>(wire.data());
    const auto end = start + wire.size();
    auto want = interp.Run(prog, start, end, /*args_are_packet=*/true);
    ASSERT_TRUE(want.ok())
        << "verifier accepted a program the interpreter faults on "
        << "(pkt_size=" << wire.size() << "): " << want.status();
    auto got_plain = plain.Run(tiers.plain, start, end, true);
    ASSERT_TRUE(got_plain.ok()) << got_plain.status();
    auto got_native = native.Run(tiers.native, start, end, true);
    ASSERT_TRUE(got_native.ok()) << got_native.status();
    ASSERT_EQ(got_plain->r0, want->r0) << "pkt_size=" << wire.size();
    ASSERT_EQ(got_native->r0, want->r0) << "pkt_size=" << wire.size();
    AssertWithinWcet(facts, *want, "interpreter");
    AssertWithinWcet(facts, *got_plain, "compiled");
  }
}

void AssertSoundOnScalars(const Program& prog, Rng& rng, int runs,
                          const AnalysisFacts* facts = nullptr) {
  const Tiers tiers = CompileTiers(prog, ProgramContext::kThread);
  const uint64_t helper_seed = rng.Next();
  Rng rng_i(helper_seed), rng_c(helper_seed), rng_n(helper_seed);
  Interpreter interp(FuzzEnv(&rng_i));
  CompiledExecutor plain(FuzzEnv(&rng_c));
  CompiledExecutor native(FuzzEnv(&rng_n));
  for (int i = 0; i < runs; ++i) {
    const uint64_t arg1 = rng.Next();
    const uint64_t arg2 = rng.Next();
    auto want = interp.Run(prog, arg1, arg2, /*args_are_packet=*/false);
    ASSERT_TRUE(want.ok())
        << "verifier accepted a program the interpreter faults on: "
        << want.status();
    auto got_plain = plain.Run(tiers.plain, arg1, arg2, false);
    ASSERT_TRUE(got_plain.ok()) << got_plain.status();
    auto got_native = native.Run(tiers.native, arg1, arg2, false);
    ASSERT_TRUE(got_native.ok()) << got_native.status();
    ASSERT_EQ(got_plain->r0, want->r0);
    ASSERT_EQ(got_native->r0, want->r0);
    AssertWithinWcet(facts, *want, "interpreter");
    AssertWithinWcet(facts, *got_plain, "compiled");
  }
}

// --- generator 1: random instruction soup -------------------------------------

Insn RandomInsn(Rng& rng, size_t prog_len) {
  static constexpr Op kOps[] = {
      Op::kAddReg, Op::kAddImm, Op::kSubReg, Op::kSubImm, Op::kMulImm,
      Op::kDivImm, Op::kModImm, Op::kOrImm,  Op::kAndImm, Op::kLshImm,
      Op::kRshImm, Op::kArshImm, Op::kNeg,   Op::kMovReg, Op::kMovImm,
      Op::kMov32Imm, Op::kBe16,  Op::kBe64,  Op::kLdxB,   Op::kLdxW,
      Op::kLdxDW,  Op::kStxB,   Op::kStxDW,  Op::kStW,    Op::kJa,
      Op::kJeqImm, Op::kJneImm, Op::kJgtReg, Op::kJgeReg, Op::kJltImm,
      Op::kJsgtImm, Op::kJsetImm, Op::kCall, Op::kExit};
  Insn insn;
  insn.op = kOps[rng.NextBounded(sizeof(kOps) / sizeof(kOps[0]))];
  insn.dst = static_cast<uint8_t>(rng.NextBounded(11));
  insn.src = static_cast<uint8_t>(rng.NextBounded(11));
  insn.off =
      static_cast<int16_t>(rng.NextBounded(2 * prog_len) - prog_len);
  if (insn.op == Op::kCall) {
    insn.imm = static_cast<int64_t>(rng.NextBounded(8));
  } else {
    insn.imm = static_cast<int64_t>(rng.NextBounded(64)) - 16;
  }
  return insn;
}

class VerifierSoundnessFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(VerifierSoundnessFuzz, AcceptedRandomProgramsRunWithoutFaults) {
  Rng rng(GetParam());
  int accepted = 0;
  for (int trial = 0; trial < 50'000 && accepted < 60; ++trial) {
    const size_t length = 2 + rng.NextBounded(14);
    Program prog;
    prog.name = "fuzz";
    for (size_t i = 0; i + 1 < length; ++i) {
      prog.insns.push_back(RandomInsn(rng, length));
    }
    prog.insns.push_back(Insn{Op::kExit, 0, 0, 0, 0});

    VerifierOptions options;
    options.max_visited_insns = 20'000;
    AnalysisFacts pkt_facts;
    AnalysisFacts thread_facts;
    const bool packet_ok =
        Verify(prog, ProgramContext::kPacket, options, nullptr, &pkt_facts)
            .ok();
    const bool thread_ok =
        Verify(prog, ProgramContext::kThread, options, nullptr,
               &thread_facts)
            .ok();
    // 64 random inputs per acceptance: the measured instruction count of
    // every execution must stay within the cost pass's wcet_insns.
    if (packet_ok) {
      ++accepted;
      AssertSoundOnPackets(prog, rng, 64, &pkt_facts);
    }
    if (thread_ok) {
      AssertSoundOnScalars(prog, rng, 64, &thread_facts);
    }
  }
  EXPECT_GT(accepted, 0);
}

// --- generator 2: mutated bounds-check templates ------------------------------

// Emits the canonical variable-offset parse with randomized parameters:
//
//   if (pkt + guard > pkt_end) return PASS;
//   off = pkt[probe] & mask;
//   return *(pkt + off + base);   // `width` bytes
//
// The verifier must accept exactly when probe < guard and
// mask + base + width <= guard; the fuzz checks BOTH directions: accepted
// programs never fault, and out-of-range parameter draws are rejected.
struct TemplateParams {
  uint32_t guard;
  uint32_t probe;
  uint32_t mask;
  uint32_t base;
  uint32_t width;
};

Program TemplateProgram(const TemplateParams& p) {
  const Op load = p.width == 1   ? Op::kLdxB
                  : p.width == 2 ? Op::kLdxH
                  : p.width == 4 ? Op::kLdxW
                                 : Op::kLdxDW;
  Program prog;
  prog.name = "tmpl";
  prog.insns = {
      {Op::kMovReg, 3, 1, 0, 0},
      {Op::kAddImm, 3, 0, 0, static_cast<int64_t>(p.guard)},
      {Op::kJgtReg, 3, 2, 5, 0},  // -> pass
      {Op::kLdxB, 4, 1, static_cast<int16_t>(p.probe), 0},
      {Op::kAndImm, 4, 0, 0, static_cast<int64_t>(p.mask)},
      {Op::kAddReg, 1, 4, 0, 0},
      {load, 0, 1, static_cast<int16_t>(p.base), 0},
      {Op::kExit, 0, 0, 0, 0},
      {Op::kMovImm, 0, 0, 0, -1},  // pass: PASS sentinel
      {Op::kExit, 0, 0, 0, 0},
  };
  return prog;
}

TEST_P(VerifierSoundnessFuzz, AcceptedTemplateMutationsRunWithoutFaults) {
  Rng rng(GetParam() ^ 0xfeedface);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    TemplateParams p;
    p.guard = 1 + static_cast<uint32_t>(rng.NextBounded(64));
    p.probe = static_cast<uint32_t>(rng.NextBounded(64));
    p.mask = static_cast<uint32_t>(rng.NextBounded(64));
    p.base = static_cast<uint32_t>(rng.NextBounded(16));
    p.width = 1u << rng.NextBounded(4);
    const Program prog = TemplateProgram(p);

    const bool safe = p.probe + 1 <= p.guard &&
                      p.mask + p.base + p.width <= p.guard;
    AnalysisFacts facts;
    const Status status =
        Verify(prog, ProgramContext::kPacket, {}, nullptr, &facts);
    if (status.ok()) {
      ++accepted;
      // Templates are loop-free: the cost pass must always bound them.
      EXPECT_TRUE(facts.cost.bounded);
      EXPECT_GT(facts.cost.wcet_insns, 0u);
      // Never trust "ok" alone: run it. Unsound acceptance faults here.
      AssertSoundOnPackets(prog, rng, 64, &facts);
      EXPECT_TRUE(safe) << "verifier accepted an unsafe template: guard="
                        << p.guard << " probe=" << p.probe << " mask="
                        << p.mask << " base=" << p.base << " width="
                        << p.width;
    } else {
      ++rejected;
      // The mask is a power-of-two-minus-one only sometimes; the interval
      // engine is allowed to be imprecise, but it must never reject a
      // parameter draw and accept a strictly looser one — spot-check that
      // all definitely-unsafe draws are rejected.
      EXPECT_FALSE(p.mask + p.base + p.width <= p.guard &&
                   p.probe + 1 <= p.guard)
          << "verifier rejected a provably safe template: " << status
          << " guard=" << p.guard << " probe=" << p.probe << " mask="
          << p.mask << " base=" << p.base << " width=" << p.width;
    }
  }
  // The parameter ranges guarantee a healthy mix of both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// Thread-context template: branch-narrowed loop bound. The guard
// `jge r6, N, done` must make the loop verifiable and terminating for any
// runtime r1/r2.
TEST_P(VerifierSoundnessFuzz, AcceptedLoopTemplatesRunWithoutFaults) {
  Rng rng(GetParam() ^ 0x10adb0d5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto bound = static_cast<int64_t>(1 + rng.NextBounded(64));
    Program prog;
    prog.name = "loop_tmpl";
    prog.insns = {
        {Op::kMovImm, 6, 0, 0, 0},
        {Op::kMovImm, 0, 0, 0, 0},
        {Op::kJgeImm, 6, 0, 3, bound},  // -> done
        {Op::kAddImm, 0, 0, 0, 3},
        {Op::kAddImm, 6, 0, 0, 1},
        {Op::kJa, 0, 0, -4, 0},
        {Op::kExit, 0, 0, 0, 0},
    };
    AnalysisFacts facts;
    ASSERT_TRUE(
        Verify(prog, ProgramContext::kThread, {}, nullptr, &facts).ok())
        << "bound=" << bound;
    // The loop bound is concrete, so the cost pass must find the exact
    // worst case: every concrete run then sits at or under it.
    EXPECT_TRUE(facts.cost.bounded) << "bound=" << bound;
    EXPECT_GT(facts.cost.wcet_insns, 0u);
    AssertSoundOnScalars(prog, rng, 8, &facts);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierSoundnessFuzz,
                         testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace syrup::bpf
