// Tests for the pre-decoded execution tier (src/bpf/compiler.h).
//
// The contract under test: for any verifier-accepted program, the compiled
// executor (bytecode loop and native machine code) produces exactly the
// interpreter oracle's (tests/oracles/interpreter.h) r0, map side effects,
// and helper/tail-call counts — only insns_executed may differ (folding
// shrinks it). Unit tests pin the
// individual optimizations; the differential fuzz and the builtin-policy
// sweep enforce the equivalence wholesale; the experiment test extends it
// to end-to-end simulation results.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/apps/experiments.h"
#include "src/bpf/assembler.h"
#include "src/bpf/compiler.h"
#include "src/bpf/jit.h"
#include "src/bpf/verifier.h"
#include "src/common/rng.h"
#include "src/map/map.h"
#include "src/map/prog_array.h"
#include "src/net/packet.h"
#include "src/policies/builtin.h"
#include "tests/oracles/interpreter.h"

namespace syrup {
namespace {

using bpf::CompileOptions;
using bpf::CompiledExecutor;
using bpf::CompiledProgram;
using bpf::COp;
using bpf::ExecEnv;
using bpf::ExecMode;
using bpf::Interpreter;
using bpf::Program;
using bpf::ProgramContext;

struct Loaded {
  Program prog;
  ProgramContext context = ProgramContext::kPacket;
};

// Assembles `source` and materializes its maps. Extern maps (tests have no
// registry) are created as u32 -> u64 arrays of 8 slots.
Loaded Load(std::string_view source) {
  auto assembled = bpf::Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status();
  Loaded loaded;
  loaded.context = assembled->context;
  loaded.prog.name = assembled->name;
  loaded.prog.insns = assembled->insns;
  for (const bpf::MapSlot& slot : assembled->map_slots) {
    MapSpec spec = slot.spec;
    if (slot.is_extern) {
      spec = MapSpec{};
      spec.type = MapType::kArray;
      spec.max_entries = 8;
      spec.name = slot.name;
    }
    loaded.prog.maps.push_back(CreateMap(spec).value());
  }
  return loaded;
}

ExecEnv TestEnv() {
  ExecEnv env;
  env.random_u32 = []() { return 4u; };
  env.ktime_ns = []() { return 123'456u; };
  return env;
}

CompiledProgram CompileOrDie(const Program& prog, ProgramContext context,
                             CompileOptions options = {}) {
  auto compiled = bpf::Compile(prog, context, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  return *std::move(compiled);
}

uint64_t RunCompiledScalar(const CompiledProgram& prog, uint64_t a1 = 0,
                           uint64_t a2 = 0) {
  CompiledExecutor exec(TestEnv());
  auto result = exec.Run(prog, a1, a2, /*args_are_packet=*/false);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->r0;
}

uint64_t RunInterpScalar(const Program& prog, uint64_t a1 = 0,
                         uint64_t a2 = 0) {
  Interpreter interp(TestEnv());
  auto result = interp.Run(prog, a1, a2, /*args_are_packet=*/false);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->r0;
}

bool HasOp(const CompiledProgram& prog, COp op) {
  for (const bpf::CInsn& insn : prog.code) {
    if (insn.op == op) return true;
  }
  return false;
}

// --- unit: translation shape --------------------------------------------------

TEST(Compiler, ExecModeNames) {
  EXPECT_EQ(bpf::ExecModeName(ExecMode::kCompiled), "compiled");
  EXPECT_EQ(bpf::ExecModeName(ExecMode::kNative), "native");
  for (ExecMode mode : {ExecMode::kCompiled, ExecMode::kNative}) {
    EXPECT_EQ(bpf::ExecModeFromName(bpf::ExecModeName(mode)), mode);
  }
  EXPECT_EQ(bpf::ExecModeFromName("warp-speed"), std::nullopt);
  // The retired tiers (the re-checking compiled tier and the interpreter,
  // now a test oracle) are gone, not aliased.
  EXPECT_EQ(bpf::ExecModeFromName("compiled-paranoid"), std::nullopt);
  EXPECT_EQ(bpf::ExecModeFromName("interpret"), std::nullopt);
}

TEST(Compiler, EffectiveExecModeReportsActualTier) {
  Loaded l = Load("mov r0, 1\nexit\n");
  CompiledProgram plain = CompileOrDie(l.prog, ProgramContext::kThread);
  EXPECT_EQ(bpf::EffectiveExecMode(plain), ExecMode::kCompiled);
  auto native = bpf::JitCompile(plain);
  if (bpf::JitAvailable()) {
    ASSERT_TRUE(native.ok()) << native.status();
    plain.native = std::move(native).value();
    EXPECT_EQ(bpf::EffectiveExecMode(plain), ExecMode::kNative);
  } else {
    // Requested native, nothing published: still the compiled tier.
    EXPECT_FALSE(native.ok());
    EXPECT_EQ(bpf::EffectiveExecMode(plain), ExecMode::kCompiled);
  }
}

TEST(Compiler, StatsAccountForSentinel) {
  Loaded l = Load("mov r0, 1\nexit\n");
  CompiledProgram c = CompileOrDie(l.prog, ProgramContext::kThread);
  EXPECT_EQ(c.stats.input_insns, l.prog.insns.size());
  // The code vector carries one trailing kExit sentinel beyond the counted
  // output instructions.
  EXPECT_EQ(c.code.size(), c.stats.output_insns + 1);
  EXPECT_EQ(c.code.back().op, COp::kExit);
}

TEST(Compiler, FoldsConstantAluChains) {
  Loaded l = Load(R"(
    mov r3, 21
    add r3, 21
    mov r0, r3
    exit
  )");
  CompiledProgram c = CompileOrDie(l.prog, ProgramContext::kThread);
  EXPECT_GE(c.stats.folded_alu, 1u);
  EXPECT_LT(c.stats.output_insns, c.stats.input_insns);
  EXPECT_EQ(RunCompiledScalar(c), 42u);
  EXPECT_EQ(RunInterpScalar(l.prog), 42u);
}

TEST(Compiler, StrengthReducesPow2MulDivMod) {
  Loaded l = Load(R"(
    mov r0, r1
    mul r0, 8
    mov r4, r1
    div r4, 4
    add r0, r4
    mov r5, r1
    mod r5, 16
    add r0, r5
    exit
  )");
  CompiledProgram c = CompileOrDie(l.prog, ProgramContext::kThread);
  EXPECT_GE(c.stats.strength_reduced, 3u);
  EXPECT_FALSE(HasOp(c, COp::kMulImm));
  EXPECT_FALSE(HasOp(c, COp::kDivImm));
  EXPECT_FALSE(HasOp(c, COp::kModImm));
  for (uint64_t arg : {0ull, 1ull, 5ull, 255ull, (1ull << 40) + 3}) {
    EXPECT_EQ(RunCompiledScalar(c, arg), RunInterpScalar(l.prog, arg))
        << "arg=" << arg;
  }
}

TEST(Compiler, FoldsDecidedBranches) {
  Loaded taken = Load(R"(
    mov r3, 5
    jeq r3, 5, yes
    mov r0, 1
    exit
  yes:
    mov r0, 2
    exit
  )");
  CompiledProgram c = CompileOrDie(taken.prog, ProgramContext::kThread);
  EXPECT_EQ(RunCompiledScalar(c), 2u);
  EXPECT_EQ(RunInterpScalar(taken.prog), 2u);
  EXPECT_GT(c.stats.strength_reduced + c.stats.eliminated_insns, 0u);

  Loaded untaken = Load(R"(
    mov r3, 5
    jne r3, 5, yes
    mov r0, 1
    exit
  yes:
    mov r0, 2
    exit
  )");
  CompiledProgram u = CompileOrDie(untaken.prog, ProgramContext::kThread);
  EXPECT_EQ(RunCompiledScalar(u), 1u);
  EXPECT_EQ(RunInterpScalar(untaken.prog), 1u);
  EXPECT_GE(u.stats.eliminated_insns, 1u);
}

TEST(Compiler, FactsEliminateRangeDecidedBranches) {
  // The constant lattice cannot see through the load, but the verifier's
  // range analysis proves `jgt r4, 40, dead` never taken (r4 ≤ 15), so the
  // branch and its arm vanish from the compiled form via AnalysisFacts.
  Loaded l = Load(R"(
    mov r3, r1
    add r3, 8
    jgt r3, r2, out
    ldxb r4, [r1+0]
    and r4, 15
    jgt r4, 40, dead
    mov r0, r4
    exit
  dead:
    mov r0, 77
    exit
  out:
    mov r0, PASS
    exit
  )");
  CompiledProgram c = CompileOrDie(l.prog, ProgramContext::kPacket);
  EXPECT_GE(c.stats.facts_decided_branches, 1u);
  EXPECT_GE(c.stats.facts_dead_insns, 2u);  // the `dead:` arm

  // Same compile with facts suppressed keeps the branch.
  bpf::AnalysisFacts no_facts;
  CompileOptions options;
  options.assume_verified = true;
  options.facts = &no_facts;
  CompiledProgram base = CompileOrDie(l.prog, ProgramContext::kPacket,
                                      options);
  EXPECT_EQ(base.stats.facts_decided_branches, 0u);
  EXPECT_LT(c.stats.output_insns, base.stats.output_insns);

  Packet pkt;
  pkt.SetHeader(ReqType::kGet, 1, 0xabcdef01u, 7, 0);
  const auto start = reinterpret_cast<uint64_t>(pkt.wire.data());
  const auto end = start + pkt.wire.size();
  Interpreter interp(TestEnv());
  CompiledExecutor exec(TestEnv());
  const uint64_t want = interp.Run(l.prog, start, end, true)->r0;
  EXPECT_EQ(exec.Run(c, start, end, true)->r0, want);
  EXPECT_EQ(exec.Run(base, start, end, true)->r0, want);
}

TEST(Compiler, VarHeaderElidesChecksAndMatchesInterpreter) {
  // The acceptance-bar policy: variable-offset packet parse, compiled with
  // its memory checks elided, same result in every tier.
  Loaded l = Load(VarHeaderPolicyAsm(4));
  CompiledProgram plain = CompileOrDie(l.prog, ProgramContext::kPacket);
  EXPECT_GE(plain.stats.elided_checks, 2u);  // both loads unchecked
  Interpreter interp(TestEnv());
  CompiledExecutor exec(TestEnv());
  for (uint32_t hash : {0u, 3u, 0x1234u, 0xdeadbeefu}) {
    Packet pkt;
    pkt.SetHeader(ReqType::kGet, 1, hash, hash, 0);
    const auto start = reinterpret_cast<uint64_t>(pkt.wire.data());
    const auto end = start + pkt.wire.size();
    const uint64_t want = interp.Run(l.prog, start, end, true)->r0;
    EXPECT_EQ(exec.Run(plain, start, end, true)->r0, want) << hash;
  }
}

TEST(Compiler, EliminatesDeadConstantMoves) {
  Loaded l = Load(R"(
    mov r3, 99
    mov r3, r1
    mov r0, r3
    exit
  )");
  CompiledProgram c = CompileOrDie(l.prog, ProgramContext::kThread);
  EXPECT_GE(c.stats.eliminated_insns, 1u);
  EXPECT_EQ(RunCompiledScalar(c, 7), 7u);
}

TEST(Compiler, ElidesMemoryChecks) {
  Loaded l = Load(R"(
    mov r3, r1
    add r3, 8
    jgt r3, r2, pass
    ldxw r4, [r1+0]
    mov r0, r4
    exit
  pass:
    mov r0, PASS
    exit
  )");
  CompiledProgram plain = CompileOrDie(l.prog, ProgramContext::kPacket);
  EXPECT_GE(plain.stats.elided_checks, 1u);
  EXPECT_TRUE(HasOp(plain, COp::kLdxW));

  Packet pkt;
  pkt.SetHeader(ReqType::kGet, 1, 2, 3, 4);
  const auto start = reinterpret_cast<uint64_t>(pkt.wire.data());
  const auto end = start + pkt.wire.size();
  Interpreter interp(TestEnv());
  const uint64_t want = interp.Run(l.prog, start, end, true)->r0;
  CompiledExecutor exec(TestEnv());
  EXPECT_EQ(exec.Run(plain, start, end, true)->r0, want);
}

TEST(Compiler, RefusesUnverifiableProgramByDefault) {
  // Unchecked packet load: the verifier rejects it, so Compile must too —
  // eliding checks for it would be unsound.
  Loaded l = Load("ldxw r0, [r1+0]\nexit\n");
  auto compiled = bpf::Compile(l.prog, ProgramContext::kPacket);
  EXPECT_FALSE(compiled.ok());
  // An explicitly pre-verified caller may skip the internal pass (syrupd's
  // deploy path); then translation succeeds mechanically. Running the
  // result would be unsound, so this test never does.
  CompileOptions options;
  options.assume_verified = true;
  EXPECT_TRUE(bpf::Compile(l.prog, ProgramContext::kPacket, options).ok());
}

TEST(Compiler, ResolvesMapsToDirectPointers) {
  Loaded l = Load(RoundRobinPolicyAsm(4));
  CompiledProgram c = CompileOrDie(l.prog, ProgramContext::kPacket);
  bool found = false;
  for (const bpf::CInsn& insn : c.code) {
    if (insn.op == COp::kLdMapPtr) {
      EXPECT_EQ(reinterpret_cast<Map*>(insn.imm), l.prog.maps[0].get());
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(c.maps.size(), l.prog.maps.size());
}

// --- unit: tail calls ---------------------------------------------------------

TEST(Compiler, TailCallResolvesThroughCompiledCache) {
  Loaded target = Load("mov r0, 77\nexit\n");
  auto compiled_target = CompileOrDie(target.prog, ProgramContext::kThread);

  Loaded root = Load(R"(
    .map progs prog_array 4 8 4
    mov r1, 0
    ldmapfd r2, progs
    mov r3, 2
    call tail_call
    mov r0, 11    ; only reached when the slot is empty
    exit
  )");
  CompiledProgram compiled_root =
      CompileOrDie(root.prog, ProgramContext::kThread);

  ExecEnv env = TestEnv();
  env.resolve_compiled = [&](uint64_t id) -> const CompiledProgram* {
    return id == 500 ? &compiled_target : nullptr;
  };
  CompiledExecutor exec(env);

  // Empty slot: falls through like the interpreter.
  auto miss = exec.Run(compiled_root, 0, 0, false);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->r0, 11u);
  EXPECT_EQ(miss->tail_calls, 0u);

  auto* prog_array = static_cast<ProgArrayMap*>(root.prog.maps[0].get());
  uint32_t key = 2;
  uint64_t prog_id = 500;
  ASSERT_TRUE(prog_array->Update(&key, &prog_id, UpdateFlag::kAny).ok());
  auto hit = exec.Run(compiled_root, 0, 0, false);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->r0, 77u);
  EXPECT_EQ(hit->tail_calls, 1u);
  EXPECT_EQ(hit->helper_calls, 1u);  // tail calls count as helper calls

  // No resolver at all: a compiled tail call degrades to a miss.
  CompiledExecutor bare(TestEnv());
  auto unresolved = bare.Run(compiled_root, 0, 0, false);
  ASSERT_TRUE(unresolved.ok());
  EXPECT_EQ(unresolved->r0, 11u);
}

TEST(Compiler, TailCallTargetRunsOnItsOwnMapsAndStack) {
  // After the jump, the target's code runs with its own resolved map
  // pointers and a fresh frame pointer: its stack key and map lookup work
  // exactly as they would had it been entered directly.
  Loaded target = Load(R"(
    .map state array 4 8 1
    mov r1, 0
    stxw [r10-4], r1
    ldmapfd r1, state
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jne r0, 0, have
    mov r0, 5
    exit
  have:
    ldxdw r0, [r0+0]
    add r0, 1
    exit
  )");
  auto compiled_target = CompileOrDie(target.prog, ProgramContext::kThread);

  Loaded root = Load(R"(
    .map progs prog_array 4 8 1
    mov r1, 0
    ldmapfd r2, progs
    mov r3, 0
    call tail_call
    mov r0, 0
    exit
  )");
  auto compiled_root = CompileOrDie(root.prog, ProgramContext::kThread);
  auto* prog_array = static_cast<ProgArrayMap*>(root.prog.maps[0].get());
  uint32_t key = 0;
  uint64_t prog_id = 9;
  ASSERT_TRUE(prog_array->Update(&key, &prog_id, UpdateFlag::kAny).ok());

  ExecEnv env = TestEnv();
  env.resolve_compiled = [&](uint64_t id) -> const CompiledProgram* {
    return id == 9 ? &compiled_target : nullptr;
  };
  CompiledExecutor exec(env);
  auto result = exec.Run(compiled_root, 0, 0, false);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->r0, 1u);  // zero-init array value + 1
}

// --- differential: builtin policies across all three modes --------------------

using MapImage = std::map<std::vector<uint8_t>, std::vector<uint8_t>>;

MapImage DumpMap(Map& m) {
  MapImage image;
  const uint32_t key_size = m.spec().key_size;
  const uint32_t value_size = m.spec().value_size;
  m.Visit([&](const void* key, void* value) {
    const auto* k = static_cast<const uint8_t*>(key);
    const auto* v = static_cast<const uint8_t*>(value);
    image[std::vector<uint8_t>(k, k + key_size)] =
        std::vector<uint8_t>(v, v + value_size);
  });
  return image;
}

// Deterministic pre-population so lookups exercise hit, miss, zero and
// non-zero token paths identically in every mode.
void Prepopulate(Map& m) {
  if (m.spec().type == MapType::kProgArray) return;
  if (m.spec().key_size != 4 || m.spec().value_size != 8) return;
  if (m.spec().type == MapType::kArray) {
    for (uint32_t i = 0; i < m.spec().max_entries; ++i) {
      EXPECT_TRUE(m.UpdateU64(i, (i % 2) ? 1 : 2).ok());
    }
  } else {
    for (uint32_t k = 1; k <= 4; ++k) {
      EXPECT_TRUE(m.UpdateU64(k, (k % 2) ? 0 : 50).ok());
    }
  }
}

// The engines a differential run compares: the interpreter oracle and the
// two deployment tiers.
enum class Engine { kOracle, kCompiled, kNative };

struct ModeRun {
  std::vector<uint64_t> decisions;
  uint64_t helper_calls = 0;
  uint64_t tail_calls = 0;
  uint64_t insns = 0;
  std::vector<MapImage> maps;
  // True when native mode actually published machine code (as opposed to
  // transparently falling back to the compiled tier).
  bool native_engaged = false;
};

ModeRun RunVariant(const std::string& source, Engine engine, uint64_t seed,
                   int iters) {
  Loaded l = Load(source);
  for (auto& m : l.prog.maps) Prepopulate(*m);

  auto helper_rng = std::make_shared<Rng>(seed ^ 0x9e3779b9ULL);
  auto ticks = std::make_shared<uint64_t>(0);
  ExecEnv env;
  env.random_u32 = [helper_rng]() {
    return static_cast<uint32_t>(helper_rng->Next());
  };
  env.ktime_ns = [ticks]() { return (*ticks += 100); };

  Interpreter interp(env);
  CompiledExecutor exec(env);
  CompiledProgram compiled;
  bool native_engaged = false;
  if (engine != Engine::kOracle) {
    compiled = CompileOrDie(l.prog, l.context);
    if (engine == Engine::kNative) {
      // JIT failure (disabled, unsupported host/program) is the documented
      // transparent fallback to the compiled tier, same as syrupd's deploy.
      auto native = bpf::JitCompile(compiled);
      if (native.ok()) {
        compiled.native = std::move(native).value();
        native_engaged = true;
      }
    }
  }

  ModeRun run;
  Rng input_rng(seed);  // identical input stream in every mode
  for (int i = 0; i < iters; ++i) {
    uint64_t arg1 = 0;
    uint64_t arg2 = 0;
    Packet pkt;
    if (l.context == ProgramContext::kPacket) {
      const auto type =
          input_rng.NextBounded(2) == 0 ? ReqType::kGet : ReqType::kScan;
      pkt.SetHeader(type, 1 + static_cast<uint32_t>(input_rng.NextBounded(5)),
                    static_cast<uint32_t>(input_rng.Next()),
                    static_cast<uint64_t>(i), static_cast<Time>(i));
      arg1 = reinterpret_cast<uint64_t>(pkt.wire.data());
      arg2 = arg1 + pkt.wire.size();
    } else {
      arg1 = input_rng.NextBounded(12);  // tid: mixes map hits and misses
    }
    const bool is_packet = l.context == ProgramContext::kPacket;
    auto result = engine == Engine::kOracle
                      ? interp.Run(l.prog, arg1, arg2, is_packet)
                      : exec.Run(compiled, arg1, arg2, is_packet);
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) break;
    run.decisions.push_back(result->r0);
    run.helper_calls += result->helper_calls;
    run.tail_calls += result->tail_calls;
    run.insns += result->insns_executed;
  }
  for (auto& m : l.prog.maps) run.maps.push_back(DumpMap(*m));
  run.native_engaged = native_engaged;
  return run;
}

struct BuiltinCase {
  const char* label;
  std::string source;
};

class BuiltinDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(BuiltinDifferentialTest, AllModesAgreeOnDecisionsAndSideEffects) {
  const uint64_t seed = GetParam();
  const BuiltinCase cases[] = {
      {"round_robin", RoundRobinPolicyAsm(4)},
      {"hash", HashPolicyAsm(4)},
      {"scan_avoid", ScanAvoidPolicyAsm(4)},
      {"sita", SitaPolicyAsm(4)},
      {"token", TokenPolicyAsm()},
      {"mica_home", MicaHomePolicyAsm(4)},
      {"var_header", VarHeaderPolicyAsm(4)},
      {"least_loaded", LeastLoadedPolicyAsm(4, "/pins/load")},
      {"power_of_two", PowerOfTwoPolicyAsm(4, "/pins/load")},
      {"get_priority", GetPriorityThreadPolicyAsm("/pins/thread_types")},
  };
  constexpr int kIters = 200;
  for (const BuiltinCase& c : cases) {
    ModeRun interp = RunVariant(c.source, Engine::kOracle, seed, kIters);
    ModeRun compiled = RunVariant(c.source, Engine::kCompiled, seed, kIters);
    ModeRun native = RunVariant(c.source, Engine::kNative, seed, kIters);
    EXPECT_EQ(interp.decisions, compiled.decisions) << c.label;
    EXPECT_EQ(interp.decisions, native.decisions) << c.label;
    EXPECT_EQ(interp.helper_calls, compiled.helper_calls) << c.label;
    EXPECT_EQ(interp.helper_calls, native.helper_calls) << c.label;
    EXPECT_EQ(interp.maps, compiled.maps) << c.label;
    EXPECT_EQ(interp.maps, native.maps) << c.label;
    if (bpf::JitAvailable()) {
      // Every builtin policy is JIT-able (no tail calls), and the per-block
      // instruction accounting must agree with the compiled tier's
      // per-instruction count exactly.
      EXPECT_TRUE(native.native_engaged) << c.label;
      EXPECT_EQ(native.insns, compiled.insns) << c.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuiltinDifferentialTest,
                         testing::Values(1, 17, 4242));

// --- differential: random verifier-accepted programs --------------------------

bpf::Insn RandomInsn(Rng& rng, size_t prog_len) {
  using bpf::Op;
  static constexpr Op kOps[] = {
      Op::kAddReg, Op::kAddImm, Op::kSubReg, Op::kSubImm, Op::kMulImm,
      Op::kDivImm, Op::kModImm, Op::kOrImm, Op::kAndImm, Op::kLshImm,
      Op::kRshImm, Op::kArshImm, Op::kNeg, Op::kMovReg, Op::kMovImm,
      Op::kMov32Imm, Op::kBe16, Op::kBe64, Op::kLdxB, Op::kLdxW, Op::kLdxDW,
      Op::kStxB, Op::kStxDW, Op::kStW, Op::kJa, Op::kJeqImm, Op::kJneImm,
      Op::kJgtReg, Op::kJgeReg, Op::kJltImm, Op::kJsgtImm, Op::kJsetImm,
      Op::kCall, Op::kExit};
  bpf::Insn insn;
  insn.op = kOps[rng.NextBounded(sizeof(kOps) / sizeof(kOps[0]))];
  insn.dst = static_cast<uint8_t>(rng.NextBounded(11));
  insn.src = static_cast<uint8_t>(rng.NextBounded(11));
  insn.off =
      static_cast<int16_t>(rng.NextBounded(2 * prog_len) - prog_len);
  if (insn.op == bpf::Op::kCall) {
    insn.imm = static_cast<int64_t>(rng.NextBounded(8));
  } else {
    insn.imm = static_cast<int64_t>(rng.NextBounded(64)) - 16;
  }
  return insn;
}

class CompilerFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CompilerFuzzTest, CompiledMatchesInterpreterOnVerifiedPrograms) {
  Rng rng(GetParam());
  int verified = 0;
  // The generator is crude; keep drawing until enough programs pass the
  // verifier (bounded so a pathological seed cannot hang the test).
  for (int trial = 0; trial < 50'000 && verified < 40; ++trial) {
    const size_t length = 2 + rng.NextBounded(14);
    Program prog;
    prog.name = "fuzz";
    for (size_t i = 0; i + 1 < length; ++i) {
      prog.insns.push_back(RandomInsn(rng, length));
    }
    prog.insns.push_back(bpf::Insn{bpf::Op::kExit, 0, 0, 0, 0});

    bpf::VerifierOptions options;
    options.max_visited_insns = 20'000;
    if (!bpf::Verify(prog, ProgramContext::kPacket, options).ok()) {
      continue;
    }
    ++verified;

    CompileOptions assume;
    assume.assume_verified = true;
    auto plain = bpf::Compile(prog, ProgramContext::kPacket, assume);
    ASSERT_TRUE(plain.ok()) << plain.status();
    // Native tier. Random programs may draw the tail-call helper, which the
    // JIT rejects; that exercises the documented fallback (native == plain).
    CompiledProgram native_prog = *plain;
    auto jit = bpf::JitCompile(native_prog);
    if (jit.ok()) native_prog.native = std::move(jit).value();

    Packet pkt;
    pkt.SetHeader(ReqType::kGet, 1, 2, 3, 4);
    const auto start = reinterpret_cast<uint64_t>(pkt.wire.data());
    const auto end = start + pkt.wire.size();

    // Three identical env instances: the helper RNG streams must line up.
    auto run = [&](auto& engine, const auto& program) {
      return engine.Run(program, start, end, /*args_are_packet=*/true);
    };
    Rng rng_a(trial), rng_b(trial), rng_c(trial);
    ExecEnv env_a, env_b, env_c;
    env_a.random_u32 = [&]() { return static_cast<uint32_t>(rng_a.Next()); };
    env_b.random_u32 = [&]() { return static_cast<uint32_t>(rng_b.Next()); };
    env_c.random_u32 = [&]() { return static_cast<uint32_t>(rng_c.Next()); };
    env_a.ktime_ns = env_b.ktime_ns = env_c.ktime_ns = []() { return 99u; };
    Interpreter interp(env_a);
    CompiledExecutor exec_plain(env_b);
    CompiledExecutor exec_native(env_c);

    auto want = run(interp, prog);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got_plain = run(exec_plain, *plain);
    ASSERT_TRUE(got_plain.ok()) << got_plain.status();
    auto got_native = run(exec_native, native_prog);
    ASSERT_TRUE(got_native.ok()) << got_native.status();

    EXPECT_EQ(got_plain->r0, want->r0) << "trial " << trial;
    EXPECT_EQ(got_native->r0, want->r0) << "trial " << trial;
    EXPECT_EQ(got_plain->helper_calls, want->helper_calls);
    EXPECT_EQ(got_native->helper_calls, want->helper_calls);
    EXPECT_EQ(got_plain->tail_calls, want->tail_calls);
    if (native_prog.native != nullptr) {
      EXPECT_EQ(got_native->insns_executed, got_plain->insns_executed)
          << "trial " << trial;
    }
  }
  EXPECT_GT(verified, 0);
}

// Same seeds as the interpreter's VerifierFuzzTest: each is known to
// produce verifier-accepted programs from this generator.
INSTANTIATE_TEST_SUITE_P(Seeds, CompilerFuzzTest,
                         testing::Values(11, 22, 33, 44, 55, 66));

// --- unit: native (JIT) tier --------------------------------------------------

TEST(Jit, PublishesCodeAndStats) {
  if (!bpf::JitAvailable()) GTEST_SKIP() << "JIT unsupported on this host";
  Loaded l = Load(R"(
    mov r0, r1
    mul r0, 3
    add r0, 7
    exit
  )");
  CompiledProgram c = CompileOrDie(l.prog, ProgramContext::kThread);
  const size_t arena_before = bpf::JitArenaBytesUsed();
  auto native = bpf::JitCompile(c);
  ASSERT_TRUE(native.ok()) << native.status();
  EXPECT_GT((*native)->stats().code_bytes, 0u);
  EXPECT_GT((*native)->stats().stencils, 0u);
  EXPECT_GT(bpf::JitArenaBytesUsed(), arena_before);
  c.native = std::move(native).value();
  for (uint64_t arg : {0ull, 1ull, 13ull, (1ull << 50) + 9}) {
    EXPECT_EQ(RunCompiledScalar(c, arg), arg * 3 + 7) << "arg=" << arg;
  }
}

TEST(Jit, RejectsTailCallPrograms) {
  Loaded l = Load(R"(
    .map progs prog_array 4 8 1
    mov r1, 0
    ldmapfd r2, progs
    mov r3, 0
    call tail_call
    mov r0, 0
    exit
  )");
  CompiledProgram c = CompileOrDie(l.prog, ProgramContext::kThread);
  auto native = bpf::JitCompile(c);
  EXPECT_FALSE(native.ok());
  // Fallback contract: the artifact still runs on the compiled tier.
  EXPECT_EQ(c.native, nullptr);
  EXPECT_EQ(RunCompiledScalar(c), RunInterpScalar(l.prog));
}

TEST(Jit, DisableEnvForcesCompiledFallback) {
  // SYRUP_JIT_DISABLE is the portable way to exercise the non-x86-64 path:
  // JitCompile refuses, the caller keeps the compiled artifact, and results
  // are unchanged.
  Loaded l = Load(R"(
    mov r0, r1
    and r0, 255
    exit
  )");
  CompiledProgram c = CompileOrDie(l.prog, ProgramContext::kThread);
  setenv("SYRUP_JIT_DISABLE", "1", 1);
  auto disabled = bpf::JitCompile(c);
  unsetenv("SYRUP_JIT_DISABLE");
  EXPECT_FALSE(disabled.ok());
  EXPECT_EQ(bpf::EffectiveExecMode(c), ExecMode::kCompiled);
  const uint64_t compiled_r0 = RunCompiledScalar(c, 0x1234);
  auto native = bpf::JitCompile(c);
  if (native.ok()) {
    c.native = std::move(native).value();
    EXPECT_EQ(RunCompiledScalar(c, 0x1234), compiled_r0);
  }
}

// --- end to end: execution tier must not change simulation results ------------

TEST(Compiler, ExperimentResultsIdenticalAcrossExecModes) {
  RocksDbExperimentConfig config;
  config.socket_policy = SocketPolicyKind::kRoundRobin;
  config.thread_sched = ThreadSchedKind::kGhostGetPriority;
  config.use_bytecode = true;
  config.num_threads = 4;
  config.num_cores = 4;
  config.load_rps = 30'000;
  config.get_fraction = 0.8;
  config.warmup = 50 * kMillisecond;
  config.measure = 200 * kMillisecond;
  config.seed = 7;

  config.exec_mode = ExecMode::kCompiled;
  const RocksDbResult compiled = RunRocksDbExperiment(config);
  config.exec_mode = ExecMode::kNative;
  const RocksDbResult native = RunRocksDbExperiment(config);

  EXPECT_GT(compiled.throughput_rps, 0.0);
  // Same seed, same decisions, same event sequence: results must match to
  // the bit, not just statistically. Native either JITs (x86-64) or
  // transparently falls back to compiled — bit-identical either way.
  EXPECT_EQ(compiled.throughput_rps, native.throughput_rps);
  EXPECT_EQ(compiled.p50_us, native.p50_us);
  EXPECT_EQ(compiled.p99_us, native.p99_us);
  EXPECT_EQ(compiled.drop_fraction, native.drop_fraction);
}

}  // namespace
}  // namespace syrup
