// Cost-model and WCET-pass tests.
//
// Three property families:
//  * model sanity — the checked-in DefaultCostModel orders tiers and map
//    kinds the way the hardware does, and CalibratedCostModel only ever
//    widens it;
//  * boundedness — every builtin policy and every shipping example policy
//    verifies with a finite wcet_insns and a concrete hottest path, and the
//    side-effect facts (write/atomic sets, impurities, lints) say what the
//    programs actually do;
//  * cost-vs-reality — for JIT-able policies, the measured per-decision
//    time at the deployment's effective tier must not exceed the
//    calibrated wcet_ns for that tier (the soundness direction operators
//    rely on: measured <= predicted). Failures print the hottest path
//    disassembled.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/bpf/assembler.h"
#include "src/bpf/compiler.h"
#include "src/bpf/cost_model.h"
#include "src/bpf/interpreter.h"
#include "src/bpf/jit.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/map/map.h"
#include "src/policies/builtin.h"

namespace syrup::bpf {
namespace {

constexpr size_t kInterp = static_cast<size_t>(ExecMode::kInterpret);
constexpr size_t kComp = static_cast<size_t>(ExecMode::kCompiled);
constexpr size_t kNat = static_cast<size_t>(ExecMode::kNative);

// Assembles a policy and materializes its map slots the way `syrupctl
// lint`/`cost` do: extern maps (bound at deploy time) are substituted with
// a generic hash map, the most expensive kind, keeping bounds conservative.
Program BuildProgram(const std::string& source) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status();
  Program prog;
  prog.name = assembled->name;
  prog.insns = assembled->insns;
  for (const MapSlot& slot : assembled->map_slots) {
    if (slot.is_extern) {
      MapSpec spec;
      spec.type = MapType::kHash;
      spec.max_entries = 1024;
      prog.maps.push_back(CreateMap(spec).value());
      continue;
    }
    prog.maps.push_back(CreateMap(slot.spec).value());
  }
  return prog;
}

ProgramContext ContextOf(const std::string& source) {
  return source.find(".ctx thread") != std::string::npos
             ? ProgramContext::kThread
             : ProgramContext::kPacket;
}

std::string DisassemblePath(const Program& prog,
                            const std::vector<uint32_t>& path) {
  std::string out;
  for (uint32_t pc : path) {
    out += "  " + std::to_string(pc) + ": " + Disassemble(prog.insns[pc]) +
           "\n";
  }
  return out;
}

TEST(CostModelTest, DefaultModelOrdersTiersAndMapKinds) {
  const CostModel& m = DefaultCostModel();
  // Hash probes cost more than array indexing; per-CPU arrays sit between.
  const auto array = static_cast<size_t>(MapType::kArray);
  const auto hash = static_cast<size_t>(MapType::kHash);
  const auto percpu = static_cast<size_t>(MapType::kPerCpuArray);
  EXPECT_GT(m.lookup_ns[hash], m.lookup_ns[array]);
  EXPECT_GT(m.update_ns[hash], m.update_ns[array]);
  EXPECT_GE(m.lookup_ns[percpu], m.lookup_ns[array]);
  // Every opcode must be priced, and the tiers must be strictly ordered:
  // interpretation pays dispatch, the pre-decoded form less, machine code
  // least.
  for (size_t op = 1; op < kNumOps; ++op) {
    EXPECT_GT(m.op_ns[kInterp][op], 0.0) << "op " << op;
    EXPECT_GT(m.op_ns[kInterp][op], m.op_ns[kComp][op]) << "op " << op;
    EXPECT_GT(m.op_ns[kComp][op], m.op_ns[kNat][op]) << "op " << op;
  }
  EXPECT_GT(m.exec_overhead_ns[kInterp], m.exec_overhead_ns[kComp]);
  EXPECT_GT(m.exec_overhead_ns[kComp], m.exec_overhead_ns[kNat]);
}

TEST(CostModelTest, CalibratedModelNeverCheaperThanDefault) {
  const CostModel& def = DefaultCostModel();
  const CostModel cal = CalibratedCostModel();
  for (size_t t = 0; t < kNumExecModes; ++t) {
    for (size_t op = 0; op < kNumOps; ++op) {
      ASSERT_GE(cal.op_ns[t][op], def.op_ns[t][op])
          << "tier " << t << " op " << op;
    }
    ASSERT_GE(cal.exec_overhead_ns[t], def.exec_overhead_ns[t]);
  }
  for (size_t k = 0; k < kNumMapTypes; ++k) {
    ASSERT_GE(cal.lookup_ns[k], def.lookup_ns[k]);
    ASSERT_GE(cal.update_ns[k], def.update_ns[k]);
    ASSERT_GE(cal.delete_ns[k], def.delete_ns[k]);
  }
  EXPECT_GE(cal.random_ns, def.random_ns);
  EXPECT_GE(cal.ktime_ns, def.ktime_ns);
}

// --- boundedness over the builtin catalog ------------------------------------

std::vector<std::pair<std::string, std::string>> BuiltinPolicies() {
  return {
      {"round_robin", RoundRobinPolicyAsm(4)},
      {"hash", HashPolicyAsm(4)},
      {"scan_avoid", ScanAvoidPolicyAsm(4)},
      {"sita", SitaPolicyAsm(4)},
      {"token", TokenPolicyAsm()},
      {"least_loaded", LeastLoadedPolicyAsm(6, "/syrup/test/load")},
      {"power_of_two", PowerOfTwoPolicyAsm(4, "/syrup/test/load")},
      {"const_index", ConstIndexPolicyAsm(1)},
      {"mica_home", MicaHomePolicyAsm(4)},
      {"var_header", VarHeaderPolicyAsm(4)},
      {"get_priority", GetPriorityThreadPolicyAsm("/syrup/test/types")},
  };
}

TEST(CostModelTest, EveryBuiltinPolicyHasFiniteWcet) {
  for (const auto& [name, source] : BuiltinPolicies()) {
    const Program prog = BuildProgram(source);
    AnalysisFacts facts;
    ASSERT_TRUE(
        Verify(prog, ContextOf(source), {}, nullptr, &facts).ok())
        << name;
    const CostFacts& cost = facts.cost;
    EXPECT_TRUE(cost.bounded) << name;
    EXPECT_GT(cost.wcet_insns, 0u) << name;
    EXPECT_GE(cost.wcet_insns, cost.best_insns) << name;
    EXPECT_FALSE(cost.hottest_path.empty()) << name;
    EXPECT_LE(cost.hottest_path.size(), cost.wcet_insns) << name;
    for (size_t t = 0; t < kNumExecModes; ++t) {
      EXPECT_GT(cost.wcet_ns[t], 0.0) << name << " tier " << t;
      EXPECT_GE(cost.wcet_ns[t], cost.best_ns[t]) << name << " tier " << t;
    }
    // Faster tiers must predict faster wcets for the same paths.
    EXPECT_GT(cost.wcet_ns[kInterp], cost.wcet_ns[kComp]) << name;
    EXPECT_GT(cost.wcet_ns[kComp], cost.wcet_ns[kNat]) << name;
    // Every pc on the hottest path must be a real instruction.
    for (uint32_t pc : cost.hottest_path) {
      ASSERT_LT(pc, prog.insns.size()) << name;
    }
  }
}

TEST(CostModelTest, EveryExamplePolicyHasFiniteWcetOrIsRejected) {
  const std::string dir =
      std::string(SYRUP_SOURCE_DIR) + "/examples/policies/";
  for (const char* file : {"round_robin.s", "var_header.s",
                           "priority_drop.s", "broken_no_bounds_check.s"}) {
    std::ifstream in(dir + file);
    ASSERT_TRUE(in.good()) << dir + file;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();
    const Program prog = BuildProgram(source);
    AnalysisFacts facts;
    const Status status =
        Verify(prog, ContextOf(source), {}, nullptr, &facts);
    if (std::string(file).rfind("broken_", 0) == 0) {
      EXPECT_FALSE(status.ok()) << file;
      continue;
    }
    ASSERT_TRUE(status.ok()) << file << ": " << status;
    EXPECT_TRUE(facts.cost.bounded) << file;
    EXPECT_GT(facts.cost.wcet_insns, 0u) << file;
  }
}

// --- side-effect facts -------------------------------------------------------

TEST(CostModelTest, WriteAndAtomicSetsNameTheMutatedMaps) {
  // Token decrements its bucket with lock xadd: an in-place atomic write.
  {
    const Program prog = BuildProgram(TokenPolicyAsm());
    AnalysisFacts facts;
    ASSERT_TRUE(
        Verify(prog, ProgramContext::kPacket, {}, nullptr, &facts).ok());
    EXPECT_FALSE(facts.write_maps.empty());
    EXPECT_FALSE(facts.atomic_maps.empty());
    EXPECT_FALSE(facts.pure);
    EXPECT_FALSE(facts.impurities.empty());
  }
  // Round robin bumps its cursor with a plain store through the looked-up
  // value pointer: a write, but not an atomic one.
  {
    const Program prog = BuildProgram(RoundRobinPolicyAsm(4));
    AnalysisFacts facts;
    ASSERT_TRUE(
        Verify(prog, ProgramContext::kPacket, {}, nullptr, &facts).ok());
    EXPECT_FALSE(facts.write_maps.empty());
    EXPECT_TRUE(facts.atomic_maps.empty());
    EXPECT_FALSE(facts.pure);
    ASSERT_FALSE(facts.impurities.empty());
    EXPECT_NE(facts.impurities[0].reason.find("map value pointer"),
              std::string::npos);
  }
  // MICA home steering is a pure function of the packet: no writes, no
  // impurities.
  {
    const Program prog = BuildProgram(MicaHomePolicyAsm(4));
    AnalysisFacts facts;
    ASSERT_TRUE(
        Verify(prog, ProgramContext::kPacket, {}, nullptr, &facts).ok());
    EXPECT_TRUE(facts.write_maps.empty());
    EXPECT_TRUE(facts.atomic_maps.empty());
    EXPECT_TRUE(facts.pure);
    EXPECT_TRUE(facts.impurities.empty());
  }
}

TEST(CostModelTest, PurityIsAFactInBothContexts) {
  // Packet programs whose decision is a function of the packet bytes and
  // the maps they read: pure, with nothing to explain. least_loaded reads
  // its load map, which the interference analysis still needs to know.
  for (const auto& [source, reads_map] :
       {std::pair{MicaHomePolicyAsm(4), false},
        std::pair{HashPolicyAsm(4), false},
        std::pair{VarHeaderPolicyAsm(4), false},
        std::pair{LeastLoadedPolicyAsm(4, "/syrup/test/load"), true}}) {
    const Program prog = BuildProgram(source);
    AnalysisFacts facts;
    ASSERT_TRUE(
        Verify(prog, ProgramContext::kPacket, {}, nullptr, &facts).ok());
    EXPECT_TRUE(facts.pure) << prog.name;
    EXPECT_TRUE(facts.impurities.empty()) << prog.name;
    EXPECT_EQ(facts.read_maps, reads_map ? std::vector<int32_t>{0}
                                         : std::vector<int32_t>{})
        << prog.name;
  }
  // Impure packet programs, each with the reason: round robin stores its
  // cursor back through the value pointer, token consumes a token with an
  // atomic add, power-of-two draws random probes, and so does SCAN Avoid,
  // so two identical packets may legitimately get different decisions.
  for (const auto& [source, reason] :
       {std::pair{RoundRobinPolicyAsm(4),
                  "store through a map value pointer"},
        std::pair{TokenPolicyAsm(), "atomic add through a map value pointer"},
        std::pair{PowerOfTwoPolicyAsm(4, "/syrup/test/load"),
                  "get_prandom_u32 (nondeterministic result)"},
        std::pair{ScanAvoidPolicyAsm(4),
                  "get_prandom_u32 (nondeterministic result)"}}) {
    const Program prog = BuildProgram(source);
    AnalysisFacts facts;
    ASSERT_TRUE(
        Verify(prog, ProgramContext::kPacket, {}, nullptr, &facts).ok());
    EXPECT_FALSE(facts.pure) << prog.name;
    std::string reasons;
    for (const Impurity& impurity : facts.impurities) {
      reasons += impurity.reason + "\n";
    }
    EXPECT_NE(reasons.find(reason), std::string::npos)
        << prog.name << " lacks '" << reason << "' in:\n" << reasons;
  }
  // Thread context. The GET-priority classifier only reads its map: pure,
  // which is what lets the ghOSt agent memoize it per pass.
  {
    const Program prog =
        BuildProgram(GetPriorityThreadPolicyAsm("/syrup/test/types"));
    AnalysisFacts facts;
    ASSERT_TRUE(
        Verify(prog, ProgramContext::kThread, {}, nullptr, &facts).ok());
    EXPECT_TRUE(facts.pure);
    EXPECT_TRUE(facts.impurities.empty());
  }
  // A thread classifier that draws randomness keeps its impurity.
  {
    const Program prog = BuildProgram(R"(
.name coin
.ctx thread
  call get_prandom_u32
  and r0, 1
  exit
)");
    AnalysisFacts facts;
    ASSERT_TRUE(
        Verify(prog, ProgramContext::kThread, {}, nullptr, &facts).ok());
    EXPECT_FALSE(facts.pure);
    ASSERT_EQ(facts.impurities.size(), 1u);
    EXPECT_EQ(facts.impurities[0].pc, 0u);
    EXPECT_EQ(facts.impurities[0].reason,
              "get_prandom_u32 (nondeterministic result)");
  }
}

// --- lints -------------------------------------------------------------------

TEST(CostModelTest, RedundantLookupLintFires) {
  // Two identical lookups of the same map with the same stack key and no
  // intervening write: the second should be flagged.
  Program prog;
  prog.name = "double_lookup";
  prog.maps.push_back(CreateMap({.type = MapType::kArray,
                                 .max_entries = 4}).value());
  prog.insns = {
      {Op::kStW, 10, 0, -4, 1},
      {Op::kLdMapFd, 1, 0, 0, 0},
      {Op::kMovReg, 2, 10, 0, 0},
      {Op::kAddImm, 2, 0, 0, -4},
      {Op::kCall, 0, 0, 0, 1},
      {Op::kLdMapFd, 1, 0, 0, 0},
      {Op::kMovReg, 2, 10, 0, 0},
      {Op::kAddImm, 2, 0, 0, -4},
      {Op::kCall, 0, 0, 0, 1},
      {Op::kMovImm, 0, 0, 0, 0},
      {Op::kExit, 0, 0, 0, 0},
  };
  const VerifyReport report = VerifyAll(prog, ProgramContext::kThread);
  ASSERT_TRUE(report.ok()) << report.status();
  bool found = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.message.find("redundant map lookup") != std::string::npos) {
      found = true;
      EXPECT_EQ(d.severity, DiagSeverity::kWarning);
      EXPECT_EQ(d.pc, 8u);  // the second call
    }
  }
  EXPECT_TRUE(found);
}

TEST(CostModelTest, PathOverBudgetLintFires) {
  // A concrete 600-iteration loop: verifiable, but far over the tightest
  // packet-hook budget at the compiled tier.
  Program prog;
  prog.name = "big_loop";
  prog.insns = {
      {Op::kMovImm, 6, 0, 0, 0},
      {Op::kMovImm, 0, 0, 0, 0},
      {Op::kJgeImm, 6, 0, 3, 600},
      {Op::kAddImm, 0, 0, 0, 3},
      {Op::kAddImm, 6, 0, 0, 1},
      {Op::kJa, 0, 0, -4, 0},
      {Op::kExit, 0, 0, 0, 0},
  };
  const VerifyReport report = VerifyAll(prog, ProgramContext::kPacket);
  ASSERT_TRUE(report.ok()) << report.status();
  bool found = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.message.find("packet-hook budget") != std::string::npos) {
      found = true;
      EXPECT_EQ(d.severity, DiagSeverity::kWarning);
    }
  }
  EXPECT_TRUE(found);
  // The same program in thread context sits well under the thread budget:
  // no lint.
  const VerifyReport thread_report =
      VerifyAll(prog, ProgramContext::kThread);
  ASSERT_TRUE(thread_report.ok());
  for (const Diagnostic& d : thread_report.diagnostics) {
    EXPECT_EQ(d.message.find("budget"), std::string::npos) << d.message;
  }
}

// --- cost vs reality ---------------------------------------------------------

// Measures the per-decision wall time of `prog` at its effective tier
// (native when the JIT can take it, else compiled) and asserts it stays
// within the calibrated wcet for that tier, with headroom for scheduling
// noise. Calibration and measurement run on the same host under the same
// instrumentation (ASan inflates both), so the comparison is stable.
void AssertMeasuredWithinPredicted(const std::string& name,
                                   const std::string& source) {
  const Program prog = BuildProgram(source);
  const ProgramContext context = ContextOf(source);
  const CostModel calibrated = CalibratedCostModel();
  VerifierOptions options;
  options.cost_model = &calibrated;
  AnalysisFacts facts;
  ASSERT_TRUE(Verify(prog, context, options, nullptr, &facts).ok()) << name;
  ASSERT_TRUE(facts.cost.bounded) << name;

  CompileOptions copts;
  copts.assume_verified = true;
  copts.facts = &facts;
  auto compiled = Compile(prog, context, copts);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto jit = JitCompile(*compiled);
  if (jit.ok()) {
    compiled->native = std::move(jit).value();
  }
  const ExecMode tier = EffectiveExecMode(&*compiled);
  const double predicted_ns = facts.cost.wcet_ns[static_cast<size_t>(tier)];

  ExecEnv env;
  uint32_t rand_state = 1;
  env.random_u32 = [&rand_state]() {
    rand_state = rand_state * 1664525u + 1013904223u;
    return rand_state;
  };
  uint64_t fake_time = 0;
  env.ktime_ns = [&fake_time]() { return fake_time += 10; };
  CompiledExecutor executor(env);

  std::vector<uint8_t> wire(96, 0);
  const auto start = reinterpret_cast<uint64_t>(wire.data());
  const uint64_t arg1 = context == ProgramContext::kPacket ? start : 7;
  const uint64_t arg2 =
      context == ProgramContext::kPacket ? start + wire.size() : 1;
  const bool is_packet = context == ProgramContext::kPacket;

  constexpr int kIters = 20'000;
  double best_per_run_ns = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      auto result = executor.Run(*compiled, arg1, arg2, is_packet);
      ASSERT_TRUE(result.ok()) << name;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double per_run =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
    best_per_run_ns = std::min(best_per_run_ns, per_run);
  }
  // 1.5x: calibration margin already covers steady-state cost; the slack
  // absorbs residual jitter without masking a real model violation (an
  // underestimate shows up as multiples, not percentages).
  EXPECT_LE(best_per_run_ns, predicted_ns * 1.5)
      << name << ": measured " << best_per_run_ns << " ns/run at the "
      << ExecModeName(tier) << " tier exceeds predicted wcet "
      << predicted_ns << " ns\nhottest path:\n"
      << DisassemblePath(prog, facts.cost.hottest_path);
}

TEST(CostModelTest, MeasuredCostStaysWithinPredictedWcet) {
  AssertMeasuredWithinPredicted("round_robin", RoundRobinPolicyAsm(6));
  AssertMeasuredWithinPredicted("mica_home", MicaHomePolicyAsm(6));
  AssertMeasuredWithinPredicted("var_header", VarHeaderPolicyAsm(6));
  AssertMeasuredWithinPredicted("token", TokenPolicyAsm());
  AssertMeasuredWithinPredicted("scan_avoid", ScanAvoidPolicyAsm(6));
}

}  // namespace
}  // namespace syrup::bpf
