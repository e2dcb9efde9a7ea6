// Cost-model and WCET-pass tests.
//
// Three property families:
//  * model sanity — the checked-in DefaultCostModel orders tiers and map
//    kinds the way the hardware does, and CalibratedCostModel (below: the
//    default scaled to this host) only ever widens it;
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

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/bpf/assembler.h"
#include "src/bpf/compiler.h"
#include "src/bpf/cost_model.h"
#include "src/bpf/jit.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/map/map.h"
#include "src/policies/builtin.h"

namespace syrup::bpf {
namespace {

constexpr size_t kComp = static_cast<size_t>(ExecMode::kCompiled);
constexpr size_t kNat = static_cast<size_t>(ExecMode::kNative);

// --- host calibration --------------------------------------------------------

// r0 = r1; then `adds` data-dependent additions (r1 is a runtime scalar, so
// the compiled tier cannot fold the chain away); exit.
Program MakeAluProgram(std::string name, int adds) {
  Program p;
  p.name = std::move(name);
  p.insns.push_back({Op::kMovReg, 0, 1, 0, 0});
  for (int i = 0; i < adds; ++i) {
    p.insns.push_back({Op::kAddReg, 0, 1, 0, 0});
  }
  p.insns.push_back({Op::kExit, 0, 0, 0, 0});
  return p;
}

// `blocks` repetitions of {ldmapfd r1; r2 = r10 - 4; [call helper]} against
// map 0, with the 4-byte key at r10-4 (and, for update, an 8-byte value at
// r10-16) initialized up front. With `with_calls` false the call is replaced
// by a mov so subtracting the two runs isolates call + helper body cost.
Program MakeHelperProgram(std::string name, HelperId helper, int blocks,
                          bool with_calls, std::shared_ptr<Map> map) {
  Program p;
  p.name = std::move(name);
  p.maps.push_back(std::move(map));
  p.insns.push_back({Op::kStW, 10, 0, -4, 1});     // key = 1
  p.insns.push_back({Op::kStDW, 10, 0, -16, 5});   // value = 5
  for (int i = 0; i < blocks; ++i) {
    p.insns.push_back({Op::kLdMapFd, 1, 0, 0, 0});
    p.insns.push_back({Op::kMovReg, 2, 10, 0, 0});
    p.insns.push_back({Op::kAddImm, 2, 0, 0, -4});
    if (helper == HelperId::kMapUpdateElem) {
      p.insns.push_back({Op::kMovReg, 3, 10, 0, 0});
      p.insns.push_back({Op::kAddImm, 3, 0, 0, -16});
    }
    if (with_calls) {
      p.insns.push_back({Op::kCall, 0, 0, 0, static_cast<int64_t>(helper)});
    } else {
      p.insns.push_back({Op::kMovImm, 0, 0, 0, 0});
    }
  }
  p.insns.push_back({Op::kMovImm, 0, 0, 0, 0});
  p.insns.push_back({Op::kExit, 0, 0, 0, 0});
  return p;
}

// Best-of-`reps` average ns per call of `run` over `iters` iterations.
template <typename F>
double MinNsPerCall(F&& run, int iters, int reps) {
  double best = std::numeric_limits<double>::max();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) run();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                  iters);
  }
  return best;
}

// Best ns per run of `prog` at `tier`; nullopt when it does not compile or,
// at the native tier, when the JIT refuses the program or the host.
std::optional<double> TimeTier(const Program& prog, ExecMode tier, int iters) {
  auto compiled = Compile(prog, ProgramContext::kThread);
  if (!compiled.ok()) return std::nullopt;
  if (tier == ExecMode::kNative) {
    auto native = JitCompile(*compiled);
    if (!native.ok()) return std::nullopt;
    compiled->native = std::move(native).value();
  }
  CompiledExecutor exec{ExecEnv{}};
  uint64_t sink = 0;
  const double ns = MinNsPerCall(
      [&] {
        auto r = exec.Run(*compiled, 3, 7, /*args_are_packet=*/false);
        if (r.ok()) sink += r->r0;
      },
      iters, 3);
  (void)sink;
  return ns;
}

struct TierMeasurement {
  double per_insn_ns = 0;
  double overhead_ns = 0;
};

// Per-instruction and per-run cost of `tier` from a straight-line ALU chain
// against a two-instruction program.
std::optional<TierMeasurement> MeasureAluTier(ExecMode tier) {
  constexpr double kTinyInsns = 2.0;
  constexpr double kChainInsns = 258.0;
  const auto t_tiny = TimeTier(MakeAluProgram("cal_tiny", 0), tier, 20000);
  const auto t_chain =
      TimeTier(MakeAluProgram("cal_chain", 256), tier, 2000);
  if (!t_tiny.has_value() || !t_chain.has_value()) return std::nullopt;
  TierMeasurement out;
  out.per_insn_ns =
      std::max(0.0, (*t_chain - *t_tiny) / (kChainInsns - kTinyInsns));
  out.overhead_ns = std::max(0.0, *t_tiny - kTinyInsns * out.per_insn_ns);
  return out;
}

// Measured call-dispatch + helper-body cost per call at the compiled tier
// (bodies are tier-independent host C++). Returns < 0 on failure.
double MeasureHelperNs(HelperId helper, MapType map_type) {
  MapSpec spec;
  spec.type = map_type;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 64;
  spec.name = "cal_map";
  auto map = CreateMap(spec);
  if (!map.ok()) return -1;
  {
    // Seed the probed key so lookups measure the hit path.
    const uint32_t key = 1;
    const uint64_t value = 5;
    (void)(*map)->Update(&key, &value, UpdateFlag::kAny);
  }
  constexpr int kBlocks = 8;
  const auto t_with = TimeTier(
      MakeHelperProgram("cal_helper", helper, kBlocks, true, *map),
      ExecMode::kCompiled, 4000);
  const auto t_without = TimeTier(
      MakeHelperProgram("cal_base", helper, kBlocks, false, *map),
      ExecMode::kCompiled, 4000);
  if (!t_with.has_value() || !t_without.has_value()) return -1;
  return std::max(0.0, (*t_with - *t_without) / kBlocks);
}

// Measures this host with small straight-line calibration programs per tier
// (and per-map-kind helper microruns), then scales DefaultCostModel up to
// cover the measurements with margin. Never returns a model cheaper than the
// default, so calibration only widens bounds. A sanitizer or slow host
// inflates calibration and measurement alike.
CostModel CalibratedCostModel() {
  CostModel m = DefaultCostModel();
  constexpr double kMargin = 1.3;

  // Per-tier scale from the straight-line ALU chain: a slow host (or a
  // sanitizer build) inflates every op class roughly uniformly.
  for (ExecMode tier : {ExecMode::kCompiled, ExecMode::kNative}) {
    std::optional<TierMeasurement> meas = MeasureAluTier(tier);
    if (!meas.has_value()) {
      meas = MeasureAluTier(ExecMode::kCompiled);  // JIT unavailable
    }
    if (!meas.has_value()) continue;
    const auto t = static_cast<size_t>(tier);
    const double default_alu = m.op_ns[t][static_cast<size_t>(Op::kAddReg)];
    const double scale =
        std::max(1.0, kMargin * meas->per_insn_ns / default_alu);
    for (size_t op = 0; op < kNumOps; ++op) m.op_ns[t][op] *= scale;
    m.exec_overhead_ns[t] =
        std::max(m.exec_overhead_ns[t], kMargin * meas->overhead_ns);
  }

  // Helper scale from map microruns: sanitizers instrument the map bodies
  // (host C++) far more than JIT-emitted code, so bodies get their own
  // factor. Subtract the (already rescaled) compiled call-dispatch cost to
  // isolate the body.
  const double call_dispatch = m.op_ns[kComp][static_cast<size_t>(Op::kCall)];
  double helper_scale = 1.0;
  const std::pair<HelperId, MapType> probes[] = {
      {HelperId::kMapLookupElem, MapType::kArray},
      {HelperId::kMapLookupElem, MapType::kHash},
      {HelperId::kMapUpdateElem, MapType::kHash},
  };
  for (const auto& [helper, kind] : probes) {
    const double measured = MeasureHelperNs(helper, kind);
    if (measured < 0) continue;
    const double body = std::max(0.0, measured - call_dispatch);
    const double def = m.HelperNs(helper, kind);
    if (def > 0) {
      helper_scale = std::max(helper_scale, kMargin * body / def);
    }
  }
  for (size_t k = 0; k < kNumMapTypes; ++k) {
    m.lookup_ns[k] *= helper_scale;
    m.update_ns[k] *= helper_scale;
    m.delete_ns[k] *= helper_scale;
  }
  m.random_ns *= helper_scale;
  m.ktime_ns *= helper_scale;
  m.tail_call_ns *= helper_scale;
  return m;
}

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
  // the pre-decoded form pays dispatch, machine code less.
  for (size_t op = 1; op < kNumOps; ++op) {
    EXPECT_GT(m.op_ns[kNat][op], 0.0) << "op " << op;
    EXPECT_GT(m.op_ns[kComp][op], m.op_ns[kNat][op]) << "op " << op;
  }
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
    // The faster tier must predict a faster wcet for the same paths.
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
  const ExecMode tier = EffectiveExecMode(*compiled);
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
