#include "src/bpf/cost_model.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "src/bpf/compiler.h"
#include "src/bpf/interpreter.h"
#include "src/bpf/jit.h"
#include "src/bpf/program.h"

namespace syrup::bpf {

std::string_view ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kInterpret: return "interpret";
    case ExecMode::kCompiled: return "compiled";
    case ExecMode::kNative: return "native";
  }
  return "unknown";
}

std::optional<ExecMode> ExecModeFromName(std::string_view name) {
  for (ExecMode mode :
       {ExecMode::kInterpret, ExecMode::kCompiled, ExecMode::kNative}) {
    if (name == ExecModeName(mode)) return mode;
  }
  return std::nullopt;
}

double CostModel::HelperNs(HelperId helper, MapType map_type,
                           uint32_t batch_count) const {
  const auto kind = static_cast<size_t>(map_type);
  switch (helper) {
    case HelperId::kMapLookupElem: return lookup_ns[kind];
    case HelperId::kMapUpdateElem: return update_ns[kind];
    case HelperId::kMapDeleteElem: return delete_ns[kind];
    case HelperId::kGetPrandomU32: return random_ns;
    case HelperId::kKtimeGetNs: return ktime_ns;
    case HelperId::kTailCall: return tail_call_ns;
    case HelperId::kMapLookupBatch:
      // n independent probes is the upper bound; the pipeline only hides
      // memory latency, it never does more work than n single lookups.
      return lookup_ns[kind] * batch_count;
  }
  return 0;
}

double CostModel::InsnNs(const Insn& insn, MapType helper_map_type,
                         ExecMode mode, uint32_t batch_count) const {
  double ns = op_ns[static_cast<size_t>(mode)][static_cast<size_t>(insn.op)];
  if (insn.op == Op::kCall) {
    ns += HelperNs(static_cast<HelperId>(insn.imm), helper_map_type,
                   batch_count);
  }
  return ns;
}

namespace {

// Coarse opcode classes: every member of a class costs the same at a given
// tier. Finer distinctions than this are below measurement noise.
enum class OpClass {
  kInvalid,
  kAluCheap,  // add/sub/or/and/shift/neg
  kMul,
  kDivMod,
  kMov,
  kSwap,
  kMem,     // ldx/stx/st
  kAtomic,  // lock xadd
  kJa,
  kCondJump,
  kCall,  // dispatch + calling convention only (body priced separately)
  kExit,
  kLdMapFd,
};

OpClass ClassOf(Op op) {
  switch (op) {
    case Op::kInvalid:
      return OpClass::kInvalid;
    case Op::kMulReg: case Op::kMulImm:
      return OpClass::kMul;
    case Op::kDivReg: case Op::kDivImm:
    case Op::kModReg: case Op::kModImm:
      return OpClass::kDivMod;
    case Op::kMovReg: case Op::kMovImm:
    case Op::kMov32Reg: case Op::kMov32Imm:
      return OpClass::kMov;
    case Op::kBe16: case Op::kBe32: case Op::kBe64:
      return OpClass::kSwap;
    case Op::kAtomicAddDW:
      return OpClass::kAtomic;
    case Op::kJa:
      return OpClass::kJa;
    case Op::kCall:
      return OpClass::kCall;
    case Op::kExit:
      return OpClass::kExit;
    case Op::kLdMapFd:
      return OpClass::kLdMapFd;
    default:
      if (IsLoadOp(op) || IsStoreOp(op)) return OpClass::kMem;
      if (IsCondJumpOp(op)) return OpClass::kCondJump;
      return OpClass::kAluCheap;  // remaining ALU64 ops incl. kNeg
  }
}

struct TierCosts {
  double alu, mul, divmod, mov, swap, mem, atomic, ja, jcc, call, exit, ldmapfd;
};

void FillTier(double* table, const TierCosts& c) {
  for (size_t i = 0; i < kNumOps; ++i) {
    double ns = 0;
    switch (ClassOf(static_cast<Op>(i))) {
      case OpClass::kInvalid: ns = 0; break;
      case OpClass::kAluCheap: ns = c.alu; break;
      case OpClass::kMul: ns = c.mul; break;
      case OpClass::kDivMod: ns = c.divmod; break;
      case OpClass::kMov: ns = c.mov; break;
      case OpClass::kSwap: ns = c.swap; break;
      case OpClass::kMem: ns = c.mem; break;
      case OpClass::kAtomic: ns = c.atomic; break;
      case OpClass::kJa: ns = c.ja; break;
      case OpClass::kCondJump: ns = c.jcc; break;
      case OpClass::kCall: ns = c.call; break;
      case OpClass::kExit: ns = c.exit; break;
      case OpClass::kLdMapFd: ns = c.ldmapfd; break;
    }
    table[i] = ns;
  }
}

CostModel MakeDefaultCostModel() {
  CostModel m;
  // Per-op dispatch costs, upper bounds for an unloaded modern x86-64 host.
  // interpret: switch dispatch + runtime region checks per memory op.
  FillTier(m.op_ns[static_cast<size_t>(ExecMode::kInterpret)],
           {.alu = 4.0, .mul = 5.0, .divmod = 12.0, .mov = 3.5, .swap = 4.0,
            .mem = 6.0, .atomic = 12.0, .ja = 3.5, .jcc = 4.5, .call = 10.0,
            .exit = 2.0, .ldmapfd = 4.0});
  // compiled: pre-decoded computed-goto dispatch, checks elided.
  FillTier(m.op_ns[static_cast<size_t>(ExecMode::kCompiled)],
           {.alu = 1.4, .mul = 1.8, .divmod = 8.0, .mov = 1.2, .swap = 1.4,
            .mem = 2.0, .atomic = 8.0, .ja = 1.2, .jcc = 1.7, .call = 5.0,
            .exit = 1.0, .ldmapfd = 1.4});
  // native: copy-and-patch machine code; calls go through helper
  // trampolines (register save/restore priced into the call cost).
  FillTier(m.op_ns[static_cast<size_t>(ExecMode::kNative)],
           {.alu = 0.5, .mul = 0.8, .divmod = 6.0, .mov = 0.45, .swap = 0.5,
            .mem = 0.9, .atomic = 7.0, .ja = 0.45, .jcc = 0.7, .call = 3.5,
            .exit = 0.5, .ldmapfd = 0.5});
  m.exec_overhead_ns[static_cast<size_t>(ExecMode::kInterpret)] = 60.0;
  m.exec_overhead_ns[static_cast<size_t>(ExecMode::kCompiled)] = 45.0;
  m.exec_overhead_ns[static_cast<size_t>(ExecMode::kNative)] = 35.0;

  // Helper bodies (host C++, tier-independent). Hash maps pay the probe
  // chain; per-CPU arrays pay the shard indirection.
  const auto kind = [](MapType t) { return static_cast<size_t>(t); };
  m.lookup_ns[kind(MapType::kArray)] = 6.0;
  m.lookup_ns[kind(MapType::kHash)] = 25.0;
  m.lookup_ns[kind(MapType::kProgArray)] = 6.0;
  m.lookup_ns[kind(MapType::kPerCpuArray)] = 10.0;
  m.update_ns[kind(MapType::kArray)] = 14.0;
  m.update_ns[kind(MapType::kHash)] = 45.0;
  m.update_ns[kind(MapType::kProgArray)] = 14.0;
  m.update_ns[kind(MapType::kPerCpuArray)] = 18.0;
  m.delete_ns[kind(MapType::kArray)] = 14.0;
  m.delete_ns[kind(MapType::kHash)] = 40.0;
  m.delete_ns[kind(MapType::kProgArray)] = 14.0;
  m.delete_ns[kind(MapType::kPerCpuArray)] = 18.0;
  m.random_ns = 12.0;
  m.ktime_ns = 10.0;
  m.tail_call_ns = 25.0;
  m.flow_cache_probe_ns = 50.0;
  return m;
}

// ---- Calibration --------------------------------------------------------

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
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        iters;
    best = std::min(best, ns);
  }
  return best;
}

struct TierMeasurement {
  bool ok = false;
  double per_insn_ns = 0;
  double overhead_ns = 0;
};

TierMeasurement MeasureAluTier(ExecMode tier) {
  TierMeasurement out;
  const Program tiny = MakeAluProgram("cal_tiny", 0);     // 2 insns
  const Program chain = MakeAluProgram("cal_chain", 256); // 258 insns
  const double n_tiny = 2.0;
  const double n_chain = 258.0;
  uint64_t sink = 0;
  double t_tiny = 0;
  double t_chain = 0;

  if (tier == ExecMode::kInterpret) {
    Interpreter interp{ExecEnv{}};
    auto run = [&](const Program& p) {
      auto r = interp.Run(p, 3, 7, /*args_are_packet=*/false);
      if (r.ok()) sink += r->r0;
    };
    t_tiny = MinNsPerCall([&] { run(tiny); }, 20000, 3);
    t_chain = MinNsPerCall([&] { run(chain); }, 2000, 3);
  } else {
    auto ct = Compile(tiny, ProgramContext::kThread);
    auto cc = Compile(chain, ProgramContext::kThread);
    if (!ct.ok() || !cc.ok()) return out;
    if (tier == ExecMode::kNative) {
      auto nt = JitCompile(*ct);
      auto nc = JitCompile(*cc);
      if (!nt.ok() || !nc.ok()) return out;  // fall back to compiled numbers
      ct->native = *nt;
      cc->native = *nc;
    }
    CompiledExecutor exec{ExecEnv{}};
    auto run = [&](const CompiledProgram& p) {
      auto r = exec.Run(p, 3, 7, /*args_are_packet=*/false);
      if (r.ok()) sink += r->r0;
    };
    t_tiny = MinNsPerCall([&] { run(*ct); }, 20000, 3);
    t_chain = MinNsPerCall([&] { run(*cc); }, 2000, 3);
  }
  (void)sink;
  out.per_insn_ns = std::max(0.0, (t_chain - t_tiny) / (n_chain - n_tiny));
  out.overhead_ns = std::max(0.0, t_tiny - n_tiny * out.per_insn_ns);
  out.ok = true;
  return out;
}

// Measured call-dispatch + helper-body cost at the interpreter tier (bodies
// are tier-independent host C++). Returns < 0 on failure.
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
  const int kBlocks = 8;
  const Program with = MakeHelperProgram("cal_helper", helper, kBlocks,
                                         /*with_calls=*/true, *map);
  const Program without = MakeHelperProgram("cal_base", helper, kBlocks,
                                            /*with_calls=*/false, *map);
  Interpreter interp{ExecEnv{}};
  uint64_t sink = 0;
  auto run = [&](const Program& p) {
    auto r = interp.Run(p, 0, 0, /*args_are_packet=*/false);
    if (r.ok()) sink += r->r0;
  };
  const double t_with = MinNsPerCall([&] { run(with); }, 4000, 3);
  const double t_without = MinNsPerCall([&] { run(without); }, 4000, 3);
  (void)sink;
  return std::max(0.0, (t_with - t_without) / kBlocks);
}

}  // namespace

const CostModel& DefaultCostModel() {
  static const CostModel model = MakeDefaultCostModel();
  return model;
}

CostModel CalibratedCostModel() {
  CostModel m = DefaultCostModel();
  constexpr double kMargin = 1.3;

  // Per-tier scale from the straight-line ALU chain: a slow host (or a
  // sanitizer build) inflates every op class roughly uniformly.
  for (size_t t = 0; t < kNumExecModes; ++t) {
    const auto tier = static_cast<ExecMode>(t);
    TierMeasurement meas = MeasureAluTier(tier);
    if (!meas.ok && tier == ExecMode::kNative) {
      meas = MeasureAluTier(ExecMode::kCompiled);  // JIT unavailable
    }
    if (!meas.ok) continue;
    const double default_alu =
        m.op_ns[t][static_cast<size_t>(Op::kAddReg)];
    const double scale =
        std::max(1.0, kMargin * meas.per_insn_ns / default_alu);
    for (size_t op = 0; op < kNumOps; ++op) m.op_ns[t][op] *= scale;
    m.exec_overhead_ns[t] =
        std::max(m.exec_overhead_ns[t], kMargin * meas.overhead_ns);
  }

  // Helper scale from map microruns: sanitizers instrument the map bodies
  // (host C++) far more than JIT-emitted code, so bodies get their own
  // factor. Subtract the (already rescaled) interpreter call-dispatch cost
  // to isolate the body.
  const double call_dispatch =
      m.op_ns[static_cast<size_t>(ExecMode::kInterpret)]
             [static_cast<size_t>(Op::kCall)];
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
  m.flow_cache_probe_ns *= helper_scale;
  return m;
}

bool FlowCachePays(const CostFacts& cost, ExecMode mode) {
  return cost.bounded && cost.wcet_ns[static_cast<size_t>(mode)] >
                             DefaultCostModel().flow_cache_probe_ns;
}

std::string FormatPath(const std::vector<uint32_t>& path) {
  std::ostringstream os;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i != 0) os << " -> ";
    os << path[i];
  }
  return os.str();
}

}  // namespace syrup::bpf
