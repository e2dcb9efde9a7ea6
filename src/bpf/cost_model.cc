#include "src/bpf/cost_model.h"

#include <cstdint>
#include <sstream>

namespace syrup::bpf {

std::string_view ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kCompiled: return "compiled";
    case ExecMode::kNative: return "native";
  }
  return "unknown";
}

std::optional<ExecMode> ExecModeFromName(std::string_view name) {
  for (ExecMode mode : {ExecMode::kCompiled, ExecMode::kNative}) {
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
  return m;
}

}  // namespace

const CostModel& DefaultCostModel() {
  static const CostModel model = MakeDefaultCostModel();
  return model;
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
