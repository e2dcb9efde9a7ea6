#include "src/bpf/compiler.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstring>

#include "src/bpf/jit.h"
#include "src/bpf/vm_runtime.h"
#include "src/common/logging.h"

namespace syrup::bpf {
namespace {

using internal::LoadUnaligned;
using internal::StoreUnaligned;

// The Op -> COp translation below maps three contiguous opcode runs by
// offset. Pin the run endpoints so an enum edit in either file breaks the
// build instead of the translation.
constexpr int OpIdx(Op op) { return static_cast<int>(op); }
constexpr int COpIdx(COp op) { return static_cast<int>(op); }
static_assert(OpIdx(Op::kBe64) - OpIdx(Op::kAddReg) ==
              COpIdx(COp::kBe64) - COpIdx(COp::kAddReg));
static_assert(OpIdx(Op::kMovImm) - OpIdx(Op::kAddReg) ==
              COpIdx(COp::kMovImm) - COpIdx(COp::kAddReg));
static_assert(OpIdx(Op::kAtomicAddDW) - OpIdx(Op::kLdxB) ==
              COpIdx(COp::kAtomicAddDW) - COpIdx(COp::kLdxB));
static_assert(OpIdx(Op::kJsetImm) - OpIdx(Op::kJa) ==
              COpIdx(COp::kJsetImm) - COpIdx(COp::kJa));

constexpr bool InRange(Op op, Op lo, Op hi) {
  return OpIdx(op) >= OpIdx(lo) && OpIdx(op) <= OpIdx(hi);
}

COp AluCOp(Op op) {
  return static_cast<COp>(COpIdx(COp::kAddReg) + OpIdx(op) -
                          OpIdx(Op::kAddReg));
}

COp MemCOp(Op op) {
  return static_cast<COp>(COpIdx(COp::kLdxB) + OpIdx(op) - OpIdx(Op::kLdxB));
}

COp JumpCOp(Op op) {
  return static_cast<COp>(COpIdx(COp::kJa) + OpIdx(op) - OpIdx(Op::kJa));
}

// Does this ALU op read its destination register? Moves only write.
bool AluReadsDst(Op op) {
  switch (op) {
    case Op::kMovReg:
    case Op::kMovImm:
    case Op::kMov32Reg:
    case Op::kMov32Imm:
      return false;
    default:
      return true;
  }
}

// Evaluates an ALU op exactly as the executor would; `operand` is the
// src-register value for *Reg flavors and the immediate otherwise (ignored
// by kNeg / kBe*).
uint64_t EvalAlu(Op op, uint64_t dst, uint64_t operand) {
  switch (op) {
    case Op::kAddReg: case Op::kAddImm: return dst + operand;
    case Op::kSubReg: case Op::kSubImm: return dst - operand;
    case Op::kMulReg: case Op::kMulImm: return dst * operand;
    case Op::kDivReg: case Op::kDivImm:
      return operand == 0 ? 0 : dst / operand;
    case Op::kModReg: case Op::kModImm:
      return operand == 0 ? 0 : dst % operand;
    case Op::kOrReg: case Op::kOrImm: return dst | operand;
    case Op::kAndReg: case Op::kAndImm: return dst & operand;
    case Op::kLshReg: case Op::kLshImm: return dst << (operand & 63);
    case Op::kRshReg: case Op::kRshImm: return dst >> (operand & 63);
    case Op::kArshReg: case Op::kArshImm:
      return static_cast<uint64_t>(static_cast<int64_t>(dst) >>
                                   (operand & 63));
    case Op::kNeg: return ~dst + 1;
    case Op::kMovReg: case Op::kMovImm: return operand;
    case Op::kMov32Reg: case Op::kMov32Imm:
      return static_cast<uint32_t>(operand);
    case Op::kBe16: return internal::ByteSwap(dst & 0xffff, 16);
    case Op::kBe32: return internal::ByteSwap(dst & 0xffffffff, 32);
    case Op::kBe64: return internal::ByteSwap(dst, 64);
    default:
      SYRUP_CHECK(false) << "EvalAlu on non-ALU op";
      return 0;
  }
}

// Evaluates a conditional-jump predicate exactly as the executor would.
bool EvalCond(Op op, uint64_t dst, uint64_t operand) {
  const auto sd = static_cast<int64_t>(dst);
  const auto so = static_cast<int64_t>(operand);
  switch (op) {
    case Op::kJeqReg: case Op::kJeqImm: return dst == operand;
    case Op::kJneReg: case Op::kJneImm: return dst != operand;
    case Op::kJgtReg: case Op::kJgtImm: return dst > operand;
    case Op::kJgeReg: case Op::kJgeImm: return dst >= operand;
    case Op::kJltReg: case Op::kJltImm: return dst < operand;
    case Op::kJleReg: case Op::kJleImm: return dst <= operand;
    case Op::kJsgtReg: case Op::kJsgtImm: return sd > so;
    case Op::kJsgeReg: case Op::kJsgeImm: return sd >= so;
    case Op::kJsltReg: case Op::kJsltImm: return sd < so;
    case Op::kJsleReg: case Op::kJsleImm: return sd <= so;
    case Op::kJsetReg: case Op::kJsetImm: return (dst & operand) != 0;
    default:
      SYRUP_CHECK(false) << "EvalCond on non-jump op";
      return false;
  }
}

// Register effects of a compiled instruction, for dead-move elimination.
// Jumps, calls, and kExit are treated as barriers by the caller and never
// reach this classification.
struct RegEffects {
  bool reads_dst = false;
  bool reads_src = false;
  bool writes_dst = false;
};

RegEffects EffectsOf(COp op) {
  switch (op) {
    case COp::kMovImm:
    case COp::kMov32Imm:
    case COp::kLdMapPtr:
      return {.writes_dst = true};
    case COp::kMovReg:
    case COp::kMov32Reg:
      return {.reads_src = true, .writes_dst = true};
    case COp::kNeg:
    case COp::kBe16:
    case COp::kBe32:
    case COp::kBe64:
      return {.reads_dst = true, .writes_dst = true};
    case COp::kLdxB: case COp::kLdxH: case COp::kLdxW: case COp::kLdxDW:
      return {.reads_src = true, .writes_dst = true};
    case COp::kStxB: case COp::kStxH: case COp::kStxW: case COp::kStxDW:
    case COp::kAtomicAddDW:
      return {.reads_dst = true, .reads_src = true};
    case COp::kStB: case COp::kStH: case COp::kStW: case COp::kStDW:
      return {.reads_dst = true};
    default: {
      // Remaining ALU ops: reg flavors read dst+src, imm flavors read dst.
      const bool reg_flavor =
          op == COp::kAddReg || op == COp::kSubReg || op == COp::kMulReg ||
          op == COp::kDivReg || op == COp::kModReg || op == COp::kOrReg ||
          op == COp::kAndReg || op == COp::kLshReg || op == COp::kRshReg ||
          op == COp::kArshReg;
      return {.reads_dst = true, .reads_src = reg_flavor, .writes_dst = true};
    }
  }
}

bool IsBarrierCOp(COp op) {
  return COpIdx(op) >= COpIdx(COp::kJa);  // jumps, calls, ldmapptr, exit
}

}  // namespace

ExecMode EffectiveExecMode(const CompiledProgram& compiled) {
  return compiled.native != nullptr ? ExecMode::kNative : ExecMode::kCompiled;
}

StatusOr<CompiledProgram> Compile(const Program& prog, ProgramContext context,
                                  const CompileOptions& options) {
  AnalysisFacts own_facts;
  if (!options.assume_verified) {
    SYRUP_RETURN_IF_ERROR(Verify(prog, context, {}, nullptr, &own_facts));
  }
  const size_t n = prog.insns.size();
  if (n == 0) {
    return InvalidArgumentError("cannot compile an empty program");
  }

  // Verifier facts: explicit ones win, else whatever the internal pass just
  // produced. Size-checked so stale facts from a different program are
  // silently ignored rather than miscompiling.
  const AnalysisFacts* facts =
      options.facts != nullptr ? options.facts : &own_facts;
  const bool use_facts = !facts->empty() && facts->visited.size() == n &&
                         facts->edges.size() == n;

  CompileStats stats;
  stats.input_insns = n;

  // Reachability from the entry. The verifier only visits reachable
  // instructions, so a verified program may still carry arbitrary bytes in
  // dead slots — wild jump offsets, unknown helper ids. Those slots are
  // dropped here rather than translated (they could never execute).
  //
  // With verifier facts the walk is tighter than the static CFG: a pc the
  // abstract interpretation never reached lies on no feasible path, and a
  // conditional edge it never took cannot be taken at runtime, so neither
  // is followed. (Abstract states over-approximate every concrete run, so
  // "never explored" really does mean "never executed".)
  std::vector<bool> reachable(n, false);
  const auto walk = [&](std::vector<bool>& seen,
                        bool apply_facts) -> Status {
    std::vector<size_t> work;
    seen[0] = true;
    work.push_back(0);
    while (!work.empty()) {
      const size_t pc = work.back();
      work.pop_back();
      const Insn& in = prog.insns[pc];
      if (in.op == Op::kExit) continue;
      bool follow_taken = true;
      bool follow_fall = true;
      if (apply_facts && IsCondJumpOp(in.op)) {
        const uint8_t e = facts->edges[pc];
        follow_taken = (e & AnalysisFacts::kEdgeTaken) != 0;
        follow_fall = (e & AnalysisFacts::kEdgeFall) != 0;
      }
      if (IsJumpOp(in.op)) {
        const int64_t target = static_cast<int64_t>(pc) + 1 + in.off;
        if (target < 0 || target >= static_cast<int64_t>(n)) {
          return InvalidArgumentError("compile: jump target out of range");
        }
        if (follow_taken && !seen[target]) {
          seen[target] = true;
          work.push_back(static_cast<size_t>(target));
        }
        if (in.op == Op::kJa || !follow_fall) continue;
      }
      // Falling off the end is rejected by the verifier; should it happen
      // anyway (assume_verified misuse) the trailing sentinel catches it.
      if (pc + 1 < n && !seen[pc + 1]) {
        seen[pc + 1] = true;
        work.push_back(pc + 1);
      }
    }
    return OkStatus();
  };
  SYRUP_RETURN_IF_ERROR(walk(reachable, use_facts));
  if (use_facts) {
    std::vector<bool> static_reachable(n, false);
    SYRUP_RETURN_IF_ERROR(walk(static_reachable, false));
    for (size_t pc = 0; pc < n; ++pc) {
      if (static_reachable[pc] && !reachable[pc]) ++stats.facts_dead_insns;
    }
  }

  // Block leaders: the entry plus every live jump target. The constant
  // lattice below resets at leaders because control can enter there from
  // a path the linear scan did not follow.
  std::vector<bool> leader(n, false);
  leader[0] = true;
  for (size_t pc = 0; pc < n; ++pc) {
    if (!reachable[pc]) continue;
    const Insn& in = prog.insns[pc];
    if (IsJumpOp(in.op)) {
      leader[static_cast<size_t>(static_cast<int64_t>(pc) + 1 + in.off)] =
          true;
    }
  }

  // 1:1 translation with per-block constant folding. Deletions keep their
  // slot so jump targets can be remapped afterwards.
  struct Slot {
    CInsn c;
    bool emit = true;
    bool is_jump = false;    // c.arg must be remapped from `target`
    size_t target = 0;       // original-pc jump target
  };
  std::vector<Slot> slots(n);

  // Known-constant lattice. A register is only "known" when its value was
  // built from immediates through pure scalar ALU — never from context
  // arguments, loads, map pointers, or helper results — so folding is
  // independent of runtime state.
  std::array<bool, kNumRegisters> known{};
  std::array<uint64_t, kNumRegisters> kval{};

  for (size_t pc = 0; pc < n; ++pc) {
    if (!reachable[pc]) {
      slots[pc].emit = false;
      ++stats.eliminated_insns;
      continue;
    }
    if (leader[pc]) known.fill(false);
    const Insn& in = prog.insns[pc];
    Slot& s = slots[pc];
    s.c.dst = in.dst;
    s.c.src = in.src;

    if (InRange(in.op, Op::kAddReg, Op::kBe64)) {
      const bool reg_flavor = UsesSrcReg(in.op);
      const bool has_operand = !(in.op == Op::kNeg ||
                                 InRange(in.op, Op::kBe16, Op::kBe64));
      uint64_t operand = static_cast<uint64_t>(in.imm);
      bool operand_known = true;
      if (reg_flavor) {
        operand = kval[in.src];
        operand_known = known[in.src];
      }
      const bool reads_dst = AluReadsDst(in.op);
      if ((!has_operand || operand_known) && (!reads_dst || known[in.dst])) {
        const uint64_t folded = EvalAlu(in.op, kval[in.dst], operand);
        s.c.op = COp::kMovImm;
        s.c.src = 0;
        s.c.imm = folded;
        if (in.op != Op::kMovImm && in.op != Op::kMov32Imm) ++stats.folded_alu;
        known[in.dst] = true;
        kval[in.dst] = folded;
        continue;
      }
      // Peephole over imm flavors with unknown dst: drop no-ops, turn
      // mul/div/mod by powers of two into shifts/masks.
      if (!reg_flavor && has_operand) {
        const uint64_t imm = operand;
        bool handled = false;
        switch (in.op) {
          case Op::kAddImm: case Op::kSubImm: case Op::kOrImm:
          case Op::kLshImm: case Op::kRshImm: case Op::kArshImm:
            if (imm == 0) {
              s.emit = false;
              ++stats.eliminated_insns;
              handled = true;
            }
            break;
          case Op::kAndImm:
            if (imm == ~uint64_t{0}) {
              s.emit = false;
              ++stats.eliminated_insns;
              handled = true;
            }
            break;
          case Op::kMulImm:
            if (imm == 1) {
              s.emit = false;
              ++stats.eliminated_insns;
              handled = true;
            } else if (imm != 0 && std::has_single_bit(imm)) {
              s.c.op = COp::kLshImm;
              s.c.imm = static_cast<uint64_t>(std::countr_zero(imm));
              ++stats.strength_reduced;
              handled = true;
            }
            break;
          case Op::kDivImm:
            if (imm == 1) {
              s.emit = false;
              ++stats.eliminated_insns;
              handled = true;
            } else if (imm != 0 && std::has_single_bit(imm)) {
              s.c.op = COp::kRshImm;
              s.c.imm = static_cast<uint64_t>(std::countr_zero(imm));
              ++stats.strength_reduced;
              handled = true;
            }
            break;
          case Op::kModImm:
            if (imm == 1) {
              s.c.op = COp::kMovImm;
              s.c.imm = 0;
              ++stats.strength_reduced;
              known[in.dst] = true;
              kval[in.dst] = 0;
              handled = true;
            } else if (std::has_single_bit(imm)) {
              s.c.op = COp::kAndImm;
              s.c.imm = imm - 1;
              ++stats.strength_reduced;
              handled = true;
            }
            break;
          default:
            break;
        }
        // Lattice: this path only runs with dst unknown (known dst folds
        // above), eliminated no-ops leave dst untouched, and the mod-by-1
        // case set its known value itself.
        if (handled) continue;
      }
      s.c.op = AluCOp(in.op);
      s.c.imm = static_cast<uint64_t>(in.imm);
      known[in.dst] = false;
    } else if (InRange(in.op, Op::kLdxB, Op::kAtomicAddDW)) {
      s.c.op = MemCOp(in.op);
      s.c.arg = in.off;
      s.c.imm = static_cast<uint64_t>(in.imm);
      ++stats.elided_checks;
      if (IsLoadOp(in.op)) known[in.dst] = false;
    } else if (InRange(in.op, Op::kJa, Op::kJsetImm)) {
      const auto target = static_cast<size_t>(pc + 1 + in.off);
      s.is_jump = true;
      s.target = target;
      if (in.op == Op::kJa) {
        s.c.op = COp::kJa;
      } else if (use_facts && facts->edges[pc] == AnalysisFacts::kEdgeTaken) {
        // The range analysis proved this branch always taken.
        s.c.op = COp::kJa;
        ++stats.facts_decided_branches;
      } else if (use_facts && facts->edges[pc] == AnalysisFacts::kEdgeFall) {
        // ... or never taken: the instruction disappears.
        s.emit = false;
        s.is_jump = false;
        ++stats.facts_decided_branches;
      } else {
        bool fold = false;
        bool taken = false;
        if (known[in.dst]) {
          if (UsesSrcReg(in.op)) {
            if (known[in.src]) {
              fold = true;
              taken = EvalCond(in.op, kval[in.dst], kval[in.src]);
            }
          } else {
            fold = true;
            taken = EvalCond(in.op, kval[in.dst],
                             static_cast<uint64_t>(in.imm));
          }
        }
        if (fold && taken) {
          s.c.op = COp::kJa;
          ++stats.strength_reduced;
        } else if (fold) {
          s.emit = false;
          s.is_jump = false;
          ++stats.eliminated_insns;
        } else {
          s.c.op = JumpCOp(in.op);
          s.c.imm = static_cast<uint64_t>(in.imm);
        }
      }
    } else if (in.op == Op::kLdMapFd) {
      const auto index = static_cast<size_t>(in.imm);
      if (index >= prog.maps.size()) {
        return InternalError("compile: ldmapfd index out of range");
      }
      s.c.op = COp::kLdMapPtr;
      s.c.imm = reinterpret_cast<uint64_t>(prog.maps[index].get());
      known[in.dst] = false;
    } else if (in.op == Op::kCall) {
      switch (static_cast<HelperId>(in.imm)) {
        case HelperId::kMapLookupElem:
          s.c.op = COp::kCallLookup;
          ++stats.elided_checks;  // key bounds
          break;
        case HelperId::kMapUpdateElem:
          s.c.op = COp::kCallUpdate;
          stats.elided_checks += 2;  // key + value
          break;
        case HelperId::kMapDeleteElem:
          s.c.op = COp::kCallDelete;
          ++stats.elided_checks;  // key bounds
          break;
        case HelperId::kMapLookupBatch:
          s.c.op = COp::kCallLookupBatch;
          stats.elided_checks += 2;  // keys + out
          break;
        case HelperId::kGetPrandomU32:
          s.c.op = COp::kCallRandom;
          break;
        case HelperId::kKtimeGetNs:
          s.c.op = COp::kCallKtime;
          break;
        case HelperId::kTailCall:
          s.c.op = COp::kCallTailCall;
          break;
        default:
          return InvalidArgumentError("compile: unknown helper id " +
                                      std::to_string(in.imm));
      }
      // r0 gets the result, r1..r5 are clobbered.
      for (int r = 0; r <= 5; ++r) known[r] = false;
    } else if (in.op == Op::kExit) {
      s.c.op = COp::kExit;
    } else {
      return InvalidArgumentError("compile: invalid opcode");
    }
  }

  // Dead-move elimination: a constant move whose register is overwritten
  // before any possible read (scanning stops at block ends and barriers)
  // produced its value for nothing — folding already forwarded it.
  for (size_t i = 0; i < n; ++i) {
    Slot& s = slots[i];
    if (!s.emit) continue;
    if (s.c.op != COp::kMovImm && s.c.op != COp::kMov32Imm) continue;
    const uint8_t reg = s.c.dst;
    for (size_t j = i + 1; j < n; ++j) {
      if (leader[j]) break;  // live into a join point: keep
      const Slot& t = slots[j];
      if (!t.emit) continue;
      if (IsBarrierCOp(t.c.op)) break;  // jump/call/exit may read: keep
      const RegEffects e = EffectsOf(t.c.op);
      if ((e.reads_dst && t.c.dst == reg) ||
          (e.reads_src && t.c.src == reg)) {
        break;  // read before overwrite: keep
      }
      if (e.writes_dst && t.c.dst == reg) {
        s.emit = false;
        ++stats.eliminated_insns;
        break;
      }
    }
  }

  // Final emission: compact deleted slots and rewrite jump targets to
  // absolute indices in the compacted code. A deleted target maps to the
  // next emitted instruction (fall-through equivalence).
  std::vector<int32_t> new_index(n + 1, 0);
  int32_t emitted = 0;
  for (size_t pc = 0; pc < n; ++pc) {
    new_index[pc] = emitted;
    if (slots[pc].emit) ++emitted;
  }
  new_index[n] = emitted;

  CompiledProgram out;
  out.name = prog.name;
  out.maps = prog.maps;
  out.code.reserve(static_cast<size_t>(emitted) + 1);
  for (size_t pc = 0; pc < n; ++pc) {
    if (!slots[pc].emit) continue;
    CInsn c = slots[pc].c;
    if (slots[pc].is_jump) c.arg = new_index[slots[pc].target];
    out.code.push_back(c);
  }
  stats.output_insns = out.code.size();
  // Sentinel exit. Unreachable on verified paths; it turns the two ways an
  // unreachable trailing path could run off the end (a jump whose whole
  // target block was deleted, dead code after a final kExit) into a clean
  // return instead of an out-of-bounds fetch.
  out.code.push_back(CInsn{.op = COp::kExit});
  out.stats = stats;
  return out;
}

// --- Execution ------------------------------------------------------------

// Direct-threaded dispatch through GNU computed goto, which GCC and Clang
// (the only compilers the tree builds with) both provide.
//
// Every COp, in enum order; the computed-goto table is generated from this
// list, so order mismatches break the static_assert below, not runtime.
#define SYRUP_COP_LIST(X)                                                    \
  X(kAddReg) X(kAddImm) X(kSubReg) X(kSubImm) X(kMulReg) X(kMulImm)          \
  X(kDivReg) X(kDivImm) X(kModReg) X(kModImm) X(kOrReg) X(kOrImm)            \
  X(kAndReg) X(kAndImm) X(kLshReg) X(kLshImm) X(kRshReg) X(kRshImm)          \
  X(kArshReg) X(kArshImm) X(kNeg) X(kMovReg) X(kMovImm) X(kMov32Reg)         \
  X(kMov32Imm) X(kBe16) X(kBe32) X(kBe64)                                    \
  X(kLdxB) X(kLdxH) X(kLdxW) X(kLdxDW)                                       \
  X(kStxB) X(kStxH) X(kStxW) X(kStxDW)                                       \
  X(kStB) X(kStH) X(kStW) X(kStDW) X(kAtomicAddDW)                           \
  X(kJa)                                                                     \
  X(kJeqReg) X(kJeqImm) X(kJneReg) X(kJneImm)                                \
  X(kJgtReg) X(kJgtImm) X(kJgeReg) X(kJgeImm)                                \
  X(kJltReg) X(kJltImm) X(kJleReg) X(kJleImm)                                \
  X(kJsgtReg) X(kJsgtImm) X(kJsgeReg) X(kJsgeImm)                            \
  X(kJsltReg) X(kJsltImm) X(kJsleReg) X(kJsleImm)                            \
  X(kJsetReg) X(kJsetImm)                                                    \
  X(kCallLookup) X(kCallUpdate) X(kCallDelete) X(kCallLookupBatch)           \
  X(kCallRandom) X(kCallKtime)                                               \
  X(kCallTailCall) X(kLdMapPtr) X(kExit)

namespace {
#define SYRUP_COP_COUNT(name) +1
constexpr size_t kNumListedCOps = 0 SYRUP_COP_LIST(SYRUP_COP_COUNT);
#undef SYRUP_COP_COUNT
static_assert(kNumListedCOps == static_cast<size_t>(COp::kNumCOps),
              "SYRUP_COP_LIST out of sync with the COp enum");
// The computed-goto table is indexed by the numeric COp value, so the list
// must be in exact enum order, not just complete.
#define SYRUP_COP_VALUE(name) COp::name,
constexpr COp kListedCOps[] = {SYRUP_COP_LIST(SYRUP_COP_VALUE)};
#undef SYRUP_COP_VALUE
constexpr bool ListedInEnumOrder() {
  for (size_t i = 0; i < kNumListedCOps; ++i) {
    if (static_cast<size_t>(kListedCOps[i]) != i) return false;
  }
  return true;
}
static_assert(ListedInEnumOrder(),
              "SYRUP_COP_LIST order diverged from the COp enum");
}  // namespace

StatusOr<ExecResult> CompiledExecutor::Run(const CompiledProgram& prog_in,
                                           uint64_t arg1, uint64_t arg2,
                                           bool /*args_are_packet*/) {
  // Native tier: when machine code was published at attach time, dispatch
  // straight into it. Identical observable semantics to the loop below
  // (same r0, map side effects, helper/instruction counts); programs the
  // JIT rejected never get here because `native` stays null.
  if (prog_in.native != nullptr) {
    return RunNative(prog_in, env_, arg1, arg2);
  }
  ExecResult result;
  const CompiledProgram* prog = &prog_in;

  alignas(8) std::array<uint8_t, kStackSize> stack{};
  std::array<uint64_t, kNumRegisters> regs{};

  const CInsn* code = nullptr;
  const CInsn* insn = nullptr;
  size_t ip = 0;

restart:  // tail-call target: rerun with fresh ip but original context args
  code = prog->code.data();
  regs[1] = arg1;
  regs[2] = arg2;
  regs[10] = reinterpret_cast<uint64_t>(stack.data()) + stack.size();
  ip = 0;

#define D regs[insn->dst]
#define S regs[insn->src]
#define IMM (insn->imm)

#define SYRUP_LABEL_ADDR(name) &&lbl_##name,
  static const void* kDispatch[] = {SYRUP_COP_LIST(SYRUP_LABEL_ADDR)};
#undef SYRUP_LABEL_ADDR
#define VM_NEXT()                                                           \
  do {                                                                      \
    if (++result.insns_executed > kMaxInsns) {                              \
      return ResourceExhaustedError("instruction limit exceeded at runtime"); \
    }                                                                       \
    insn = &code[ip];                                                       \
    goto* kDispatch[static_cast<size_t>(insn->op)];                         \
  } while (0)
#define VM_CASE(name) lbl_##name
  VM_NEXT();

  VM_CASE(kAddReg) : { D += S; ++ip; } VM_NEXT();
  VM_CASE(kAddImm) : { D += IMM; ++ip; } VM_NEXT();
  VM_CASE(kSubReg) : { D -= S; ++ip; } VM_NEXT();
  VM_CASE(kSubImm) : { D -= IMM; ++ip; } VM_NEXT();
  VM_CASE(kMulReg) : { D *= S; ++ip; } VM_NEXT();
  VM_CASE(kMulImm) : { D *= IMM; ++ip; } VM_NEXT();
  VM_CASE(kDivReg) : { D = S == 0 ? 0 : D / S; ++ip; } VM_NEXT();
  VM_CASE(kDivImm) : { D = IMM == 0 ? 0 : D / IMM; ++ip; } VM_NEXT();
  VM_CASE(kModReg) : { D = S == 0 ? 0 : D % S; ++ip; } VM_NEXT();
  VM_CASE(kModImm) : { D = IMM == 0 ? 0 : D % IMM; ++ip; } VM_NEXT();
  VM_CASE(kOrReg) : { D |= S; ++ip; } VM_NEXT();
  VM_CASE(kOrImm) : { D |= IMM; ++ip; } VM_NEXT();
  VM_CASE(kAndReg) : { D &= S; ++ip; } VM_NEXT();
  VM_CASE(kAndImm) : { D &= IMM; ++ip; } VM_NEXT();
  VM_CASE(kLshReg) : { D <<= (S & 63); ++ip; } VM_NEXT();
  VM_CASE(kLshImm) : { D <<= (IMM & 63); ++ip; } VM_NEXT();
  VM_CASE(kRshReg) : { D >>= (S & 63); ++ip; } VM_NEXT();
  VM_CASE(kRshImm) : { D >>= (IMM & 63); ++ip; } VM_NEXT();
  VM_CASE(kArshReg) : {
    D = static_cast<uint64_t>(static_cast<int64_t>(D) >> (S & 63));
    ++ip;
  } VM_NEXT();
  VM_CASE(kArshImm) : {
    D = static_cast<uint64_t>(static_cast<int64_t>(D) >> (IMM & 63));
    ++ip;
  } VM_NEXT();
  VM_CASE(kNeg) : { D = ~D + 1; ++ip; } VM_NEXT();
  VM_CASE(kMovReg) : { D = S; ++ip; } VM_NEXT();
  VM_CASE(kMovImm) : { D = IMM; ++ip; } VM_NEXT();
  VM_CASE(kMov32Reg) : { D = static_cast<uint32_t>(S); ++ip; } VM_NEXT();
  VM_CASE(kMov32Imm) : { D = static_cast<uint32_t>(IMM); ++ip; } VM_NEXT();
  VM_CASE(kBe16) : { D = internal::ByteSwap(D & 0xffff, 16); ++ip; } VM_NEXT();
  VM_CASE(kBe32) : {
    D = internal::ByteSwap(D & 0xffffffff, 32);
    ++ip;
  } VM_NEXT();
  VM_CASE(kBe64) : { D = internal::ByteSwap(D, 64); ++ip; } VM_NEXT();

  // Memory: bounds were proven by the verifier at compile time.
  VM_CASE(kLdxB) : { D = LoadUnaligned(S + insn->arg, 1); ++ip; } VM_NEXT();
  VM_CASE(kLdxH) : { D = LoadUnaligned(S + insn->arg, 2); ++ip; } VM_NEXT();
  VM_CASE(kLdxW) : { D = LoadUnaligned(S + insn->arg, 4); ++ip; } VM_NEXT();
  VM_CASE(kLdxDW) : { D = LoadUnaligned(S + insn->arg, 8); ++ip; } VM_NEXT();
  VM_CASE(kStxB) : { StoreUnaligned(D + insn->arg, S, 1); ++ip; } VM_NEXT();
  VM_CASE(kStxH) : { StoreUnaligned(D + insn->arg, S, 2); ++ip; } VM_NEXT();
  VM_CASE(kStxW) : { StoreUnaligned(D + insn->arg, S, 4); ++ip; } VM_NEXT();
  VM_CASE(kStxDW) : { StoreUnaligned(D + insn->arg, S, 8); ++ip; } VM_NEXT();
  VM_CASE(kStB) : { StoreUnaligned(D + insn->arg, IMM, 1); ++ip; } VM_NEXT();
  VM_CASE(kStH) : { StoreUnaligned(D + insn->arg, IMM, 2); ++ip; } VM_NEXT();
  VM_CASE(kStW) : { StoreUnaligned(D + insn->arg, IMM, 4); ++ip; } VM_NEXT();
  VM_CASE(kStDW) : { StoreUnaligned(D + insn->arg, IMM, 8); ++ip; } VM_NEXT();
  VM_CASE(kAtomicAddDW) : {
    // The verifier proves bounds but not 8-byte alignment, so the alignment
    // check stays (std::atomic on a misaligned address is UB).
    const uint64_t addr = D + insn->arg;
    if ((addr & 7) != 0) {
      return OutOfRangeError("runtime atomic unaligned");
    }
    reinterpret_cast<std::atomic<uint64_t>*>(addr)->fetch_add(
        S, std::memory_order_relaxed);
    ++ip;
  } VM_NEXT();

  VM_CASE(kJa) : { ip = static_cast<size_t>(insn->arg); } VM_NEXT();
#define SYRUP_COND_JUMP(name, cond)                                   \
  VM_CASE(name) : {                                                   \
    ip = (cond) ? static_cast<size_t>(insn->arg) : ip + 1;            \
  }                                                                   \
  VM_NEXT()
  SYRUP_COND_JUMP(kJeqReg, D == S);
  SYRUP_COND_JUMP(kJeqImm, D == IMM);
  SYRUP_COND_JUMP(kJneReg, D != S);
  SYRUP_COND_JUMP(kJneImm, D != IMM);
  SYRUP_COND_JUMP(kJgtReg, D > S);
  SYRUP_COND_JUMP(kJgtImm, D > IMM);
  SYRUP_COND_JUMP(kJgeReg, D >= S);
  SYRUP_COND_JUMP(kJgeImm, D >= IMM);
  SYRUP_COND_JUMP(kJltReg, D < S);
  SYRUP_COND_JUMP(kJltImm, D < IMM);
  SYRUP_COND_JUMP(kJleReg, D <= S);
  SYRUP_COND_JUMP(kJleImm, D <= IMM);
  SYRUP_COND_JUMP(kJsgtReg,
                  static_cast<int64_t>(D) > static_cast<int64_t>(S));
  SYRUP_COND_JUMP(kJsgtImm,
                  static_cast<int64_t>(D) > static_cast<int64_t>(IMM));
  SYRUP_COND_JUMP(kJsgeReg,
                  static_cast<int64_t>(D) >= static_cast<int64_t>(S));
  SYRUP_COND_JUMP(kJsgeImm,
                  static_cast<int64_t>(D) >= static_cast<int64_t>(IMM));
  SYRUP_COND_JUMP(kJsltReg,
                  static_cast<int64_t>(D) < static_cast<int64_t>(S));
  SYRUP_COND_JUMP(kJsltImm,
                  static_cast<int64_t>(D) < static_cast<int64_t>(IMM));
  SYRUP_COND_JUMP(kJsleReg,
                  static_cast<int64_t>(D) <= static_cast<int64_t>(S));
  SYRUP_COND_JUMP(kJsleImm,
                  static_cast<int64_t>(D) <= static_cast<int64_t>(IMM));
  SYRUP_COND_JUMP(kJsetReg, (D & S) != 0);
  SYRUP_COND_JUMP(kJsetImm, (D & IMM) != 0);
#undef SYRUP_COND_JUMP

#define SYRUP_CLOBBER_ARGS() \
  regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0

  // Helpers. The verifier proved r1 is a non-null map pointer of the right
  // type and the key/value pointers in bounds.
  VM_CASE(kCallLookup) : {
    ++result.helper_calls;
    auto* map = reinterpret_cast<Map*>(regs[1]);
    regs[0] = reinterpret_cast<uint64_t>(
        map->Lookup(reinterpret_cast<const void*>(regs[2])));
    SYRUP_CLOBBER_ARGS();
    ++ip;
  } VM_NEXT();
  VM_CASE(kCallUpdate) : {
    ++result.helper_calls;
    auto* map = reinterpret_cast<Map*>(regs[1]);
    const Status s = map->Update(reinterpret_cast<const void*>(regs[2]),
                                 reinterpret_cast<const void*>(regs[3]),
                                 UpdateFlag::kAny);
    regs[0] = s.ok() ? 0 : static_cast<uint64_t>(-1);
    SYRUP_CLOBBER_ARGS();
    ++ip;
  } VM_NEXT();
  VM_CASE(kCallDelete) : {
    ++result.helper_calls;
    auto* map = reinterpret_cast<Map*>(regs[1]);
    const Status s = map->Delete(reinterpret_cast<const void*>(regs[2]));
    regs[0] = s.ok() ? 0 : static_cast<uint64_t>(-1);
    SYRUP_CLOBBER_ARGS();
    ++ip;
  } VM_NEXT();
  VM_CASE(kCallLookupBatch) : {
    ++result.helper_calls;
    auto* map = reinterpret_cast<Map*>(regs[1]);
    regs[0] = map->LookupBatchU64(static_cast<uint32_t>(regs[4]),
                                  reinterpret_cast<const void*>(regs[2]),
                                  reinterpret_cast<uint64_t*>(regs[3]));
    SYRUP_CLOBBER_ARGS();
    ++ip;
  } VM_NEXT();
  VM_CASE(kCallRandom) : {
    ++result.helper_calls;
    regs[0] = env_.random_u32 ? env_.random_u32() : 0;
    SYRUP_CLOBBER_ARGS();
    ++ip;
  } VM_NEXT();
  VM_CASE(kCallKtime) : {
    ++result.helper_calls;
    regs[0] = env_.ktime_ns ? env_.ktime_ns() : 0;
    SYRUP_CLOBBER_ARGS();
    ++ip;
  } VM_NEXT();
  VM_CASE(kCallTailCall) : {
    ++result.helper_calls;
    if (env_.resolve_compiled == nullptr) {
      regs[0] = static_cast<uint64_t>(-1);
      SYRUP_CLOBBER_ARGS();
      ++ip;
      VM_NEXT();
    }
    auto* array = reinterpret_cast<Map*>(regs[2]);
    const auto index = static_cast<uint32_t>(regs[3]);
    if (array == nullptr || array->spec().type != MapType::kProgArray) {
      return InvalidArgumentError("tail_call: not a prog array");
    }
    void* slot = array->Lookup(&index);
    const uint64_t prog_id = slot == nullptr ? 0 : Map::AtomicLoad(slot);
    const CompiledProgram* target =
        prog_id == 0 ? nullptr : env_.resolve_compiled(prog_id);
    if (target == nullptr) {
      // Miss: falls through, r0 = -1 (caller decides what to do). A miss
      // clobbers r1..r5 like any helper call; a hit never returns.
      regs[0] = static_cast<uint64_t>(-1);
      SYRUP_CLOBBER_ARGS();
      ++ip;
      VM_NEXT();
    }
    if (++result.tail_calls > kMaxTailCalls) {
      return ResourceExhaustedError("tail call chain too long");
    }
    prog = target;
    goto restart;
  }

  VM_CASE(kLdMapPtr) : { D = IMM; ++ip; } VM_NEXT();

  VM_CASE(kExit) : {
    result.r0 = regs[0];
    return result;
  }

#undef SYRUP_CLOBBER_ARGS
#undef VM_CASE
#undef VM_NEXT
#undef D
#undef S
#undef IMM
}

}  // namespace syrup::bpf
