#include "src/bpf/jit.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>
#include <vector>

#include "src/map/map.h"

#if defined(__x86_64__) && defined(__linux__)
#define SYRUP_JIT_SUPPORTED 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define SYRUP_JIT_SUPPORTED 0
#endif

namespace syrup::bpf {
namespace {

// The emitted prologue pins the JitRuntime pointer in %r12 and stencils
// address the fields by these byte offsets.
constexpr int32_t kRtInsnsOff = 0;
constexpr int32_t kRtHelperCallsOff = 8;
constexpr int32_t kRtFaultOff = 16;
static_assert(offsetof(JitRuntime, insns) == kRtInsnsOff);
static_assert(offsetof(JitRuntime, helper_calls) == kRtHelperCallsOff);
static_assert(offsetof(JitRuntime, fault) == kRtFaultOff);
static_assert(offsetof(JitRuntime, env) == 24);

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool JitDisabledByEnv() {
  const char* v = std::getenv("SYRUP_JIT_DISABLE");
  return v != nullptr && v[0] == '1';
}

}  // namespace

// Helper trampolines: C-ABI entry points the emitted `call` stencils target.
// The SysV argument registers line up with the VM's calling convention
// (r1..r5 -> rdi/rsi/rdx/rcx/r8), so map helpers take their operands
// directly; environment helpers get the JitRuntime pinned in %r12 instead.
// Semantics mirror the compiled tier's handler bodies exactly.
extern "C" uint64_t SyrupJitMapLookup(uint64_t map, uint64_t key) {
  return reinterpret_cast<uint64_t>(reinterpret_cast<Map*>(map)->Lookup(
      reinterpret_cast<const void*>(key)));
}

extern "C" uint64_t SyrupJitMapUpdate(uint64_t map, uint64_t key,
                                      uint64_t value) {
  const Status s = reinterpret_cast<Map*>(map)->Update(
      reinterpret_cast<const void*>(key), reinterpret_cast<const void*>(value),
      UpdateFlag::kAny);
  return s.ok() ? 0 : static_cast<uint64_t>(-1);
}

extern "C" uint64_t SyrupJitMapDelete(uint64_t map, uint64_t key) {
  const Status s =
      reinterpret_cast<Map*>(map)->Delete(reinterpret_cast<const void*>(key));
  return s.ok() ? 0 : static_cast<uint64_t>(-1);
}

extern "C" uint64_t SyrupJitMapLookupBatch(uint64_t map, uint64_t keys,
                                           uint64_t out, uint64_t n) {
  return reinterpret_cast<Map*>(map)->LookupBatchU64(
      static_cast<uint32_t>(n), reinterpret_cast<const void*>(keys),
      reinterpret_cast<uint64_t*>(out));
}

extern "C" uint64_t SyrupJitRandom(JitRuntime* rt) {
  return rt->env->random_u32 ? rt->env->random_u32() : 0;
}

extern "C" uint64_t SyrupJitKtime(JitRuntime* rt) {
  return rt->env->ktime_ns ? rt->env->ktime_ns() : 0;
}

namespace {

// ------------------------------ stencil table ------------------------------
//
// One entry per COp, in exact enum order. A stencil is a byte template
// family plus the patch parameters the emitter burns in while copying:
// x86 opcode/extension bytes, operand size, condition code, helper index.
// The one unsupported entry (tail calls) makes JitCompile fall back to the
// compiled tier.
struct Stencil {
  enum class Kind : uint8_t {
    kUnsupported,
    kAluRR,     // a = x86 reg-reg opcode (add/sub/or/and)
    kAluImm,    // a = /ext for 0x81 group, b = reg-reg opcode for wide imms
    kMulReg,
    kMulImm,
    kDivMod,    // a = 1 for imm divisor, b = 1 for mod (result in rdx)
    kShiftReg,  // a = /ext for 0xd3 group (shl=4 shr=5 sar=7)
    kShiftImm,  // a = /ext for 0xc1 group
    kNeg,
    kMovReg,
    kMovImm,
    kMov32Reg,
    kMov32Imm,
    kBe,        // a = operand width in bits (16/32/64)
    kLoad,      // a = access size in bytes
    kStoreReg,  // a = access size in bytes
    kStoreImm,  // a = access size in bytes
    kAtomic,
    kJa,
    kCondJump,  // a = jcc second opcode byte, b bit0 = imm, bit1 = test
    kHelper,    // a = trampoline index into kHelperTargets
    kLdMapPtr,
    kExit,
  };
  Kind kind = Kind::kUnsupported;
  uint8_t a = 0;
  uint8_t b = 0;
};

using SK = Stencil::Kind;

constexpr Stencil kStencilTable[] = {
    /*kAddReg*/ {SK::kAluRR, 0x01},
    /*kAddImm*/ {SK::kAluImm, 0, 0x01},
    /*kSubReg*/ {SK::kAluRR, 0x29},
    /*kSubImm*/ {SK::kAluImm, 5, 0x29},
    /*kMulReg*/ {SK::kMulReg},
    /*kMulImm*/ {SK::kMulImm},
    /*kDivReg*/ {SK::kDivMod, 0, 0},
    /*kDivImm*/ {SK::kDivMod, 1, 0},
    /*kModReg*/ {SK::kDivMod, 0, 1},
    /*kModImm*/ {SK::kDivMod, 1, 1},
    /*kOrReg*/ {SK::kAluRR, 0x09},
    /*kOrImm*/ {SK::kAluImm, 1, 0x09},
    /*kAndReg*/ {SK::kAluRR, 0x21},
    /*kAndImm*/ {SK::kAluImm, 4, 0x21},
    /*kLshReg*/ {SK::kShiftReg, 4},
    /*kLshImm*/ {SK::kShiftImm, 4},
    /*kRshReg*/ {SK::kShiftReg, 5},
    /*kRshImm*/ {SK::kShiftImm, 5},
    /*kArshReg*/ {SK::kShiftReg, 7},
    /*kArshImm*/ {SK::kShiftImm, 7},
    /*kNeg*/ {SK::kNeg},
    /*kMovReg*/ {SK::kMovReg},
    /*kMovImm*/ {SK::kMovImm},
    /*kMov32Reg*/ {SK::kMov32Reg},
    /*kMov32Imm*/ {SK::kMov32Imm},
    /*kBe16*/ {SK::kBe, 16},
    /*kBe32*/ {SK::kBe, 32},
    /*kBe64*/ {SK::kBe, 64},
    /*kLdxB*/ {SK::kLoad, 1},
    /*kLdxH*/ {SK::kLoad, 2},
    /*kLdxW*/ {SK::kLoad, 4},
    /*kLdxDW*/ {SK::kLoad, 8},
    /*kStxB*/ {SK::kStoreReg, 1},
    /*kStxH*/ {SK::kStoreReg, 2},
    /*kStxW*/ {SK::kStoreReg, 4},
    /*kStxDW*/ {SK::kStoreReg, 8},
    /*kStB*/ {SK::kStoreImm, 1},
    /*kStH*/ {SK::kStoreImm, 2},
    /*kStW*/ {SK::kStoreImm, 4},
    /*kStDW*/ {SK::kStoreImm, 8},
    /*kAtomicAddDW*/ {SK::kAtomic},
    /*kJa*/ {SK::kJa},
    /*kJeqReg*/ {SK::kCondJump, 0x84, 0},
    /*kJeqImm*/ {SK::kCondJump, 0x84, 1},
    /*kJneReg*/ {SK::kCondJump, 0x85, 0},
    /*kJneImm*/ {SK::kCondJump, 0x85, 1},
    /*kJgtReg*/ {SK::kCondJump, 0x87, 0},
    /*kJgtImm*/ {SK::kCondJump, 0x87, 1},
    /*kJgeReg*/ {SK::kCondJump, 0x83, 0},
    /*kJgeImm*/ {SK::kCondJump, 0x83, 1},
    /*kJltReg*/ {SK::kCondJump, 0x82, 0},
    /*kJltImm*/ {SK::kCondJump, 0x82, 1},
    /*kJleReg*/ {SK::kCondJump, 0x86, 0},
    /*kJleImm*/ {SK::kCondJump, 0x86, 1},
    /*kJsgtReg*/ {SK::kCondJump, 0x8F, 0},
    /*kJsgtImm*/ {SK::kCondJump, 0x8F, 1},
    /*kJsgeReg*/ {SK::kCondJump, 0x8D, 0},
    /*kJsgeImm*/ {SK::kCondJump, 0x8D, 1},
    /*kJsltReg*/ {SK::kCondJump, 0x8C, 0},
    /*kJsltImm*/ {SK::kCondJump, 0x8C, 1},
    /*kJsleReg*/ {SK::kCondJump, 0x8E, 0},
    /*kJsleImm*/ {SK::kCondJump, 0x8E, 1},
    /*kJsetReg*/ {SK::kCondJump, 0x85, 2},
    /*kJsetImm*/ {SK::kCondJump, 0x85, 3},
    /*kCallLookup*/ {SK::kHelper, 0},
    /*kCallUpdate*/ {SK::kHelper, 1},
    /*kCallDelete*/ {SK::kHelper, 2},
    /*kCallLookupBatch*/ {SK::kHelper, 5},
    /*kCallRandom*/ {SK::kHelper, 3},
    /*kCallKtime*/ {SK::kHelper, 4},
    /*kCallTailCall*/ {SK::kUnsupported},
    /*kLdMapPtr*/ {SK::kLdMapPtr},
    /*kExit*/ {SK::kExit},
};
// The initializer sizes the table, so a missing or extra row breaks the
// build instead of silently leaving the last opcodes unsupported.
static_assert(std::size(kStencilTable) == static_cast<size_t>(COp::kNumCOps),
              "kStencilTable out of sync with the COp enum");

#if SYRUP_JIT_SUPPORTED

// x86-64 register ids.
enum X86Reg : uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// VM register -> x86 register. Mirrors the Linux eBPF JIT so the SysV
// argument registers line up with the helper calling convention (r1..r5 are
// exactly rdi/rsi/rdx/rcx/r8). r6..r9 land in callee-saved registers so
// helper calls preserve them for free; r10 (the frame pointer) is rbp.
// %r10/%r11 are scratch for multi-instruction stencils, %r12 pins the
// JitRuntime pointer, %rsp stays the native stack pointer.
constexpr uint8_t kRegMap[kNumRegisters] = {
    RAX, RDI, RSI, RDX, RCX, R8, RBX, R13, R14, R15, RBP,
};

bool FitsSExt32(uint64_t v) {
  return static_cast<int64_t>(static_cast<int32_t>(v)) ==
         static_cast<int64_t>(v);
}

// Emits one program's machine code into a growable buffer; jump targets are
// recorded as fixups and patched once all instruction offsets are known.
class Emitter {
 public:
  explicit Emitter(const CompiledProgram& prog) : prog_(prog) {}

  Status EmitAll();
  const std::vector<uint8_t>& code() const { return buf_; }
  size_t stencils() const { return stencils_; }

 private:
  // Fixup targets: >= 0 is an absolute instruction index; the sentinels
  // route to the shared epilogue / fault stub.
  static constexpr int32_t kTargetEpilogue = -1;
  static constexpr int32_t kTargetFault = -2;
  struct Fixup {
    size_t off;      // buffer offset of the rel32 field
    int32_t target;
  };

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { U8(v & 0xff); U8(v >> 8); }
  void U32(uint32_t v) { U16(v & 0xffff); U16(v >> 16); }
  void U64(uint64_t v) { U32(v & 0xffffffffu); U32(v >> 32); }

  // REX prefix; omitted when it would be empty unless forced (byte ops need
  // it to address sil/dil instead of the legacy high-byte registers).
  void Rex(bool w, uint8_t reg, uint8_t rm, bool force = false) {
    const uint8_t rex = 0x40 | (static_cast<uint8_t>(w) << 3) |
                        ((reg >> 3) << 2) | (rm >> 3);
    if (rex != 0x40 || force) U8(rex);
  }
  void ModRM(uint8_t mod, uint8_t reg, uint8_t rm) {
    U8(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  // Memory operand [base + disp]; emits SIB for rsp/r12-class bases and
  // always uses an explicit displacement for rbp/r13-class ones.
  void MemModRM(uint8_t reg, uint8_t base, int32_t disp) {
    const uint8_t rm = base & 7;
    const bool sib = rm == 4;
    if (disp == 0 && rm != 5) {
      ModRM(0, reg, rm);
      if (sib) U8(0x24);
    } else if (disp >= -128 && disp <= 127) {
      ModRM(1, reg, rm);
      if (sib) U8(0x24);
      U8(static_cast<uint8_t>(disp));
    } else {
      ModRM(2, reg, rm);
      if (sib) U8(0x24);
      U32(static_cast<uint32_t>(disp));
    }
  }

  void MovRR(uint8_t d, uint8_t s) {  // mov d, s (64-bit)
    Rex(true, s, d);
    U8(0x89);
    ModRM(3, s, d);
  }
  void MovImm64(uint8_t d, uint64_t v) {
    if (v <= 0xffffffffu) {  // mov r32, imm32 zero-extends
      Rex(false, 0, d);
      U8(0xB8 + (d & 7));
      U32(static_cast<uint32_t>(v));
    } else if (FitsSExt32(v)) {  // mov r64, simm32
      Rex(true, 0, d);
      U8(0xC7);
      ModRM(3, 0, d);
      U32(static_cast<uint32_t>(v));
    } else {  // movabs
      Rex(true, 0, d);
      U8(0xB8 + (d & 7));
      U64(v);
    }
  }
  void AluRR(uint8_t opcode, uint8_t d, uint8_t s) {  // 64-bit op d, s
    Rex(true, s, d);
    U8(opcode);
    ModRM(3, s, d);
  }
  void AluImm(uint8_t ext, uint8_t d, int32_t imm) {  // 64-bit op d, simm
    Rex(true, 0, d);
    if (imm >= -128 && imm <= 127) {
      U8(0x83);
      ModRM(3, ext, d);
      U8(static_cast<uint8_t>(imm));
    } else {
      U8(0x81);
      ModRM(3, ext, d);
      U32(static_cast<uint32_t>(imm));
    }
  }
  // op d, imm with a 64-bit immediate: direct simm32 form when it fits,
  // otherwise via the %r10 scratch register and the reg-reg form.
  void AluImm64(uint8_t rr_opcode, uint8_t ext, uint8_t d, uint64_t imm) {
    if (FitsSExt32(imm)) {
      AluImm(ext, d, static_cast<int32_t>(imm));
    } else {
      MovImm64(R10, imm);
      AluRR(rr_opcode, d, R10);
    }
  }
  void TestImm64(uint8_t d, uint64_t imm) {
    if (FitsSExt32(imm)) {
      Rex(true, 0, d);
      U8(0xF7);
      ModRM(3, 0, d);
      U32(static_cast<uint32_t>(imm));
    } else {
      MovImm64(R10, imm);
      AluRR(0x85, d, R10);
    }
  }
  void AddRtCounter(int32_t off, uint32_t amount) {  // add qword [r12+off], n
    Rex(true, 0, R12);
    if (amount <= 127) {
      U8(0x83);
      MemModRM(0, R12, off);
      U8(static_cast<uint8_t>(amount));
    } else {
      U8(0x81);
      MemModRM(0, R12, off);
      U32(amount);
    }
  }
  void JmpTo(int32_t target) {  // jmp rel32 (patched later)
    U8(0xE9);
    fixups_.push_back(Fixup{buf_.size(), target});
    U32(0);
  }
  void JccTo(uint8_t cc, int32_t target) {  // jcc rel32 (patched later)
    U8(0x0F);
    U8(cc);
    fixups_.push_back(Fixup{buf_.size(), target});
    U32(0);
  }

  void EmitPrologue();
  void EmitEpilogue();
  Status EmitStencil(const CInsn& insn);
  void ComputeLeaders();
  uint32_t BlockLenAt(size_t i) const;

  const CompiledProgram& prog_;
  std::vector<uint8_t> buf_;
  std::vector<uint8_t> is_leader_;
  std::vector<size_t> insn_off_;
  std::vector<Fixup> fixups_;
  size_t stencils_ = 0;
  bool need_fault_stub_ = false;
};

void Emitter::EmitPrologue() {
  // Entry (SysV): rdi = arg1, rsi = arg2, rdx = JitRuntime*. The register
  // map puts VM r1/r2 in rdi/rsi, so the context arguments are already in
  // place. 6 pushes + 520 bytes of frame keep %rsp 16-byte aligned at every
  // emitted call site.
  U8(0x55);              // push rbp
  U8(0x53);              // push rbx
  U8(0x41); U8(0x54);    // push r12
  U8(0x41); U8(0x55);    // push r13
  U8(0x41); U8(0x56);    // push r14
  U8(0x41); U8(0x57);    // push r15
  // sub rsp, kStackSize + 8
  U8(0x48); U8(0x81); U8(0xEC); U32(kStackSize + 8);
  U8(0x49); U8(0x89); U8(0xD4);  // mov r12, rdx (pin JitRuntime*)
  // lea rbp, [rsp + kStackSize]: VM r10 = top of the 512-byte stack window
  // [rsp, rsp+512). The verifier proves stack bytes are written before
  // read, so the window is not cleared.
  U8(0x48); U8(0x8D); U8(0xAC); U8(0x24); U32(kStackSize);
}

void Emitter::EmitEpilogue() {
  // add rsp, kStackSize + 8
  U8(0x48); U8(0x81); U8(0xC4); U32(kStackSize + 8);
  U8(0x41); U8(0x5F);  // pop r15
  U8(0x41); U8(0x5E);  // pop r14
  U8(0x41); U8(0x5D);  // pop r13
  U8(0x41); U8(0x5C);  // pop r12
  U8(0x5B);            // pop rbx
  U8(0x5D);            // pop rbp
  U8(0xC3);            // ret (r0 is already in rax)
}

void Emitter::ComputeLeaders() {
  const size_t n = prog_.code.size();
  is_leader_.assign(n, 0);
  is_leader_[0] = 1;
  for (size_t i = 0; i < n; ++i) {
    const Stencil& st = kStencilTable[static_cast<size_t>(prog_.code[i].op)];
    if (st.kind == SK::kJa || st.kind == SK::kCondJump) {
      is_leader_[static_cast<size_t>(prog_.code[i].arg)] = 1;
      if (st.kind == SK::kCondJump && i + 1 < n) is_leader_[i + 1] = 1;
    }
  }
}

// Number of instructions in the basic block starting at leader `i`: the
// straight-line run up to and including its terminator. Entering the block
// executes all of them, so one counter add per block keeps insns_executed
// identical to the compiled tier's per-instruction count.
uint32_t Emitter::BlockLenAt(size_t i) const {
  const size_t n = prog_.code.size();
  uint32_t len = 0;
  for (size_t j = i; j < n; ++j) {
    ++len;
    const Stencil& st = kStencilTable[static_cast<size_t>(prog_.code[j].op)];
    if (st.kind == SK::kJa || st.kind == SK::kCondJump ||
        st.kind == SK::kExit) {
      break;
    }
    if (j + 1 < n && is_leader_[j + 1]) break;
  }
  return len;
}

Status Emitter::EmitStencil(const CInsn& insn) {
  const Stencil& st = kStencilTable[static_cast<size_t>(insn.op)];
  const uint8_t d = kRegMap[insn.dst];
  const uint8_t s = kRegMap[insn.src];
  ++stencils_;
  switch (st.kind) {
    case SK::kAluRR:
      AluRR(st.a, d, s);
      break;
    case SK::kAluImm:
      AluImm64(st.b, st.a, d, insn.imm);
      break;
    case SK::kMulReg:  // imul d, s
      Rex(true, d, s);
      U8(0x0F); U8(0xAF);
      ModRM(3, d, s);
      break;
    case SK::kMulImm:
      if (FitsSExt32(insn.imm)) {  // imul d, d, simm32
        Rex(true, d, d);
        U8(0x69);
        ModRM(3, d, d);
        U32(static_cast<uint32_t>(insn.imm));
      } else {
        MovImm64(R10, insn.imm);
        Rex(true, d, R10);
        U8(0x0F); U8(0xAF);
        ModRM(3, d, R10);
      }
      break;
    case SK::kDivMod: {
      // d = divisor ? d / divisor : 0 (or % for mod). Unsigned 64/64 `div`
      // with rdx pre-zeroed can't #DE once the divisor is known non-zero.
      U8(0x50);  // push rax
      U8(0x52);  // push rdx
      if (st.a != 0) {
        MovImm64(R10, insn.imm);  // divisor from the immediate
      } else {
        MovRR(R10, s);            // divisor from the source register
      }
      MovRR(R11, d);              // dividend (survives the pops below)
      U8(0x31); U8(0xC0);         // xor eax, eax (result 0 on zero divisor)
      U8(0x31); U8(0xD2);         // xor edx, edx (and for the div itself)
      U8(0x4D); U8(0x85); U8(0xD2);  // test r10, r10
      U8(0x74); U8(0x06);            // jz +6 (over mov+div)
      U8(0x4C); U8(0x89); U8(0xD8);  // mov rax, r11
      U8(0x49); U8(0xF7); U8(0xF2);  // div r10
      MovRR(R11, st.b != 0 ? RDX : RAX);  // quotient or remainder
      U8(0x5A);  // pop rdx
      U8(0x58);  // pop rax
      MovRR(d, R11);
      break;
    }
    case SK::kShiftReg: {
      // x86 variable shifts take the count in %cl (VM r4); hardware masks
      // the 64-bit count to 6 bits, which is exactly the VM's `& 63`.
      MovRR(R11, RCX);                    // save rcx (also d's value if d=rcx)
      if (s != RCX) MovRR(RCX, s);        // count into cl
      const uint8_t shift_rm = d == RCX ? static_cast<uint8_t>(R11) : d;
      Rex(true, 0, shift_rm);
      U8(0xD3);
      ModRM(3, st.a, shift_rm);
      MovRR(RCX, R11);  // restore rcx, or move the result back into it
      break;
    }
    case SK::kShiftImm: {
      const uint8_t count = insn.imm & 63;
      if (count != 0) {
        Rex(true, 0, d);
        U8(0xC1);
        ModRM(3, st.a, d);
        U8(count);
      }
      break;
    }
    case SK::kNeg:
      Rex(true, 0, d);
      U8(0xF7);
      ModRM(3, 3, d);
      break;
    case SK::kMovReg:
      MovRR(d, s);
      break;
    case SK::kMovImm:
    case SK::kLdMapPtr:  // resolved Map* burned in as an immediate
      MovImm64(d, insn.imm);
      break;
    case SK::kMov32Reg:  // 32-bit mov zero-extends
      Rex(false, s, d);
      U8(0x89);
      ModRM(3, s, d);
      break;
    case SK::kMov32Imm:
      Rex(false, 0, d);
      U8(0xB8 + (d & 7));
      U32(static_cast<uint32_t>(insn.imm));
      break;
    case SK::kBe:
      if (st.a == 16) {  // ror d16, 8 then zero-extend
        U8(0x66);
        Rex(false, 0, d);
        U8(0xC1);
        ModRM(3, 1, d);
        U8(8);
        Rex(true, d, d);  // movzx d, d16
        U8(0x0F); U8(0xB7);
        ModRM(3, d, d);
      } else {  // bswap; the 32-bit form zero-extends
        Rex(st.a == 64, 0, d);
        U8(0x0F);
        U8(0xC8 + (d & 7));
      }
      break;
    case SK::kLoad:
      switch (st.a) {
        case 1:  // movzx d, byte [s+arg]
          Rex(true, d, s);
          U8(0x0F); U8(0xB6);
          MemModRM(d, s, insn.arg);
          break;
        case 2:  // movzx d, word [s+arg]
          Rex(true, d, s);
          U8(0x0F); U8(0xB7);
          MemModRM(d, s, insn.arg);
          break;
        case 4:  // mov d32, [s+arg] zero-extends
          Rex(false, d, s);
          U8(0x8B);
          MemModRM(d, s, insn.arg);
          break;
        default:  // mov d, [s+arg]
          Rex(true, d, s);
          U8(0x8B);
          MemModRM(d, s, insn.arg);
          break;
      }
      break;
    case SK::kStoreReg:
      switch (st.a) {
        case 1:  // mov byte [d+arg], s (REX forced so sil/dil resolve)
          Rex(false, s, d, /*force=*/true);
          U8(0x88);
          MemModRM(s, d, insn.arg);
          break;
        case 2:
          U8(0x66);
          Rex(false, s, d);
          U8(0x89);
          MemModRM(s, d, insn.arg);
          break;
        case 4:
          Rex(false, s, d);
          U8(0x89);
          MemModRM(s, d, insn.arg);
          break;
        default:
          Rex(true, s, d);
          U8(0x89);
          MemModRM(s, d, insn.arg);
          break;
      }
      break;
    case SK::kStoreImm:
      switch (st.a) {
        case 1:
          Rex(false, 0, d);
          U8(0xC6);
          MemModRM(0, d, insn.arg);
          U8(static_cast<uint8_t>(insn.imm));
          break;
        case 2:
          U8(0x66);
          Rex(false, 0, d);
          U8(0xC7);
          MemModRM(0, d, insn.arg);
          U16(static_cast<uint16_t>(insn.imm));
          break;
        case 4:
          Rex(false, 0, d);
          U8(0xC7);
          MemModRM(0, d, insn.arg);
          U32(static_cast<uint32_t>(insn.imm));
          break;
        default:
          if (FitsSExt32(insn.imm)) {  // mov qword [d+arg], simm32
            Rex(true, 0, d);
            U8(0xC7);
            MemModRM(0, d, insn.arg);
            U32(static_cast<uint32_t>(insn.imm));
          } else {
            MovImm64(R10, insn.imm);
            Rex(true, R10, d);
            U8(0x89);
            MemModRM(R10, d, insn.arg);
          }
          break;
      }
      break;
    case SK::kAtomic:
      // The verifier proves bounds but not 8-byte alignment; the check
      // stays, branching to the shared fault stub (matches the compiled
      // tier's "runtime atomic unaligned" error).
      need_fault_stub_ = true;
      Rex(true, R10, d);  // lea r10, [d+arg]
      U8(0x8D);
      MemModRM(R10, d, insn.arg);
      U8(0x41); U8(0xF6); U8(0xC2); U8(0x07);  // test r10b, 7
      JccTo(0x85, kTargetFault);               // jnz fault
      U8(0xF0);                                // lock
      Rex(true, s, R10);
      U8(0x01);                                // add [r10], s
      MemModRM(s, R10, 0);
      break;
    case SK::kJa:
      JmpTo(insn.arg);
      break;
    case SK::kCondJump:
      if ((st.b & 2) != 0) {  // jset: test instead of cmp
        if ((st.b & 1) != 0) {
          TestImm64(d, insn.imm);
        } else {
          AluRR(0x85, d, s);
        }
      } else {
        if ((st.b & 1) != 0) {
          AluImm64(0x39, 7, d, insn.imm);
        } else {
          AluRR(0x39, d, s);
        }
      }
      JccTo(st.a, insn.arg);
      break;
    case SK::kHelper: {
      static const uint64_t kHelperTargets[] = {
          reinterpret_cast<uint64_t>(&SyrupJitMapLookup),
          reinterpret_cast<uint64_t>(&SyrupJitMapUpdate),
          reinterpret_cast<uint64_t>(&SyrupJitMapDelete),
          reinterpret_cast<uint64_t>(&SyrupJitRandom),
          reinterpret_cast<uint64_t>(&SyrupJitKtime),
          reinterpret_cast<uint64_t>(&SyrupJitMapLookupBatch),
      };
      // inc qword [r12 + helper_calls]
      U8(0x49); U8(0xFF);
      MemModRM(0, R12, kRtHelperCallsOff);
      if (st.a == 3 || st.a == 4) {  // random/ktime take the JitRuntime*
        U8(0x4C); U8(0x89); U8(0xE7);  // mov rdi, r12
      }
      // Map helper arguments are already in place: r1..r4 = rdi/rsi/rdx/rcx.
      MovImm64(RAX, kHelperTargets[st.a]);  // target burned in as imm64
      U8(0xFF); U8(0xD0);                   // call rax; result -> rax = r0
      // Clobber r1..r5 to zero, as the other tiers do after a helper.
      U8(0x31); U8(0xFF);            // xor edi, edi
      U8(0x31); U8(0xF6);            // xor esi, esi
      U8(0x31); U8(0xD2);            // xor edx, edx
      U8(0x31); U8(0xC9);            // xor ecx, ecx
      U8(0x45); U8(0x31); U8(0xC0);  // xor r8d, r8d
      break;
    }
    case SK::kExit:
      JmpTo(kTargetEpilogue);  // r0 is already in rax
      break;
    case SK::kUnsupported:
    default:
      return UnimplementedError("jit: unsupported opcode");
  }
  return OkStatus();
}

Status Emitter::EmitAll() {
  const size_t n = prog_.code.size();
  // Reject unsupported inputs before emitting anything.
  for (const CInsn& insn : prog_.code) {
    if (kStencilTable[static_cast<size_t>(insn.op)].kind == SK::kUnsupported) {
      return UnimplementedError(
          "jit: program uses an unsupported opcode (tail call); staying on "
          "the compiled tier");
    }
  }
  ComputeLeaders();
  insn_off_.assign(n, 0);
  buf_.reserve(64 + n * 16);
  EmitPrologue();
  for (size_t i = 0; i < n; ++i) {
    insn_off_[i] = buf_.size();
    if (is_leader_[i]) AddRtCounter(kRtInsnsOff, BlockLenAt(i));
    SYRUP_RETURN_IF_ERROR(EmitStencil(prog_.code[i]));
  }
  size_t fault_off = 0;
  if (need_fault_stub_) {
    fault_off = buf_.size();
    // mov qword [r12 + fault], kAtomicUnaligned; clear rax; fall through.
    Rex(true, 0, R12);
    U8(0xC7);
    MemModRM(0, R12, kRtFaultOff);
    U32(static_cast<uint32_t>(JitFault::kAtomicUnaligned));
    U8(0x31); U8(0xC0);  // xor eax, eax
  }
  const size_t epilogue_off = buf_.size();
  EmitEpilogue();
  for (const Fixup& f : fixups_) {
    const size_t target_off = f.target == kTargetEpilogue ? epilogue_off
                              : f.target == kTargetFault
                                  ? fault_off
                                  : insn_off_[static_cast<size_t>(f.target)];
    const int32_t rel = static_cast<int32_t>(target_off) -
                        static_cast<int32_t>(f.off + 4);
    std::memcpy(buf_.data() + f.off, &rel, sizeof(rel));
  }
  return OkStatus();
}

// Process-wide W^X arena. Chunks are mapped RW, filled, and flipped to RX;
// publishing more code into a partially used chunk remaps it RW and back.
// Publishing happens at attach time on the simulation thread, so no other
// thread executes out of a chunk while it is briefly writable. Arena space
// is never reclaimed: attach artifacts are small (hundreds of bytes) and
// long-lived. The singleton leaks deliberately so emitted code outlives any
// static-destruction order.
class ExecArena {
 public:
  static ExecArena& Instance() {
    static auto* arena = new ExecArena;
    return *arena;
  }

  // Copies `code` into executable memory; returns the RX entry pointer or
  // nullptr when mmap/mprotect fails (caller falls back).
  const uint8_t* Publish(const uint8_t* code, size_t len) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t need = (len + 15) & ~static_cast<size_t>(15);
    Chunk* chunk = nullptr;
    for (Chunk& c : chunks_) {
      if (c.cap - c.used >= need) {
        chunk = &c;
        break;
      }
    }
    if (chunk == nullptr) {
      const auto page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
      const size_t cap =
          std::max(kChunkBytes, (need + page - 1) / page * page);
      void* mem = mmap(nullptr, cap, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (mem == MAP_FAILED) return nullptr;
      chunks_.push_back(Chunk{static_cast<uint8_t*>(mem), cap, 0});
      chunk = &chunks_.back();
    } else if (mprotect(chunk->base, chunk->cap,
                        PROT_READ | PROT_WRITE) != 0) {
      return nullptr;  // RX -> RW remap for the patch window failed
    }
    uint8_t* dst = chunk->base + chunk->used;
    std::memcpy(dst, code, len);
    if (mprotect(chunk->base, chunk->cap, PROT_READ | PROT_EXEC) != 0) {
      return nullptr;
    }
    chunk->used += need;
    published_bytes_ += len;
    return dst;
  }

  size_t published_bytes() {
    std::lock_guard<std::mutex> lock(mu_);
    return published_bytes_;
  }

 private:
  static constexpr size_t kChunkBytes = 256 * 1024;
  struct Chunk {
    uint8_t* base;
    size_t cap;
    size_t used;
  };
  std::mutex mu_;
  std::vector<Chunk> chunks_;
  size_t published_bytes_ = 0;
};

#endif  // SYRUP_JIT_SUPPORTED

}  // namespace

bool JitAvailable() {
#if SYRUP_JIT_SUPPORTED
  return !JitDisabledByEnv();
#else
  return false;
#endif
}

StatusOr<std::shared_ptr<const JitProgram>> JitCompile(
    const CompiledProgram& prog) {
#if !SYRUP_JIT_SUPPORTED
  (void)prog;
  return FailedPreconditionError("jit: host is not x86-64 Linux");
#else
  if (JitDisabledByEnv()) {
    return FailedPreconditionError("jit: disabled via SYRUP_JIT_DISABLE");
  }
  const uint64_t t0 = NowNs();
  Emitter emitter(prog);
  SYRUP_RETURN_IF_ERROR(emitter.EmitAll());
  const uint8_t* rx =
      ExecArena::Instance().Publish(emitter.code().data(), emitter.code().size());
  if (rx == nullptr) {
    return ResourceExhaustedError("jit: executable arena mmap/mprotect failed");
  }
  auto program = std::shared_ptr<JitProgram>(new JitProgram());
  program->entry_ = reinterpret_cast<JitProgram::Entry>(
      reinterpret_cast<uintptr_t>(rx));
  program->stats_.code_bytes = emitter.code().size();
  program->stats_.stencils = emitter.stencils();
  program->stats_.jit_ns = NowNs() - t0;
  return std::shared_ptr<const JitProgram>(std::move(program));
#endif
}

StatusOr<ExecResult> RunNative(const CompiledProgram& prog, const ExecEnv& env,
                               uint64_t arg1, uint64_t arg2) {
  JitRuntime rt;
  rt.env = &env;
  const uint64_t r0 = prog.native->entry()(arg1, arg2, &rt);
  if (rt.fault != static_cast<uint64_t>(JitFault::kNone)) {
    return OutOfRangeError("runtime atomic unaligned");
  }
  ExecResult result;
  result.r0 = r0;
  result.insns_executed = rt.insns;
  result.tail_calls = 0;
  result.helper_calls = static_cast<uint32_t>(rt.helper_calls);
  return result;
}

size_t JitArenaBytesUsed() {
#if SYRUP_JIT_SUPPORTED
  return ExecArena::Instance().published_bytes();
#else
  return 0;
#endif
}

}  // namespace syrup::bpf
