// Instruction set of the Syrup policy virtual machine.
//
// The VM mirrors eBPF: eleven 64-bit registers (r0..r10, r10 = read-only
// frame pointer), a 512-byte stack, ALU/JMP/LD/ST instruction classes,
// helper calls, and map references loaded via a pseudo-instruction. Policies
// compiled to this ISA are untrusted: they must pass the verifier
// (src/bpf/verifier.h) before syrupd will attach them to a hook.
#ifndef SYRUP_SRC_BPF_INSN_H_
#define SYRUP_SRC_BPF_INSN_H_

#include <cstdint>
#include <string>

namespace syrup::bpf {

inline constexpr int kNumRegisters = 11;
inline constexpr int kFrameRegister = 10;  // r10: frame pointer (read-only)
inline constexpr int kStackSize = 512;     // bytes, addressed r10-512..r10-1

// Instruction opcodes. ALU ops come in register (…Reg) and immediate (…Imm)
// source flavors, matching eBPF's BPF_X / BPF_K distinction.
enum class Op : uint8_t {
  kInvalid = 0,

  // ALU64, dst = dst <op> src/imm.
  kAddReg, kAddImm,
  kSubReg, kSubImm,
  kMulReg, kMulImm,
  kDivReg, kDivImm,    // unsigned; divide-by-zero yields 0 (eBPF semantics)
  kModReg, kModImm,    // unsigned; mod-by-zero yields dst unchanged -> 0
  kOrReg,  kOrImm,
  kAndReg, kAndImm,
  kLshReg, kLshImm,
  kRshReg, kRshImm,    // logical
  kArshReg, kArshImm,  // arithmetic
  kNeg,
  kMovReg, kMovImm,
  kMov32Reg, kMov32Imm,  // 32-bit move: zero-extends into dst

  // Byte-swap (endianness helpers for parsing network headers).
  kBe16, kBe32, kBe64,  // convert dst from host to big-endian width n

  // Memory. Width suffix: B=1, H=2, W=4, DW=8 bytes.
  kLdxB, kLdxH, kLdxW, kLdxDW,  // dst = *(src + off)
  kStxB, kStxH, kStxW, kStxDW,  // *(dst + off) = src
  kStB,  kStH,  kStW,  kStDW,   // *(dst + off) = imm

  // Atomics (map/stack memory): *(dst + off) += src, 64-bit.
  kAtomicAddDW,

  // Jumps: target = pc + 1 + off.
  kJa,
  kJeqReg, kJeqImm,
  kJneReg, kJneImm,
  kJgtReg, kJgtImm,    // unsigned >
  kJgeReg, kJgeImm,
  kJltReg, kJltImm,
  kJleReg, kJleImm,
  kJsgtReg, kJsgtImm,  // signed >
  kJsgeReg, kJsgeImm,
  kJsltReg, kJsltImm,
  kJsleReg, kJsleImm,
  kJsetReg, kJsetImm,  // jump if dst & src

  // Calls and termination.
  kCall,  // imm = HelperId
  kExit,

  // Pseudo: load a map reference (imm = map fd) into dst. The verifier gives
  // dst type kConstMapPtr; the compiler resolves it to the runtime handle.
  kLdMapFd,
};

// Number of opcodes; sizes every per-opcode table (e.g. the cost model's
// per-tier ns tables). Keep in sync with the enum (kLdMapFd is last).
inline constexpr size_t kNumOps = static_cast<size_t>(Op::kLdMapFd) + 1;

// Helper functions callable from policy programs (imm field of kCall).
// Calling convention follows eBPF: arguments in r1..r5, result in r0,
// r1..r5 clobbered, r6..r9 preserved.
enum class HelperId : int32_t {
  kMapLookupElem = 1,  // r1=map, r2=key ptr -> r0 = value ptr or NULL
  kMapUpdateElem = 2,  // r1=map, r2=key ptr, r3=value ptr -> r0 = 0/err
  kMapDeleteElem = 3,  // r1=map, r2=key ptr -> r0 = 0/err
  kGetPrandomU32 = 4,  // -> r0 = random u32
  kKtimeGetNs = 5,     // -> r0 = current (simulated or wall) time in ns
  kTailCall = 6,       // r1=ctx(unused), r2=prog_array map, r3=index
  // Batched lookup over n contiguous keys (value_size==8 maps only):
  // r1=map, r2=keys ptr (n * key_size bytes), r3=out ptr (n * 8 bytes,
  // stack), r4=n (constant 1..Map::kMaxLookupBatch). Copies each hit's
  // u64 value into out[i] (0 on miss) and returns the hit bitmap in r0.
  // Copy-out semantics on purpose: the verifier tracks maybe-null value
  // pointers in registers, not spilled through memory, so the batch form
  // returns values, never pointers.
  kMapLookupBatch = 7,
};

struct Insn {
  Op op = Op::kInvalid;
  uint8_t dst = 0;
  uint8_t src = 0;
  int16_t off = 0;
  int64_t imm = 0;

  bool operator==(const Insn&) const = default;
};

// --- Introspection helpers used by the verifier/compiler/disassembler ---

// Number of bytes accessed by a load/store opcode; 0 for non-memory ops.
int MemAccessSize(Op op);

bool IsAluOp(Op op);
bool IsJumpOp(Op op);     // includes kJa
bool IsCondJumpOp(Op op);
bool IsLoadOp(Op op);     // kLdx*
bool IsStoreOp(Op op);    // kStx*, kSt*, kAtomicAddDW
bool UsesSrcReg(Op op);   // true for *Reg flavors and stores-from-register

std::string OpName(Op op);
std::string Disassemble(const Insn& insn);

}  // namespace syrup::bpf

#endif  // SYRUP_SRC_BPF_INSN_H_
