// Ahead-of-time translation of verified policy programs (the "JIT" tier).
//
// The paper's policies run at ns-scale because the kernel JIT-compiles
// verified eBPF to native code. This module closes most of that gap for the
// reproduction's VM without emitting machine code: a verified Program is
// translated once, at attach time, into a pre-decoded execution form —
//
//   * operands resolved: map references become direct Map* pointers, helper
//     ids become dedicated opcodes (no helper-id switch per call),
//   * jump offsets rewritten to absolute instruction indices,
//   * constant folding and peephole strength reduction over ALU chains
//     (mul/div/mod by a power of two become shifts/masks, branches with
//     both sides known become unconditional or disappear),
//   * no per-access runtime memory re-validation: the verifier already
//     proved every packet/stack/map-value access in bounds on every path,
//     so the compiled form loads and stores directly. The interpreter that
//     keeps every check is a test oracle (tests/oracles/interpreter.h) the
//     compiled tiers are differentially checked against, not a tier.
//
// The compiled form executes through a direct-threaded (computed-goto)
// dispatch loop. Syrupd caches one CompiledProgram per deployed program id,
// so compilation happens once per attach and every hook (XDP, socket
// select, thread scheduling via the ghOSt shim) runs the compiled form.
#ifndef SYRUP_SRC_BPF_COMPILER_H_
#define SYRUP_SRC_BPF_COMPILER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bpf/cost_model.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/common/status.h"

namespace syrup::bpf {

struct CompileOptions {
  // Skip the internal verification pass. Only set when the caller has just
  // run Verify() on the identical program (syrupd's deploy path does);
  // compiling an unverified program with checks elided is unsound.
  bool assume_verified = false;
  // Per-instruction facts from the verifier's abstract interpretation.
  // Instructions proven unreachable on every feasible path are dropped, and
  // conditional branches whose edges only ever resolved one way become
  // unconditional (or disappear). When null and the internal verification
  // pass runs, its own facts are used; with assume_verified the deploy path
  // should pass the facts it got from Verify(). Must outlive Compile().
  const AnalysisFacts* facts = nullptr;
};

struct CompileStats {
  size_t input_insns = 0;
  size_t output_insns = 0;
  size_t folded_alu = 0;         // ALU ops folded to constant moves
  size_t eliminated_insns = 0;   // dead moves + decided branches removed
  size_t strength_reduced = 0;   // mul/div/mod -> shift/mask rewrites
  size_t elided_checks = 0;      // runtime memory validations removed
  // Analysis-driven eliminations (0 unless verifier facts were available):
  size_t facts_dead_insns = 0;        // statically live, dynamically dead
  size_t facts_decided_branches = 0;  // branches the range analysis decided
};

// Pre-decoded opcodes. Memory ops are unchecked: the verifier proved their
// bounds at attach time.
enum class COp : uint8_t {
  kAddReg, kAddImm, kSubReg, kSubImm, kMulReg, kMulImm,
  kDivReg, kDivImm, kModReg, kModImm, kOrReg, kOrImm,
  kAndReg, kAndImm, kLshReg, kLshImm, kRshReg, kRshImm,
  kArshReg, kArshImm, kNeg, kMovReg, kMovImm, kMov32Reg, kMov32Imm,
  kBe16, kBe32, kBe64,

  kLdxB, kLdxH, kLdxW, kLdxDW,
  kStxB, kStxH, kStxW, kStxDW,
  kStB, kStH, kStW, kStDW,
  kAtomicAddDW,  // alignment still checked (the verifier does not prove it)

  // Jumps: `arg` is the absolute index of the taken target.
  kJa,
  kJeqReg, kJeqImm, kJneReg, kJneImm,
  kJgtReg, kJgtImm, kJgeReg, kJgeImm,
  kJltReg, kJltImm, kJleReg, kJleImm,
  kJsgtReg, kJsgtImm, kJsgeReg, kJsgeImm,
  kJsltReg, kJsltImm, kJsleReg, kJsleImm,
  kJsetReg, kJsetImm,

  // Helpers, specialized per id at compile time.
  kCallLookup, kCallUpdate, kCallDelete, kCallLookupBatch,
  kCallRandom, kCallKtime, kCallTailCall,

  kLdMapPtr,  // imm carries the resolved Map* (maps vector keeps it alive)
  kExit,

  kNumCOps,  // sentinel: dispatch table size
};

struct CInsn {
  COp op = COp::kExit;
  uint8_t dst = 0;
  uint8_t src = 0;
  int32_t arg = 0;   // memory offset, or absolute jump target index
  uint64_t imm = 0;  // immediate operand or resolved pointer
};

class JitProgram;  // src/bpf/jit.h

// The cached attach-time artifact. Holds shared ownership of the program's
// maps because kLdMapPtr instructions embed raw Map* operands.
struct CompiledProgram {
  std::string name;
  std::vector<CInsn> code;
  std::vector<std::shared_ptr<Map>> maps;
  CompileStats stats;
  // Machine code published by the native tier (ExecMode::kNative), null on
  // the compiled tier and whenever the JIT fell back (non-x86-64 host,
  // SYRUP_JIT_DISABLE, arena failure, unsupported program). When set,
  // CompiledExecutor::Run dispatches into it instead of the bytecode loop.
  std::shared_ptr<const JitProgram> native;
};

// The tier a given attach artifact actually executes on: requested native
// mode degrades to kCompiled when no machine code was published. This is
// what the policy.exec_mode gauge and the policies' exec_mode() accessors
// report.
ExecMode EffectiveExecMode(const CompiledProgram& compiled);

// Translates `prog` into its pre-decoded form. Verifies first (the check
// elision is only sound for verified programs) unless
// options.assume_verified is set by a caller that just did.
StatusOr<CompiledProgram> Compile(const Program& prog, ProgramContext context,
                                  const CompileOptions& options = {});

// Executes compiled programs. For a given (program, context args, env) the
// produced r0 and map side effects are exactly those of running the source
// instructions one by one (the interpreter oracle in tests/ checks this);
// insns_executed counts *compiled* instructions, which folding makes
// smaller than the source count.
//
// Tail calls resolve through env.resolve_compiled; a missing resolver or a
// miss behaves like a prog-array miss (r0 = -1).
class CompiledExecutor {
 public:
  explicit CompiledExecutor(ExecEnv env) : env_(std::move(env)) {}

  // `args_are_packet` is unused: the verifier already fixed the context.
  // It stays for the callers that pass it.
  StatusOr<ExecResult> Run(const CompiledProgram& prog, uint64_t arg1,
                           uint64_t arg2, bool args_are_packet);

 private:
  ExecEnv env_;
};

}  // namespace syrup::bpf

#endif  // SYRUP_SRC_BPF_COMPILER_H_
