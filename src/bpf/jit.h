// Native execution tier: copy-and-patch x86-64 code generation.
//
// The paper's platform runs matching functions through the kernel eBPF JIT,
// so a deployed policy costs no more than hard-wired logic. This module
// closes the last of that gap for the reproduction: at attach time the
// pre-decoded compiled form (src/bpf/compiler.h) is lowered to real x86-64
// machine code by instantiating a per-opcode stencil — a fixed byte template
// whose register fields, displacements, immediates, map pointers, and
// helper-call targets are patched in as it is copied into the code buffer.
//
// Everything the compiled tier proved stays proven here: `AnalysisFacts`
// already shaped the input (dead code gone, decided branches removed), and
// the verifier's bounds proofs mean loads/stores are emitted with no runtime
// re-checks, exactly like the compiled tier. Only the 8-byte alignment of
// atomic adds — which the verifier does not prove — keeps a runtime test,
// branching to a shared fault stub.
//
// W^X lifecycle: code is emitted into a plain buffer, then published into a
// process-wide executable arena (mmap RW -> copy/patch -> mprotect RX). The
// arena chunks are reused across programs; publishing into a partially-used
// chunk remaps it RW and back, so pages are never writable and executable
// at the same time.
//
// Fallback rules (the caller keeps the compiled tier on any failure):
//   * non-x86-64 or non-Linux build (no emitter for the host),
//   * SYRUP_JIT_DISABLE=1 in the environment (kill switch; also how CI
//     forces the fallback path on x86-64 matrix entries),
//   * mmap/mprotect failure in the arena,
//   * unsupported input: tail calls.
#ifndef SYRUP_SRC_BPF_JIT_H_
#define SYRUP_SRC_BPF_JIT_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/bpf/compiler.h"
#include "src/bpf/program.h"
#include "src/common/status.h"

namespace syrup::bpf {

// Per-run state shared between emitted code and the C++ wrapper. The
// prologue pins a pointer to this struct in %r12; stencils reference the
// fields by fixed offset (static_asserts in jit.cc keep them honest).
struct JitRuntime {
  uint64_t insns = 0;         // executed instructions, accumulated per block
  uint64_t helper_calls = 0;  // every helper-call stencil increments this
  uint64_t fault = 0;         // JitFault code, written by the fault stub
  const ExecEnv* env = nullptr;  // helper trampolines reach services here
};

enum class JitFault : uint64_t {
  kNone = 0,
  kAtomicUnaligned = 1,
};

struct JitStats {
  size_t code_bytes = 0;  // published machine code size
  size_t stencils = 0;    // stencil instantiations (one per compiled insn)
  uint64_t jit_ns = 0;    // wall time to emit + publish
};

// A published native program. The entry point lives in the shared RX arena
// and stays valid for the lifetime of the process; the JitProgram object
// only carries the pointer and stats (arena space is not reclaimed when a
// program is dropped — attach-time artifacts are long-lived and small).
class JitProgram {
 public:
  // Same contract as CompiledExecutor::Run's inner loop: r1 = arg1,
  // r2 = arg2, returns r0. Counters and faults land in *rt.
  using Entry = uint64_t (*)(uint64_t arg1, uint64_t arg2, JitRuntime* rt);

  Entry entry() const { return entry_; }
  const JitStats& stats() const { return stats_; }

 private:
  friend StatusOr<std::shared_ptr<const JitProgram>> JitCompile(
      const CompiledProgram& prog);
  JitProgram() = default;

  Entry entry_ = nullptr;
  JitStats stats_;
};

// True when this build/host can emit and run native code: x86-64 Linux and
// SYRUP_JIT_DISABLE is not set to 1 in the environment. Arena exhaustion is
// only discoverable at JitCompile time.
bool JitAvailable();

// Lowers a pre-decoded program to machine code and publishes it. Returns
// FailedPrecondition when the JIT is unavailable on this host/build,
// Unimplemented when the program uses an unsupported feature (tail calls),
// ResourceExhausted when the arena cannot map memory. Callers treat any
// error as "stay on the compiled tier".
StatusOr<std::shared_ptr<const JitProgram>> JitCompile(
    const CompiledProgram& prog);

// Runs prog.native. Precondition: prog.native != nullptr. Produces the same
// r0 / map side effects / helper_calls as the other tiers; insns_executed
// is the per-block accumulated count (equals the compiled tier's count on
// non-faulting runs); tail_calls is always 0 (unsupported -> never JIT'd).
StatusOr<ExecResult> RunNative(const CompiledProgram& prog, const ExecEnv& env,
                               uint64_t arg1, uint64_t arg2);

// Total machine-code bytes published into the arena so far (process-wide).
size_t JitArenaBytesUsed();

}  // namespace syrup::bpf

#endif  // SYRUP_SRC_BPF_JIT_H_
