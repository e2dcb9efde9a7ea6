// Policy VM interpreter.
//
// Executes a verified program against a context (packet bounds or scalar
// thread-event arguments). As defense in depth, every memory access is also
// re-validated at runtime against the known regions (packet, stack, live map
// values), and every map pointer a helper receives must be one of the
// program's own maps; the verifier should make these checks unreachable.
// This is the only tier that re-checks at runtime: the compiled and native
// tiers (src/bpf/compiler.h, src/bpf/jit.h) trust the verifier.
#ifndef SYRUP_SRC_BPF_INTERPRETER_H_
#define SYRUP_SRC_BPF_INTERPRETER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/bpf/program.h"
#include "src/common/status.h"

namespace syrup::bpf {

struct CompiledProgram;  // src/bpf/compiler.h

// Environment services for helper calls. The simulation binds these to
// simulated time and a deterministic RNG; standalone use binds wall clock.
struct ExecEnv {
  std::function<uint32_t()> random_u32;
  std::function<uint64_t()> ktime_ns;
  // Resolves a tail-call target: program id -> program (nullptr = miss).
  std::function<const Program*(uint64_t prog_id)> resolve_program;
  // Same, in pre-decoded form; used by CompiledExecutor. Syrupd binds this
  // to its per-prog-id compile cache. Unset (or a miss) makes a compiled
  // tail call behave like a prog-array miss (r0 = -1).
  std::function<const CompiledProgram*(uint64_t prog_id)> resolve_compiled;
};

struct ExecResult {
  uint64_t r0 = 0;              // the schedule() return value
  uint64_t insns_executed = 0;  // across tail calls
  uint32_t tail_calls = 0;
  uint32_t helper_calls = 0;    // every kCall insn, tail calls included
};

class Interpreter {
 public:
  explicit Interpreter(ExecEnv env) : env_(std::move(env)) {}

  // Runs `prog` with r1/r2 preloaded from `arg1`/`arg2`.
  //
  // For packet hooks arg1/arg2 are pkt_start/pkt_end host addresses (the
  // paper's `schedule(void* pkt_start, void* pkt_end)` signature); for the
  // thread hook they are scalars (thread id, message type).
  StatusOr<ExecResult> Run(const Program& prog, uint64_t arg1, uint64_t arg2,
                           bool args_are_packet);

  // Hard cap on executed instructions (runaway guard; the verifier already
  // bounds programs, this guards interpreter bugs).
  static constexpr uint64_t kMaxInsns = 4u << 20;
  static constexpr uint32_t kMaxTailCalls = 32;

 private:
  ExecEnv env_;
};

}  // namespace syrup::bpf

#endif  // SYRUP_SRC_BPF_INTERPRETER_H_
