// A loaded policy program (instructions plus resolved map references) and
// the run contract every execution engine shares: the helper environment,
// the result, and the runaway limits.
#ifndef SYRUP_SRC_BPF_PROGRAM_H_
#define SYRUP_SRC_BPF_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/bpf/insn.h"
#include "src/map/map.h"

namespace syrup::bpf {

struct Program {
  std::string name;
  std::vector<Insn> insns;
  // kLdMapFd instructions carry an index into this table.
  std::vector<std::shared_ptr<Map>> maps;
};

struct CompiledProgram;  // src/bpf/compiler.h

// Environment services for helper calls. The simulation binds these to
// simulated time and a deterministic RNG; standalone use binds wall clock.
struct ExecEnv {
  std::function<uint32_t()> random_u32;
  std::function<uint64_t()> ktime_ns;
  // Resolves a tail-call target: program id -> its attach-time artifact.
  // Syrupd binds this to its per-prog-id compile cache. Unset (or a miss)
  // makes a tail call behave like a prog-array miss (r0 = -1).
  std::function<const CompiledProgram*(uint64_t prog_id)> resolve_compiled;
};

struct ExecResult {
  uint64_t r0 = 0;              // the schedule() return value
  uint64_t insns_executed = 0;  // across tail calls
  uint32_t tail_calls = 0;
  uint32_t helper_calls = 0;    // every kCall insn, tail calls included
};

// Hard cap on executed instructions per run (a runaway guard: the verifier
// already bounds programs) and on the length of a tail-call chain.
inline constexpr uint64_t kMaxInsns = 4u << 20;
inline constexpr uint32_t kMaxTailCalls = 32;

}  // namespace syrup::bpf

#endif  // SYRUP_SRC_BPF_PROGRAM_H_
