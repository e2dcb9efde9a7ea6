// Static verifier for policy programs (paper §4.3, "eBPF Isolation").
//
// Abstract interpretation over a per-register domain of
//   * unsigned and signed intervals [umin, umax] / [smin, smax], and
//   * known bits (a tnum: `value` holds the known bit values, `mask` the
//     unknown bits),
// propagated through every ALU op and narrowed at conditional branches
// (`if (off < 64)` refines the ranges on both edges), so bounded
// variable-offset packet and map-value accesses are provable. Every
// data-dependent branch forks the abstract state; join points (jump
// targets) keep the states already verified there and prune any new state
// that a completed state subsumes, which caps the exploration cost of
// branchy programs.
//
// Rejection classes:
//   * read of an uninitialized register or stack byte,
//   * packet access outside the range proven against pkt_end,
//   * map value dereference without a NULL check, or out of bounds,
//   * stack access out of bounds, write to read-only memory (packet, r10),
//   * pointer arithmetic or comparisons that would launder a pointer,
//   * falling off the end of the program, or
//   * exceeding the exploration budget (guarantees liveness; only bounded
//     loops pass, matching the paper's "up to 1 million instructions").
//
// Verify() is the boolean deploy gate. VerifyAll() is the lint engine: it
// keeps exploring after path errors and layers a warning catalog on top
// (dead code, statically decided branches, map lookups never NULL-checked,
// stack bytes written but never read), each diagnostic carrying the pc and
// the disassembled instruction. Only VerifyAll() produces warnings.
#ifndef SYRUP_SRC_BPF_VERIFIER_H_
#define SYRUP_SRC_BPF_VERIFIER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/bpf/cost_model.h"
#include "src/bpf/program.h"
#include "src/common/status.h"

namespace syrup::bpf {

enum class ProgramContext {
  kPacket,  // r1 = pkt_start, r2 = pkt_end
  kThread,  // r1 = thread id (scalar), r2 = message type (scalar)
};

struct VerifierOptions {
  // Maximum (state, instruction) visits before rejecting for liveness.
  uint64_t max_visited_insns = 1'000'000;
  // Maximum branch states queued at once.
  size_t max_pending_states = 16'384;
  // State-subsumption pruning: at join points, a state covered by an
  // already fully-explored state is not re-explored. Off reproduces the
  // exhaustive per-path exploration (useful to measure the saving).
  bool prune = true;
  // Memory bound: states remembered per join point. Past the cap new
  // states still verify, they just cannot prune later arrivals.
  size_t max_states_per_prune_point = 32;
  // Cost tables for AnalysisFacts::cost (and VerifyAll's path-over-budget
  // lint); null means DefaultCostModel(). Must outlive the Verify call.
  const CostModel* cost_model = nullptr;
};

struct VerifierStats {
  uint64_t visited_insns = 0;
  uint64_t branch_states = 0;
  uint64_t pruned_states = 0;  // paths cut by the subsumption check
  uint64_t verify_ns = 0;      // wall time spent in the analysis
};

// Per-instruction facts from a successful verification, consumed by the
// compiler: instructions never reached on any feasible path are dead, and
// a conditional branch whose edges were only ever resolved one way can be
// rewritten to an unconditional jump (or dropped). Both vectors are sized
// to the program; `edges` is meaningful for conditional jumps only.
//
// The purity summary feeds the ghOSt agent's memo. A program is `pure`
// iff its result is a function of its arguments (the packet bytes it
// reads, or the tid) plus the current contents of the maps it reads: no
// map writes/deletes, no randomness, no clock reads, no tail calls. The
// agent classifies each thread once per pass with a pure thread program
// (DESIGN.md "ghOSt agent").
//
// NOTE: `read_maps` is NOT the complete map footprint — it only names
// lookup targets. The full footprint is read_maps + write_maps +
// atomic_maps; consumers reasoning about side effects (the deployment
// interference analysis) must consult the write sets explicitly.
//
// One reason a program is not pure, anchored to the instruction that
// introduced the impurity.
struct Impurity {
  uint32_t pc = 0;
  std::string reason;
};

struct AnalysisFacts {
  static constexpr uint8_t kEdgeFall = 1;   // fall-through edge feasible
  static constexpr uint8_t kEdgeTaken = 2;  // taken edge feasible

  std::vector<uint8_t> visited;  // reached on some verified path
  std::vector<uint8_t> edges;    // OR of feasible edges per cond jump

  // --- purity / read-set summary (agent memo) -----------------------------
  bool pure = false;               // no side effects, no hidden inputs
  std::vector<int32_t> read_maps;  // program map indices read via lookup

  // --- side-effect summary (deployment interference analysis) ------------
  // Map indices mutated via map_update_elem/map_delete_elem or stores
  // through looked-up value pointers; `atomic_maps` is the subset mutated
  // with lock xadd through value pointers (in place). Sorted, deduplicated,
  // may overlap read_maps.
  std::vector<int32_t> write_maps;
  std::vector<int32_t> atomic_maps;
  // Why this program is not pure, one entry per impure instruction. Empty
  // exactly when `pure` holds.
  std::vector<Impurity> impurities;

  // --- cost summary (WCET over the feasible paths, see cost_model.h) ------
  // Every accepted program gets one, as if from a walk that prunes only
  // against cost-dominating coverers. cost.bounded is false when that walk
  // exhausted the exploration budget (never a rejection by itself) or
  // verification failed.
  CostFacts cost;

  bool empty() const { return visited.empty(); }
};

enum class DiagSeverity : uint8_t { kError, kWarning };

std::string_view DiagSeverityName(DiagSeverity severity);

// One finding with instruction-level provenance.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  size_t pc = 0;
  std::string insn;     // disassembly of insns[pc]; empty if pc is invalid
  std::string message;  // prose reason
};

// "verifier: <message> at insn <pc> (<insn>) in program '<name>'" — the
// exact string Verify() puts in its Status, so every tool prints one
// format. Warnings say "verifier warning:".
std::string FormatDiagnostic(const Diagnostic& diag,
                             const std::string& program_name);

// Full lint result: every distinct error reachable on some explored path,
// then the warning catalog, ordered errors-first.
struct VerifyReport {
  std::string program;
  std::vector<Diagnostic> diagnostics;
  VerifierStats stats;
  AnalysisFacts facts;  // populated only when ok()

  bool ok() const;        // no error-severity diagnostics
  Status status() const;  // OkStatus() or the first error, formatted
};

// Verifies `prog` for the given context. On rejection the Status message
// names the offending instruction (with disassembly) and reason. `stats`
// and `facts` are filled when non-null (facts only on success).
Status Verify(const Program& prog, ProgramContext context,
              const VerifierOptions& options = {},
              VerifierStats* stats = nullptr, AnalysisFacts* facts = nullptr);

// Lint entry point: keeps exploring sibling paths after a path fails, so
// every distinct error (at most 64 diagnostics in all) is collected, and
// returns everything it found. Verify() stops at the first error.
VerifyReport VerifyAll(const Program& prog, ProgramContext context,
                       const VerifierOptions& options = {});

}  // namespace syrup::bpf

#endif  // SYRUP_SRC_BPF_VERIFIER_H_
