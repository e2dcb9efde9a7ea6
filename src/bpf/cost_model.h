// Static cost model for policy programs: per-opcode ns tables for each
// execution tier plus per-helper costs parameterized by map kind. The
// verifier's post-acceptance cost pass (see verifier.h, AnalysisFacts::cost)
// walks every feasible path with these tables to bound worst-/best-case
// execution cost, and Syrupd compares the bound against per-hook latency
// budgets at deploy time.
#ifndef SYRUP_SRC_BPF_COST_MODEL_H_
#define SYRUP_SRC_BPF_COST_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/bpf/insn.h"
#include "src/map/map.h"

namespace syrup::bpf {

// How a deployed bytecode policy is executed. Each mode runs on its own
// cost table below, indexed by the enum value.
//   kInterpret  decodes every instruction and re-checks every memory access
//               at runtime: the differential oracle, and the tier for an
//               operator who distrusts the verifier.
//   kCompiled   the default: pre-decoded at attach time (src/bpf/compiler.h),
//               with the accesses the verifier proved safe left unchecked.
//   kNative     lowers the pre-decoded form to x86-64 machine code
//               (src/bpf/jit.h). Hosts or programs the JIT cannot handle fall
//               back to kCompiled transparently; EffectiveExecMode reports
//               which tier actually runs.
enum class ExecMode : uint8_t {
  kInterpret = 0,
  kCompiled = 1,
  kNative = 2,
};

inline constexpr size_t kNumExecModes = 3;

std::string_view ExecModeName(ExecMode mode);

// Parses an ExecModeName back into the mode ("interpret", "compiled",
// "native"); nullopt for anything else.
std::optional<ExecMode> ExecModeFromName(std::string_view name);

// Per-tier, per-opcode execution costs in nanoseconds, plus helper-body
// costs parameterized by map kind. All entries are intended as host upper
// bounds: the soundness direction users rely on is measured <= predicted.
//
// Costs are charged per *source* instruction along verifier-explored paths.
// The compiled and native tiers execute at most as many instructions as the
// source path (constant folding and check elision only shrink), so a source
// path priced with the compiled/native tables over-predicts those tiers —
// conservative in the right direction.
struct CostModel {
  // Dispatch + execute cost of one opcode at each tier. The kCall entry
  // covers calling-convention overhead only; the helper body is priced
  // separately below.
  double op_ns[kNumExecModes][kNumOps] = {};

  // Fixed per-Run() overhead (register/stack setup, entry/exit). Dominates
  // tiny programs, which is why the model carries it explicitly instead of
  // smearing it over per-op costs.
  double exec_overhead_ns[kNumExecModes] = {};

  // Helper-body costs. Map helpers depend on the map kind (array index vs
  // hash probe vs per-CPU shard); bodies run as host C++ at every tier, so
  // these are tier-independent.
  double lookup_ns[kNumMapTypes] = {};
  double update_ns[kNumMapTypes] = {};
  double delete_ns[kNumMapTypes] = {};
  double random_ns = 0;
  double ktime_ns = 0;
  double tail_call_ns = 0;

  // Body cost of `helper` against a map of kind `map_type` (ignored for
  // non-map helpers). `batch_count` scales the batched lookup helper: the
  // batch is priced as n independent probes, a sound upper bound since the
  // software pipeline only overlaps their memory latencies.
  double HelperNs(HelperId helper, MapType map_type,
                  uint32_t batch_count = 1) const;

  // Full cost of executing `insn` once at `mode`: opcode dispatch cost plus,
  // for kCall, the helper body (map helpers priced by `helper_map_type`;
  // `batch_count` is the proven r4 constant for map_lookup_batch).
  double InsnNs(const Insn& insn, MapType helper_map_type, ExecMode mode,
                uint32_t batch_count = 1) const;
};

// Checked-in calibration constants: deterministic (identical on every host),
// used for golden output (`syrupctl cost`), lint thresholds, and deploy-time
// budget enforcement. Cross-validated against bench/policy_exec.
const CostModel& DefaultCostModel();

// Measures this host with small straight-line calibration programs per tier
// (and per-map-kind helper microruns), then scales DefaultCostModel up to
// cover the measurements with margin. Never returns a model cheaper than the
// default, so calibration only widens bounds. Use for cost-vs-reality
// differential tests: a sanitizer or slow host inflates calibration and
// measurement alike.
CostModel CalibratedCostModel();

// Result of the verifier's cost pass over all feasible paths.
struct CostFacts {
  // True when the pass explored every feasible path to EXIT within budget.
  // False (with all other fields zero) when the program was not analyzed or
  // the pass gave up; never a verification failure by itself.
  bool bounded = false;
  // Program performs tail calls: the bounds below cover this program only,
  // not the programs it may jump to.
  bool has_tail_call = false;
  // Worst-/best-case executed source-instruction count over feasible paths.
  // Upper-bounds ExecResult::insns_executed for the interpreter and (because
  // folding only shrinks) the compiled/native accounting.
  uint64_t wcet_insns = 0;
  uint64_t best_insns = 0;
  // Worst-/best-case wall time per execution at each tier, including the
  // per-Run() overhead. best_ns is the minimum over *explored* paths (cost
  // pruning may skip some cheap suffixes), so treat it as approximate.
  double wcet_ns[kNumExecModes] = {};
  double best_ns[kNumExecModes] = {};
  // The concrete hottest path: pc sequence of the feasible path with the
  // highest native-tier cost (ties broken toward more instructions).
  std::vector<uint32_t> hottest_path;
};

// Renders "pc0 -> pc1 -> ... -> pcN" for diagnostics.
std::string FormatPath(const std::vector<uint32_t>& path);

// Reference budgets for the verifier's path-over-budget lint, evaluated at
// the compiled tier (the default deploy tier). These mirror the tightest
// packet-hook budget (kXdpOffload) and the thread-hook budget in
// DefaultHookBudgetNs (src/core/hook.h); the real per-hook table lives
// there, in the layer that knows about hooks.
inline constexpr double kTightestPacketBudgetNs = 1000.0;
inline constexpr double kThreadBudgetNs = 20000.0;

}  // namespace syrup::bpf

#endif  // SYRUP_SRC_BPF_COST_MODEL_H_
