// Ablation (DESIGN.md #1): bytecode policy execution vs native mirrors.
//
// The simulation hot path uses native C++ policies; real deployments run
// verified bytecode. This ablation (a) confirms the C++ mirror and every
// bytecode tier (interpret, compiled, native machine code) produce
// identical *simulation results*, and (b) quantifies the per-decision
// execution cost gap and how much of it the compiled and native-JIT tiers
// recover.
//
//   --quick  single policy / single load / short windows (CI smoke run)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/apps/experiments.h"

namespace syrup {
namespace {

struct Timed {
  RocksDbResult result;
  double wall_seconds;
};

Timed RunTimed(SocketPolicyKind policy, bool bytecode, bpf::ExecMode mode,
               double load, Duration measure) {
  RocksDbExperimentConfig config;
  config.socket_policy = policy;
  config.use_bytecode = bytecode;
  config.exec_mode = mode;
  config.get_fraction = 0.995;
  config.load_rps = load;
  config.measure = measure;
  config.seed = 11;
  const auto start = std::chrono::steady_clock::now();
  const RocksDbResult result = RunRocksDbExperiment(config);
  const auto stop = std::chrono::steady_clock::now();
  return {result, std::chrono::duration<double>(stop - start).count()};
}

bool SameResults(const RocksDbResult& a, const RocksDbResult& b) {
  return a.p99_us == b.p99_us && a.throughput_rps == b.throughput_rps &&
         a.drop_fraction == b.drop_fraction;
}

void Run(bool quick) {
  const Duration measure = quick ? 150 * kMillisecond : 600 * kMillisecond;
  std::printf("# Ablation: native policy mirrors vs verified bytecode via "
              "syrupd (Fig. 6 workload)%s\n", quick ? " [--quick]" : "");
  std::printf("%-12s %9s | %11s %11s | %11s %11s | %7s %7s %7s | %9s "
              "%9s %5s\n",
              "policy", "load_rps", "native_p99", "bcode_p99", "native_tput",
              "bcode_tput", "interp", "compld", "jit", "cmp_recov",
              "jit_recov", "ident");
  bool all_identical = true;
  const auto policies =
      quick ? std::vector<SocketPolicyKind>{SocketPolicyKind::kRoundRobin}
            : std::vector<SocketPolicyKind>{SocketPolicyKind::kRoundRobin,
                                            SocketPolicyKind::kSita,
                                            SocketPolicyKind::kScanAvoid};
  const auto loads = quick ? std::vector<double>{100'000.0}
                           : std::vector<double>{100'000.0, 250'000.0};
  for (SocketPolicyKind policy : policies) {
    for (double load : loads) {
      const Timed native = RunTimed(policy, /*bytecode=*/false,
                                    bpf::ExecMode::kCompiled, load, measure);
      const Timed interp = RunTimed(policy, /*bytecode=*/true,
                                    bpf::ExecMode::kInterpret, load, measure);
      const Timed compiled = RunTimed(policy, /*bytecode=*/true,
                                      bpf::ExecMode::kCompiled, load, measure);
      const Timed jit = RunTimed(policy, /*bytecode=*/true,
                                 bpf::ExecMode::kNative, load, measure);

      // Wall-clock slowdown of each bytecode tier over the native mirror,
      // and the share of the interpreter-vs-native gap the compiled and
      // machine-code tiers recover (1.0 = as cheap as the C++ mirror).
      const double interp_slow = interp.wall_seconds / native.wall_seconds;
      const double compiled_slow =
          compiled.wall_seconds / native.wall_seconds;
      const double jit_slow = jit.wall_seconds / native.wall_seconds;
      const double gap = interp.wall_seconds - native.wall_seconds;
      const double recovered =
          gap > 0 ? (interp.wall_seconds - compiled.wall_seconds) / gap : 0;
      const double jit_recovered =
          gap > 0 ? (interp.wall_seconds - jit.wall_seconds) / gap : 0;

      // Same seed, same decisions: every bytecode tier must land on the
      // same simulated outcome to the bit.
      const bool identical = SameResults(interp.result, compiled.result) &&
                             SameResults(compiled.result, jit.result);
      all_identical = all_identical && identical;

      std::printf("%-12s %9.0f | %11.1f %11.1f | %11.0f %11.0f | %6.2fx "
                  "%6.2fx %6.2fx | %8.0f%% %8.0f%% %5s\n",
                  std::string(SocketPolicyName(policy)).c_str(), load,
                  native.result.p99_us, compiled.result.p99_us,
                  native.result.throughput_rps,
                  compiled.result.throughput_rps, interp_slow, compiled_slow,
                  jit_slow, recovered * 100, jit_recovered * 100,
                  identical ? "yes" : "NO");
    }
  }
  std::printf(
      "# interp/compld/jit: simulation wall-clock vs the native mirror per "
      "execution tier.\n"
      "# cmp_recov/jit_recov: share of the interpreter-vs-native cost gap "
      "the compiled / machine-code tier closes.\n"
      "# ident: all three bytecode tiers produced bit-identical results.\n");
  if (!all_identical) {
    std::printf("# FAILURE: execution tiers disagreed on simulation "
                "results\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  syrup::Run(quick);
  return 0;
}
