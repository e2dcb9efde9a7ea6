// Ablation (DESIGN.md #1): bytecode policy execution vs native mirrors.
//
// The simulation hot path uses native C++ policies; real deployments run
// verified bytecode. This ablation (a) confirms both bytecode tiers
// (compiled, native machine code) produce bit-identical *simulation
// results*, and (b) quantifies what each costs over the C++ mirror in
// simulation wall clock. Each wall clock is the best of 3 interleaved runs.
//
//   --quick  one policy and load, short windows, one run per tier: only the
//            simulated columns and `ident`, too short to time the tiers
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/harness.h"
#include "src/apps/experiments.h"

namespace syrup {
namespace {

// Runs one tier into `*result`; returns its wall-clock seconds.
double RunTimed(SocketPolicyKind policy, bool bytecode, bpf::ExecMode mode,
                double load, Duration measure, RocksDbResult* result) {
  RocksDbExperimentConfig config;
  config.socket_policy = policy;
  config.use_bytecode = bytecode;
  config.exec_mode = mode;
  config.get_fraction = 0.995;
  config.load_rps = load;
  config.measure = measure;
  config.seed = 11;
  const auto start = std::chrono::steady_clock::now();
  *result = RunRocksDbExperiment(config);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

bool SameResults(const RocksDbResult& a, const RocksDbResult& b) {
  return a.p99_us == b.p99_us && a.throughput_rps == b.throughput_rps &&
         a.drop_fraction == b.drop_fraction;
}

void Run(bool quick) {
  const Duration measure = quick ? 150 * kMillisecond : 600 * kMillisecond;
  std::printf("# Ablation: native policy mirrors vs verified bytecode via "
              "syrupd (Fig. 6 workload)%s\n", quick ? " [--quick]" : "");
  std::printf("%-12s %9s | %11s %11s | %11s %11s |", "policy", "load_rps",
              "native_p99", "bcode_p99", "native_tput", "bcode_tput");
  if (!quick) {
    std::printf(" %7s %7s |", "compld", "jit");
  }
  std::printf(" %5s\n", "ident");
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
      // The native C++ mirror, then the two bytecode tiers.
      RocksDbResult native, compiled, jit;
      auto tier = [&](bool bytecode, bpf::ExecMode mode, RocksDbResult* out) {
        return [=] {
          return RunTimed(policy, bytecode, mode, load, measure, out);
        };
      };
      const std::vector<bench::Series> wall = bench::Interleave(
          {tier(false, bpf::ExecMode::kCompiled, &native),
           tier(true, bpf::ExecMode::kCompiled, &compiled),
           tier(true, bpf::ExecMode::kNative, &jit)},
          quick ? 1 : 3);

      // Same seed, same decisions: both bytecode tiers must land on the
      // same simulated outcome to the bit.
      const bool identical = SameResults(compiled, jit);
      all_identical = all_identical && identical;

      std::printf("%-12s %9.0f | %11.1f %11.1f | %11.0f %11.0f |",
                  std::string(SocketPolicyName(policy)).c_str(), load,
                  native.p99_us, compiled.p99_us, native.throughput_rps,
                  compiled.throughput_rps);
      if (!quick) {
        // Wall-clock slowdown of each bytecode tier over the native mirror
        // (1.00x = as cheap as the C++ mirror).
        const double base = wall[0].Best();
        std::printf(" %6.2fx %6.2fx |", wall[1].Best() / base,
                    wall[2].Best() / base);
      }
      std::printf(" %5s\n", identical ? "yes" : "NO");
    }
  }
  std::printf(
      "%s# ident: both bytecode tiers produced bit-identical results.\n",
      quick ? "" : "# compld/jit: simulation wall-clock vs the native mirror "
                   "per tier, best of 3 interleaved runs each.\n");
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
