// Regenerates paper Figure 6: RocksDB serving 99.5% GET / 0.5% SCAN on 6
// cores under four socket-selection policies: Vanilla Linux (5-tuple hash),
// Round Robin (Fig. 5a), SCAN Avoid (Fig. 5b/5c), and SITA (Fig. 5d).
// Reports client-observed 99% latency vs offered load.
#include <cstdio>

#include "src/apps/experiments.h"

namespace syrup {
namespace {

double P99At(SocketPolicyKind policy, double load) {
  RocksDbExperimentConfig config;
  config.socket_policy = policy;
  config.get_fraction = 0.995;
  config.load_rps = load;
  config.exec_mode = bpf::ExecMode::kNative;
  config.measure = 800 * kMillisecond;
  config.seed = 3;
  return RunRocksDbExperiment(config).p99_us;
}

void Run() {
  std::printf("# Figure 6: RocksDB 99.5%% GET / 0.5%% SCAN, 6 threads\n");
  std::printf("# 99%% latency (us) vs load\n");
  std::printf("%10s %12s %12s %12s %12s\n", "load_rps", "vanilla",
              "round_robin", "scan_avoid", "sita");
  for (double load = 25'000; load <= 400'000; load += 25'000) {
    std::printf("%10.0f %12.1f %12.1f %12.1f %12.1f\n", load,
                P99At(SocketPolicyKind::kVanilla, load),
                P99At(SocketPolicyKind::kRoundRobin, load),
                P99At(SocketPolicyKind::kScanAvoid, load),
                P99At(SocketPolicyKind::kSita, load));
  }
  std::printf(
      "# Expected shape (paper): vanilla/RR SCAN-dominated (>500us) at all "
      "loads; SCAN Avoid\n"
      "# <150us to ~150k then degrades; SITA <150us to ~310k (8x and >16x "
      "better than vanilla).\n");
}

}  // namespace
}  // namespace syrup

int main() {
  syrup::Run();
  return 0;
}
