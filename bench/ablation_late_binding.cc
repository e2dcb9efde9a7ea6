// Ablation (DESIGN.md #2, paper §6.3): early vs late binding at the socket
// layer, on the Fig. 6 workload (99.5% GET / 0.5% SCAN).
//
// Early binding assigns a datagram to a socket on arrival — the Linux
// reality Syrup works within, which every Fig. 6 policy must compensate
// for. Late binding buffers datagrams centrally and matches one only when
// a worker is actually idle (single-queue, multi-server): head-of-line
// blocking largely disappears even with NO policy, at the cost of
// scheduler-side buffering the Linux UDP stack doesn't have.
#include <cstdio>

#include "src/apps/experiments.h"

namespace syrup {
namespace {

double P99(SocketPolicyKind policy, bool late, double load) {
  RocksDbExperimentConfig config;
  config.socket_policy = policy;
  config.late_binding = late;
  config.get_fraction = 0.995;
  config.load_rps = load;
  config.exec_mode = bpf::ExecMode::kNative;
  config.measure = 600 * kMillisecond;
  config.seed = 9;
  return RunRocksDbExperiment(config).p99_us;
}

void Run() {
  std::printf("# Ablation: early vs late binding, RocksDB 99.5%% GET / "
              "0.5%% SCAN, 6 threads\n");
  std::printf("# p99 latency (us)\n");
  std::printf("%10s | %13s %13s %13s | %13s %13s\n", "load_rps",
              "early_vanilla", "early_scanavd", "early_sita", "late_vanilla",
              "late_sita");
  for (double load = 50'000; load <= 350'000; load += 50'000) {
    std::printf("%10.0f | %13.1f %13.1f %13.1f | %13.1f %13.1f\n", load,
                P99(SocketPolicyKind::kVanilla, false, load),
                P99(SocketPolicyKind::kScanAvoid, false, load),
                P99(SocketPolicyKind::kSita, false, load),
                P99(SocketPolicyKind::kVanilla, true, load),
                P99(SocketPolicyKind::kSita, true, load));
  }
  std::printf(
      "# Expectation: late binding with NO policy rivals the best early-"
      "binding policies\n"
      "# (single shared queue removes socket-level HoL blocking), "
      "supporting the paper's\n"
      "# argument that early binding is why SCAN Avoid / SITA are needed "
      "at this layer.\n");
}

}  // namespace
}  // namespace syrup

int main() {
  syrup::Run();
  return 0;
}
