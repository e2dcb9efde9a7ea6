// Regenerates paper Figure 8: cross-layer scheduling (§5.3).
//
// RocksDB with 50% GET / 50% SCAN, 36 threads sharing 6 cores. Variants:
//   scan_avoid      — SCAN Avoid at the Socket Select hook, Linux-default
//                     (CFS) thread scheduling.
//   thread_sched    — GET-priority policy at the Thread Scheduler hook via
//                     ghOSt (one core reserved for the agent), default
//                     socket selection.
//   both            — the two policies deployed together, communicating
//                     through Syrup Maps.
//
//   (a) GET 99% latency vs load    (b) SCAN 99% latency vs load
#include <cstdio>

#include "src/apps/experiments.h"

namespace syrup {
namespace {

RocksDbResult RunVariant(SocketPolicyKind socket_policy,
                         ThreadSchedKind thread_sched, double load) {
  RocksDbExperimentConfig config;
  config.socket_policy = socket_policy;
  config.thread_sched = thread_sched;
  config.get_fraction = 0.5;
  config.num_threads = 36;
  config.num_cores = 6;
  config.load_rps = load;
  config.exec_mode = bpf::ExecMode::kNative;
  config.measure = 1 * kSecond;
  config.seed = 4;
  return RunRocksDbExperiment(config);
}

void Run() {
  std::printf(
      "# Figure 8: RocksDB 50%% GET / 50%% SCAN, 36 threads on 6 cores\n");
  std::printf("%9s | %11s %11s %11s | %11s %11s %11s\n", "load_rps",
              "sa_get_p99", "ts_get_p99", "both_get", "sa_scan_p99",
              "ts_scan_p99", "both_scan");
  for (double load = 2'000; load <= 14'000; load += 2'000) {
    const RocksDbResult scan_avoid =
        RunVariant(SocketPolicyKind::kScanAvoid, ThreadSchedKind::kCfs, load);
    const RocksDbResult thread_sched = RunVariant(
        SocketPolicyKind::kVanilla, ThreadSchedKind::kGhostGetPriority, load);
    const RocksDbResult both = RunVariant(
        SocketPolicyKind::kScanAvoid, ThreadSchedKind::kGhostGetPriority,
        load);
    std::printf("%9.0f | %11.1f %11.1f %11.1f | %11.1f %11.1f %11.1f\n",
                load, scan_avoid.p99_get_us, thread_sched.p99_get_us,
                both.p99_get_us, scan_avoid.p99_scan_us,
                thread_sched.p99_scan_us, both.p99_scan_us);
  }
  std::printf(
      "# Expected shape (paper): thread-sched-only GET p99 high (>800us) "
      "even at low load\n"
      "# (socket HoL blocking); SCAN-Avoid-only explodes by ~6k (CFS blind "
      "to GETs); combined\n"
      "# sustains the highest load before exploding, but its SCAN capacity "
      "is slightly lower\n"
      "# because one core is reserved for the ghOSt agent.\n");
}

}  // namespace
}  // namespace syrup

int main() {
  syrup::Run();
  return 0;
}
