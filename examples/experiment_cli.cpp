// Experiment CLI: run any RocksDB-style experiment from the command line.
//
// Usage:
//   experiment_cli [--policy vanilla|rr|scan_avoid|sita]
//                  [--sched pinned|cfs|ghost]
//                  [--load RPS] [--get-fraction F] [--threads N] [--cores N]
//                  [--seconds S] [--seed S] [--bytecode] [--late-binding]
//                  [--stats-json]
//                  [--shards N] [--lookahead-us US] [--pin]
//                  [--cross-traffic F]
//
// --stats-json additionally prints the daemon's full metrics snapshot
// (Syrupd::StatsSnapshot(), docs/OBSERVABILITY.md schema) after the run.
//
// --shards N runs the experiment on the sharded parallel engine
// (src/sim/sharded.h): N replicated hosts, one per thread, with
// --cross-traffic of each shard's load served east-west by the next shard.
// --shards 1 is bit-identical to the default single-engine run.
// --lookahead-us sets the conservative sync window; --pin pins the worker
// threads to CPUs (shard 0 runs on the calling thread, left unpinned).
//
// Examples:
//   experiment_cli --policy sita --load 250000 --get-fraction 0.995
//   experiment_cli --policy scan_avoid --sched ghost --threads 36 --cores 6 \
//                  --get-fraction 0.5 --load 8000
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/apps/experiments.h"

namespace {

using namespace syrup;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--policy vanilla|rr|scan_avoid|sita] "
               "[--sched pinned|cfs|ghost]\n"
               "          [--load RPS] [--get-fraction F] [--threads N] "
               "[--cores N]\n"
               "          [--seconds S] [--seed S] [--bytecode] "
               "[--late-binding] [--stats-json]\n"
               "          [--shards N] [--lookahead-us US] [--pin] "
               "[--cross-traffic F]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RocksDbExperimentConfig config;
  config.load_rps = 200'000;
  bool stats_json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--policy") {
      const std::string value = next();
      if (value == "vanilla") {
        config.socket_policy = SocketPolicyKind::kVanilla;
      } else if (value == "rr") {
        config.socket_policy = SocketPolicyKind::kRoundRobin;
      } else if (value == "scan_avoid") {
        config.socket_policy = SocketPolicyKind::kScanAvoid;
      } else if (value == "sita") {
        config.socket_policy = SocketPolicyKind::kSita;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--sched") {
      const std::string value = next();
      if (value == "pinned") {
        config.thread_sched = ThreadSchedKind::kPinned;
      } else if (value == "cfs") {
        config.thread_sched = ThreadSchedKind::kCfs;
      } else if (value == "ghost") {
        config.thread_sched = ThreadSchedKind::kGhostGetPriority;
      } else {
        Usage(argv[0]);
      }
    } else if (arg == "--load") {
      config.load_rps = std::atof(next());
    } else if (arg == "--get-fraction") {
      config.get_fraction = std::atof(next());
    } else if (arg == "--threads") {
      config.num_threads = std::atoi(next());
    } else if (arg == "--cores") {
      config.num_cores = std::atoi(next());
    } else if (arg == "--seconds") {
      config.measure = static_cast<Duration>(std::atof(next()) *
                                             static_cast<double>(kSecond));
    } else if (arg == "--seed") {
      config.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--bytecode") {
      config.use_bytecode = true;
    } else if (arg == "--late-binding") {
      config.late_binding = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else if (arg == "--shards") {
      config.sharding.sim.shards = std::atoi(next());
    } else if (arg == "--lookahead-us") {
      config.sharding.sim.lookahead = static_cast<Duration>(
          std::atof(next()) * static_cast<double>(kMicrosecond));
    } else if (arg == "--pin") {
      config.sharding.sim.pinning = true;
    } else if (arg == "--cross-traffic") {
      config.sharding.cross_traffic = std::atof(next());
    } else {
      Usage(argv[0]);
    }
  }

  std::printf("policy=%s sched=%s load=%.0f get_fraction=%.3f threads=%d "
              "cores=%d%s%s\n",
              std::string(SocketPolicyName(config.socket_policy)).c_str(),
              config.thread_sched == ThreadSchedKind::kPinned  ? "pinned"
              : config.thread_sched == ThreadSchedKind::kCfs   ? "cfs"
                                                               : "ghost",
              config.load_rps, config.get_fraction, config.num_threads,
              config.num_cores, config.use_bytecode ? " [bytecode]" : "",
              config.late_binding ? " [late-binding]" : "");
  if (config.sharding.sim.shards >= 1) {
    std::printf("shards=%d lookahead=%.1fus pin=%d cross_traffic=%.3f\n",
                config.sharding.sim.shards,
                static_cast<double>(config.sharding.sim.lookahead) / 1000.0,
                config.sharding.sim.pinning ? 1 : 0,
                config.sharding.cross_traffic);
  }

  const RocksDbResult result = RunRocksDbExperiment(config);
  std::printf("throughput : %10.0f rps\n", result.throughput_rps);
  std::printf("p50        : %10.1f us\n", result.p50_us);
  std::printf("p99        : %10.1f us\n", result.p99_us);
  std::printf("p99 (GET)  : %10.1f us\n", result.p99_get_us);
  if (config.get_fraction < 1.0) {
    std::printf("p99 (SCAN) : %10.1f us\n", result.p99_scan_us);
  }
  std::printf("drops      : %10.3f %%\n", result.drop_fraction * 100);
  if (stats_json) {
    std::printf("%s\n", result.stats_json.c_str());
  }
  return 0;
}
