// Experiment CLI: run any RocksDB-style experiment from the command line.
// The chosen policies deploy as verified bytecode through the host's
// syrupd, on its default (compiled) tier.
//
// Usage:
//   experiment_cli [--policy vanilla|rr|scan_avoid|sita]
//                  [--sched pinned|cfs|ghost]
//                  [--load RPS] [--get-fraction F] [--threads N] [--cores N]
//                  [--seconds S] [--seed S] [--late-binding]
//                  [--stats-json]
//                  [--shards N] [--lookahead-us US] [--pin]
//                  [--cross-traffic F]
//
// --stats-json additionally prints the daemon's full metrics snapshot
// (Syrupd::StatsSnapshot(), docs/OBSERVABILITY.md schema) after the run.
//
// --shards N runs the experiment on N shards of the parallel engine
// (src/sim/sharded.h): N replicated hosts, one per thread, with
// --cross-traffic (0..1) of each shard's load served east-west by the next
// shard over a 5 us link. The default, --shards 1, runs the one host inline
// on the calling thread. Each shard promises the engine when its next
// east-west packet leaves, so sync windows span the gaps between those
// packets; --lookahead-us only sets the Post floor of a sender without such
// a promise (> 0, and at most the 5 us link while east-west traffic flows).
// --pin pins the worker threads to CPUs (shard 0 runs on the calling
// thread, left unpinned). A bad value for any of these exits 2 with a
// message naming the flag. With --shards > 1 the run also prints its sync
// rounds and cross-shard messages per offered request.
//
// Examples:
//   experiment_cli --policy sita --load 250000 --get-fraction 0.995
//   experiment_cli --policy scan_avoid --sched ghost --threads 36 --cores 6 \
//                  --get-fraction 0.5 --load 8000
#include <cerrno>
#include <cmath>
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
               "          [--seconds S] [--seed S] [--late-binding] "
               "[--stats-json]\n"
               "          [--shards N] [--lookahead-us US] [--pin] "
               "[--cross-traffic F]\n",
               argv0);
  std::exit(2);
}

// Parses a flag's whole value as a number in [lo, hi] (an integer when
// `integer`); anything else, "2x" and "abc" included, exits 2 with a
// message naming the flag.
double FlagValue(const char* argv0, const char* flag, const char* text,
                 double lo, double hi, bool integer) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 ||
      !(value >= lo && value <= hi) ||
      (integer && value != std::floor(value))) {
    std::fprintf(stderr, "%s: %s must be %s in [%g, %g], got '%s'\n", argv0,
                 flag, integer ? "an integer" : "a number", lo, hi, text);
    Usage(argv0);
  }
  return value;
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
    } else if (arg == "--late-binding") {
      config.late_binding = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else if (arg == "--shards") {
      // Every shard runs a complete host on its own thread with a channel
      // to every other shard; the cap keeps that far from exhausting memory.
      config.sharding.sim.shards = static_cast<int>(
          FlagValue(argv[0], "--shards", next(), 1, 256, /*integer=*/true));
    } else if (arg == "--lookahead-us") {
      // At least 1 ns; the cap keeps the conversion to ns in range.
      config.sharding.sim.lookahead = static_cast<Duration>(
          FlagValue(argv[0], "--lookahead-us", next(), 0.001, 1e9,
                    /*integer=*/false) *
          static_cast<double>(kMicrosecond));
    } else if (arg == "--pin") {
      config.sharding.sim.pinning = true;
    } else if (arg == "--cross-traffic") {
      config.sharding.cross_traffic = FlagValue(
          argv[0], "--cross-traffic", next(), 0, 1, /*integer=*/false);
    } else {
      Usage(argv[0]);
    }
  }

  const ExperimentShardingConfig& sharding = config.sharding;
  if (sharding.sim.shards > 1 && sharding.cross_traffic > 0.0 &&
      sharding.sim.lookahead > sharding.cross_link_latency) {
    std::fprintf(stderr,
                 "%s: --lookahead-us must not exceed the %g us east-west "
                 "link latency while --cross-traffic is > 0, got %g\n",
                 argv[0],
                 static_cast<double>(sharding.cross_link_latency) / 1000.0,
                 static_cast<double>(sharding.sim.lookahead) / 1000.0);
    Usage(argv[0]);
  }

  std::printf("policy=%s sched=%s load=%.0f get_fraction=%.3f threads=%d "
              "cores=%d%s\n",
              std::string(SocketPolicyName(config.socket_policy)).c_str(),
              config.thread_sched == ThreadSchedKind::kPinned  ? "pinned"
              : config.thread_sched == ThreadSchedKind::kCfs   ? "cfs"
                                                               : "ghost",
              config.load_rps, config.get_fraction, config.num_threads,
              config.num_cores,
              config.late_binding ? " [late-binding]" : "");

  const RocksDbResult result = RunRocksDbExperiment(config);
  if (sharding.sim.shards > 1) {
    // Sync cost of the parallel engine, per request offered over the run.
    const double offered =
        result.load_rps * ToSeconds(config.warmup + config.measure);
    std::printf("shards=%d pin=%d cross_traffic=%.3f rounds/req=%.4f "
                "msgs/req=%.4f\n",
                sharding.sim.shards, sharding.sim.pinning ? 1 : 0,
                sharding.cross_traffic,
                static_cast<double>(result.sim_stats.rounds) / offered,
                static_cast<double>(result.sim_stats.messages) / offered);
  }
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
