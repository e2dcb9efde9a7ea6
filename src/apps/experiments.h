// Experiment harness: wires simulator + stack + syrupd + policies + servers
// + load generators for each of the paper's evaluation scenarios. One
// function per experiment family; the bench binaries sweep these over load
// and print the paper's rows, and integration tests assert the headline
// shapes (who wins, where the crossovers are).
#ifndef SYRUP_SRC_APPS_EXPERIMENTS_H_
#define SYRUP_SRC_APPS_EXPERIMENTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/mica_server.h"
#include "src/bpf/compiler.h"
#include "src/common/time.h"
#include "src/core/flow_cache.h"
#include "src/sim/sharded.h"

namespace syrup {

// --- Sharded parallel runs ---------------------------------------------------
//
// Every experiment runs on a ShardedSim: shard 0 hosts the original
// topology and shards 1..N-1 host replicas (weak scaling — each shard runs
// the configured load against its own complete host), with per-shard seeds
// derived so shard 0 keeps the configured seed. The default, sim.shards == 1,
// runs that one host inline on the calling thread. With shards > 1,
// `cross_traffic` of each shard's requests is generated east-west: the
// packet enters the next shard's stack through the inter-shard channels
// after `cross_link_latency` (which must be >= sim.lookahead). Each shard
// promises the engine when its next east-west packet can leave, so a sync
// window spans the gap between two such packets; sim.lookahead only floors
// the sends of a sender without that promise. Reported results aggregate
// all shards deterministically (histograms merged in shard order).
struct ExperimentShardingConfig {
  ShardedSimConfig sim;
  double cross_traffic = 0.05;  // east-west fraction, shards > 1 only
  Duration cross_link_latency = 5 * kMicrosecond;
};

// Socket-select policies of §5.2 (Fig. 2 / Fig. 6).
enum class SocketPolicyKind {
  kVanilla,     // no Syrup policy: kernel 5-tuple hash
  kRoundRobin,  // Fig. 5a
  kScanAvoid,   // Fig. 5c (+5b userspace half)
  kSita,        // Fig. 5d
};

std::string_view SocketPolicyName(SocketPolicyKind kind);

// Thread scheduling variants of §5.3 (Fig. 8).
enum class ThreadSchedKind {
  kPinned,            // 1:1 threads:cores (Figs. 2/6/7/9)
  kCfs,               // Linux-default baseline for shared cores
  kGhostGetPriority,  // Syrup policy deployed via ghOSt
};

struct RocksDbExperimentConfig {
  SocketPolicyKind socket_policy = SocketPolicyKind::kVanilla;
  ThreadSchedKind thread_sched = ThreadSchedKind::kPinned;
  // Deploy the bytecode policy file through syrupd instead of the native
  // mirror (slower to simulate; used by the ablation bench and tests).
  bool use_bytecode = false;
  // Execution tier for bytecode deployments (ignored without use_bytecode).
  bpf::ExecMode exec_mode = bpf::ExecMode::kCompiled;
  // Flow-decision cache (src/core/flow_cache.h). Cacheable policies are
  // pure, so results are bit-identical either way (asserted by
  // tests/flow_cache_differential_test.cc); disabling
  // (flow_cache_config.enabled = false) is the ablation.
  FlowCacheConfig flow_cache_config;
  // Late binding at the socket layer (paper §6.3 extension): buffer
  // datagrams centrally and match them to sockets whose worker is idle.
  bool late_binding = false;
  // CPU Redirect spray policy: round-robin protocol processing across
  // softirq cores (work-conserving but affinity-destroying; the §2.1
  // RFS tension). Used with protocol_cold_penalty > 0.
  bool cpu_redirect_spray = false;
  Duration protocol_cold_penalty = 0;
  double flow_skew = 0.0;

  int num_threads = 6;
  int num_cores = 6;
  double load_rps = 100'000;   // per shard
  double get_fraction = 1.0;   // remainder are SCANs
  uint32_t num_flows = 50;
  Duration warmup = 200 * kMillisecond;
  Duration measure = 1 * kSecond;
  uint64_t seed = 1;
  ExperimentShardingConfig sharding;
};

struct RocksDbResult {
  double load_rps = 0;
  double throughput_rps = 0;
  double p50_us = 0;
  double p99_us = 0;        // overall
  double p99_get_us = 0;
  double p99_scan_us = 0;
  double drop_fraction = 0;  // of generated requests
  double get_throughput_rps = 0;
  double scan_throughput_rps = 0;
  // The engine's counters over the whole run (warm-up and drain included):
  // sync rounds, cross-shard messages, events, full-channel waits.
  ShardedSim::Stats sim_stats;
  // Full Syrupd::StatsSnapshot() of the run, rendered to JSON
  // (docs/OBSERVABILITY.md schema). `experiment_cli --stats-json` prints it.
  std::string stats_json;
};

RocksDbResult RunRocksDbExperiment(const RocksDbExperimentConfig& config);

// --- Fig. 7: token-based QoS ------------------------------------------------

struct TokenQosConfig {
  double ls_load_rps = 100'000;
  double be_load_rps = 300'000;
  bool token_policy = true;  // false = plain round robin (the comparison)
  double token_rate_per_sec = 350'000;
  Duration epoch = 100 * kMicrosecond;
  int num_threads = 6;
  Duration warmup = 200 * kMillisecond;
  Duration measure = 1 * kSecond;
  uint64_t seed = 1;
};

struct TokenQosResult {
  double ls_load_rps = 0;
  double be_load_rps = 0;
  double ls_throughput_rps = 0;
  double be_throughput_rps = 0;
  double ls_p99_us = 0;
  double be_p99_us = 0;
  std::string stats_json;  // Syrupd::StatsSnapshot() of the run, as JSON
};

TokenQosResult RunTokenQosExperiment(const TokenQosConfig& config);

// --- Fig. 9: MICA across hooks ----------------------------------------------

struct MicaExperimentConfig {
  MicaVariant variant = MicaVariant::kSwRedirect;
  double load_rps = 1'000'000;
  double get_fraction = 0.95;  // remainder are PUTs
  int num_threads = 8;
  bool use_bytecode = false;
  // Execution tier for bytecode deployments (ignored without use_bytecode).
  bpf::ExecMode exec_mode = bpf::ExecMode::kCompiled;
  // Flow-decision cache knobs (see RocksDbExperimentConfig).
  FlowCacheConfig flow_cache_config;
  Duration warmup = 100 * kMillisecond;
  Duration measure = 500 * kMillisecond;
  uint64_t seed = 1;
  ExperimentShardingConfig sharding;
};

struct MicaResult {
  double load_rps = 0;
  double throughput_rps = 0;
  double p999_us = 0;
  double p50_us = 0;
  double drop_fraction = 0;
  uint64_t redirected = 0;
  ShardedSim::Stats sim_stats;  // see RocksDbResult::sim_stats
  std::string stats_json;  // Syrupd::StatsSnapshot() of the run, as JSON
};

MicaResult RunMicaExperiment(const MicaExperimentConfig& config);

}  // namespace syrup

#endif  // SYRUP_SRC_APPS_EXPERIMENTS_H_
