// Pinned experiment digests: the fig2/fig9 experiment pipelines must keep
// reproducing, bit for bit, the results recorded under the original heap
// engine (tests/oracles/reference_simulator.h), which the timing wheel
// matched exactly; the fig8 ones, the results recorded before the ghOSt
// agent memoized thread classes. The SCAN Avoid digests of the fig2 config
// were recorded by the parent of the change that made bytecode the only
// policy form, running its bytecode path: SCAN Avoid draws its probes from
// syrupd's get_prandom_u32 stream (Rng(seed)), where the retired C++
// mirror drew from Rng(seed ^ 0x5caf00d). Determinism is contractual (same seed => same
// execution), so every numeric result — throughputs, latency percentiles,
// drop fractions — is compared exactly, as a hex float. `stats_json` is
// deliberately excluded: it embeds wall-clock compile-time gauges that
// differ between any two runs.
#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "src/apps/experiments.h"

namespace syrup {
namespace {

RocksDbExperimentConfig SmallRocksDbConfig() {
  RocksDbExperimentConfig config;
  config.socket_policy = SocketPolicyKind::kScanAvoid;
  config.load_rps = 60'000;
  config.get_fraction = 0.995;
  config.warmup = 50 * kMillisecond;
  config.measure = 200 * kMillisecond;
  config.seed = 7;
  return config;
}

MicaExperimentConfig SmallMicaConfig() {
  MicaExperimentConfig config;
  config.variant = MicaVariant::kSwRedirect;  // exercises ForwardToHome
  config.load_rps = 400'000;
  config.warmup = 50 * kMillisecond;
  config.measure = 200 * kMillisecond;
  config.seed = 7;
  return config;
}

TEST(EngineDifferential, Fig2RocksDbMatchesReferenceDigest) {
  const RocksDbResult r = RunRocksDbExperiment(SmallRocksDbConfig());
  EXPECT_EQ(r.load_rps, 60'000.0);
  EXPECT_EQ(r.throughput_rps, 0x1.dc7cp+15);
  EXPECT_EQ(r.p50_us, 0x1.a9f7ced916873p+4);
  EXPECT_EQ(r.p99_us, 0x1.8104189374bc7p+5);
  EXPECT_EQ(r.p99_get_us, 0x1.4fdd2f1a9fbe7p+5);
  EXPECT_EQ(r.p99_scan_us, 0x1.6ef2b020c49bap+9);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.get_throughput_rps, 0x1.d9a2p+15);
  EXPECT_EQ(r.scan_throughput_rps, 0x1.6dp+8);
}

TEST(EngineDifferential, Fig9MicaMatchesReferenceDigest) {
  const MicaResult r = RunMicaExperiment(SmallMicaConfig());
  EXPECT_EQ(r.load_rps, 400'000.0);
  EXPECT_EQ(r.throughput_rps, 0x1.86f64p+18);
  EXPECT_EQ(r.p50_us, 0x1.0e51eb851eb85p+4);
  EXPECT_EQ(r.p999_us, 0x1.a9f7ced916873p+4);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.redirected, 70183u);
}

TEST(EngineDifferential, Fig9MicaSyrupSwMatchesReferenceDigest) {
  MicaExperimentConfig config = SmallMicaConfig();
  config.variant = MicaVariant::kSyrupSw;  // AF_XDP delivery path
  const MicaResult r = RunMicaExperiment(config);
  EXPECT_EQ(r.load_rps, 400'000.0);
  EXPECT_EQ(r.throughput_rps, 0x1.86f64p+18);
  EXPECT_EQ(r.p50_us, 0x1.cab851eb851ecp+3);
  EXPECT_EQ(r.p999_us, 0x1.47a9fbe76c8b4p+4);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.redirected, 0u);
}

// --- Sharded engine (src/sim/sharded.h) -------------------------------------
//
// The pinned digests above run at the default shards=1. For a fixed shard
// count > 1, a run must be bit-deterministic across repeats — the
// (when, src_shard, seq) drain order erases any physical thread timing —
// and must not depend on where the sync windows end. The digests below
// were recorded with every window ending at T + lookahead, before shards
// announced output bounds; windows now end just before the next promised
// east-west send, so a staged message and a local event at the same
// nanosecond would change order if staging were not window-invariant.

RocksDbExperimentConfig ShardedRocksDbConfig(int shards) {
  RocksDbExperimentConfig config = SmallRocksDbConfig();
  config.sharding.sim.shards = shards;
  return config;
}

MicaExperimentConfig ShardedMicaConfig(int shards) {
  MicaExperimentConfig config = SmallMicaConfig();
  config.sharding.sim.shards = shards;
  return config;
}

TEST(ShardedDifferential, Fig2TwoShardsMatchesParentDigest) {
  const RocksDbResult r = RunRocksDbExperiment(ShardedRocksDbConfig(2));
  EXPECT_EQ(r.load_rps, 0x1.d4cp+16);
  EXPECT_EQ(r.throughput_rps, 0x1.d74ap+16);
  EXPECT_EQ(r.p50_us, 0x1.a9f7ced916873p+4);
  EXPECT_EQ(r.p99_us, 0x1.78d2f1a9fbe77p+5);
  EXPECT_EQ(r.p99_get_us, 0x1.580e560418937p+5);
  EXPECT_EQ(r.p99_scan_us, 0x1.6f7604189374cp+9);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.get_throughput_rps, 0x1.d4c5p+16);
  EXPECT_EQ(r.scan_throughput_rps, 0x1.428p+9);
}

TEST(ShardedDifferential, Fig2FourShardsMatchesParentDigest) {
  const RocksDbResult r = RunRocksDbExperiment(ShardedRocksDbConfig(4));
  EXPECT_EQ(r.load_rps, 0x1.d4cp+17);
  EXPECT_EQ(r.throughput_rps, 0x1.d515p+17);
  EXPECT_EQ(r.p50_us, 0x1.a9f7ced916873p+4);
  EXPECT_EQ(r.p99_us, 0x1.78d2f1a9fbe77p+5);
  EXPECT_EQ(r.p99_get_us, 0x1.580e560418937p+5);
  EXPECT_EQ(r.p99_scan_us, 0x1.6f4f7ced91687p+9);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.get_throughput_rps, 0x1.d29ap+17);
  EXPECT_EQ(r.scan_throughput_rps, 0x1.3d8p+10);
}

TEST(ShardedDifferential, Fig2FourShardsNoCrossTrafficMatchesParentDigest) {
  // No east-west sends: every shard promises never to post, so each Run*
  // call is one window.
  RocksDbExperimentConfig config = ShardedRocksDbConfig(4);
  config.sharding.cross_traffic = 0;
  const RocksDbResult r = RunRocksDbExperiment(config);
  EXPECT_EQ(r.load_rps, 0x1.d4cp+17);
  EXPECT_EQ(r.throughput_rps, 0x1.d5128p+17);
  EXPECT_EQ(r.p50_us, 0x1.a9f7ced916873p+4);
  EXPECT_EQ(r.p99_us, 0x1.70a1cac083127p+5);
  EXPECT_EQ(r.p99_get_us, 0x1.47ac083126e98p+5);
  EXPECT_EQ(r.p99_scan_us, 0x1.70a3b645a1cacp+9);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.get_throughput_rps, 0x1.d2978p+17);
  EXPECT_EQ(r.scan_throughput_rps, 0x1.3d8p+10);
  EXPECT_EQ(r.sim_stats.messages, 0u);
  EXPECT_EQ(r.sim_stats.rounds, 2u);
}

TEST(ShardedDifferential, Fig9TwoShardsMatchesParentDigest) {
  const MicaResult r = RunMicaExperiment(ShardedMicaConfig(2));
  EXPECT_EQ(r.load_rps, 0x1.86ap+19);
  EXPECT_EQ(r.throughput_rps, 0x1.86578p+19);
  EXPECT_EQ(r.p50_us, 0x1.0e51eb851eb85p+4);
  EXPECT_EQ(r.p999_us, 0x1.b228f5c28f5c3p+4);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.redirected, 139983u);
}

TEST(ShardedDifferential, Fig9FourShardsMatchesParentDigest) {
  const MicaResult r = RunMicaExperiment(ShardedMicaConfig(4));
  EXPECT_EQ(r.load_rps, 0x1.86ap+20);
  EXPECT_EQ(r.throughput_rps, 0x1.87b67p+20);
  EXPECT_EQ(r.p50_us, 0x1.0e51eb851eb85p+4);
  EXPECT_EQ(r.p999_us, 0x1.b228f5c28f5c3p+4);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.redirected, 280906u);
}

TEST(ShardedDifferential, Fig2TwoShardsSyncsRarely) {
  // Only ~4% of requests go east-west, and each shard promises when its
  // next one leaves, so the shards sync about once per east-west packet.
  // Windows of one lookahead took 1.83 rounds per offered request here.
  // Counts repeat exactly, so this bound is immune to host speed.
  const RocksDbExperimentConfig config = ShardedRocksDbConfig(2);
  const RocksDbResult r = RunRocksDbExperiment(config);
  const double offered =
      r.load_rps * ToSeconds(config.warmup + config.measure);
  EXPECT_GT(r.sim_stats.messages, 0u);
  EXPECT_LT(static_cast<double>(r.sim_stats.rounds) / offered, 0.1)
      << r.sim_stats.rounds << " rounds for " << offered << " requests";
}

void ExpectSameRocksDb(const RocksDbResult& a, const RocksDbResult& b) {
  EXPECT_EQ(a.load_rps, b.load_rps);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.p99_get_us, b.p99_get_us);
  EXPECT_EQ(a.p99_scan_us, b.p99_scan_us);
  EXPECT_EQ(a.drop_fraction, b.drop_fraction);
  EXPECT_EQ(a.get_throughput_rps, b.get_throughput_rps);
  EXPECT_EQ(a.scan_throughput_rps, b.scan_throughput_rps);
}

void ExpectSameMica(const MicaResult& a, const MicaResult& b) {
  EXPECT_EQ(a.load_rps, b.load_rps);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p999_us, b.p999_us);
  EXPECT_EQ(a.drop_fraction, b.drop_fraction);
  EXPECT_EQ(a.redirected, b.redirected);
}

TEST(ShardedDifferential, Fig2RocksDbFourShardsRepeatable) {
  RocksDbExperimentConfig config = SmallRocksDbConfig();
  config.load_rps = 30'000;
  config.measure = 100 * kMillisecond;
  config.sharding.sim.shards = 4;
  for (uint64_t seed : {7u, 11u, 42u}) {
    config.seed = seed;
    const RocksDbResult first = RunRocksDbExperiment(config);
    const RocksDbResult second = RunRocksDbExperiment(config);
    SCOPED_TRACE(seed);
    ExpectSameRocksDb(first, second);
  }
}

TEST(ShardedDifferential, Fig9MicaFourShardsRepeatable) {
  MicaExperimentConfig config = SmallMicaConfig();
  config.load_rps = 200'000;
  config.measure = 100 * kMillisecond;
  config.sharding.sim.shards = 4;
  for (uint64_t seed : {7u, 11u, 42u}) {
    config.seed = seed;
    const MicaResult first = RunMicaExperiment(config);
    const MicaResult second = RunMicaExperiment(config);
    SCOPED_TRACE(seed);
    ExpectSameMica(first, second);
  }
}

// --- ghOSt (Fig. 8) ----------------------------------------------------------
//
// The cross-layer pipeline: SCAN Avoid at Socket Select plus the bytecode
// GET-priority classifier driving the ghOSt agent. The digests were
// recorded before the agent memoized classes per pass, so they pin that
// the memo changes no decision.

RocksDbExperimentConfig SmallFig8Config(uint64_t seed) {
  RocksDbExperimentConfig config;
  config.socket_policy = SocketPolicyKind::kScanAvoid;
  config.thread_sched = ThreadSchedKind::kGhostGetPriority;
  config.get_fraction = 0.5;
  config.num_threads = 36;
  config.num_cores = 6;
  config.load_rps = 10'000;
  config.warmup = 100 * kMillisecond;
  config.measure = 1 * kSecond;
  config.seed = seed;
  return config;
}

TEST(GhostDifferential, Fig8BothSeed4MatchesParentDigest) {
  const RocksDbResult r = RunRocksDbExperiment(SmallFig8Config(4));
  EXPECT_EQ(r.load_rps, 10'000.0);
  EXPECT_EQ(r.throughput_rps, 0x1.383p+13);
  EXPECT_EQ(r.p50_us, 0x1.68728f5c28f5cp+9);
  EXPECT_EQ(r.p99_us, 0x1.cac072b020c4ap+10);
  EXPECT_EQ(r.p99_get_us, 0x1.020a3d70a3d71p+5);
  EXPECT_EQ(r.p99_scan_us, 0x1.0e55fbe76c8b4p+11);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.get_throughput_rps, 0x1.378p+12);
  EXPECT_EQ(r.scan_throughput_rps, 0x1.38ep+12);
}

TEST(GhostDifferential, Fig8BothSeed7MatchesParentDigest) {
  const RocksDbResult r = RunRocksDbExperiment(SmallFig8Config(7));
  EXPECT_EQ(r.load_rps, 10'000.0);
  EXPECT_EQ(r.throughput_rps, 0x1.3f2p+13);
  EXPECT_EQ(r.p50_us, 0x1.68728f5c28f5cp+9);
  EXPECT_EQ(r.p99_us, 0x1.b22cfdf3b645ap+10);
  EXPECT_EQ(r.p99_get_us, 0x1.020a3d70a3d71p+5);
  EXPECT_EQ(r.p99_scan_us, 0x1.fbe75c28f5c29p+10);
  EXPECT_EQ(r.drop_fraction, 0.0);
  EXPECT_EQ(r.get_throughput_rps, 0x1.3b3p+12);
  EXPECT_EQ(r.scan_throughput_rps, 0x1.431p+12);
}

// Thread-hook classifier runs (policy.invocations under thread_scheduler)
// per offered request. The agent asks about the same waiter and the same
// running thread on every (waiter, core) pair of its preemption scan; a
// pure classifier answers each thread once per pass. Before the memo this
// config read ~22 runs per request. Counts repeat exactly, so the bound is
// immune to host speed.
TEST(GhostDifferential, Fig8ClassifiesEachThreadOncePerPass) {
  const RocksDbExperimentConfig config = SmallFig8Config(4);
  const RocksDbResult r = RunRocksDbExperiment(config);
  std::smatch match;
  ASSERT_TRUE(std::regex_search(
      r.stats_json, match,
      std::regex(R"("thread_scheduler":\{[\s\S]*?"policy\.invocations":)"
                 R"(\{\s*"type":\s*"counter",\s*"value":\s*(\d+))")))
      << r.stats_json;
  const double invocations = std::stod(match[1].str());
  const double offered =
      config.load_rps * ToSeconds(config.warmup + config.measure);
  EXPECT_LT(invocations / offered, 10.0)
      << invocations << " classifier runs for " << offered << " requests";
}

// With vanilla socket select the only Syrup policy is the thread
// classifier, so the bytecode GET-priority program must reproduce its C++
// mirror, GetPriorityGhostPolicy, bit for bit on every tier. The mirror
// no longer deploys; its digest was recorded by the parent of the change
// that retired it.
TEST(GhostDifferential, BytecodeGetPriorityMatchesNativeOnEveryTier) {
  RocksDbExperimentConfig config = SmallFig8Config(3);
  config.socket_policy = SocketPolicyKind::kVanilla;
  RocksDbResult mirror;
  mirror.load_rps = 10'000.0;
  mirror.throughput_rps = 0x1.38fp+13;
  mirror.p50_us = 0x1.68728f5c28f5cp+9;
  mirror.p99_us = 0x1.e353e76c8b439p+10;
  mirror.p99_get_us = 0x1.3f7cdd2f1a9fcp+10;
  mirror.p99_scan_us = 0x1.0e55fbe76c8b4p+11;
  mirror.drop_fraction = 0.0;
  mirror.get_throughput_rps = 0x1.3b6p+12;
  mirror.scan_throughput_rps = 0x1.368p+12;
  for (bpf::ExecMode mode :
       {bpf::ExecMode::kCompiled, bpf::ExecMode::kNative}) {
    config.exec_mode = mode;
    SCOPED_TRACE(bpf::ExecModeName(mode));
    ExpectSameRocksDb(RunRocksDbExperiment(config), mirror);
  }
}

}  // namespace
}  // namespace syrup
