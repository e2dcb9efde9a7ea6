// Differential test: the flow-decision cache must be invisible in results.
// Every experiment pipeline run with the cache on must reproduce the
// cache-off run bit-for-bit — cacheable policies are pure functions of
// (flow key, read-set map versions), so memoizing them may change only
// *when* a policy executes, never what the packet's decision is.
// `stats_json` is deliberately excluded: flow_cache.{hits,misses} and
// policy.invocations legitimately differ between the two runs (the
// native-tier test reads it only to confirm the deploy gate disengaged).
#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "src/apps/experiments.h"
#include "src/bpf/jit.h"
#include "src/sim/simulator.h"

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

void ExpectBitIdentical(const RocksDbResult& on, const RocksDbResult& off) {
  EXPECT_EQ(on.throughput_rps, off.throughput_rps);
  EXPECT_EQ(on.p50_us, off.p50_us);
  EXPECT_EQ(on.p99_us, off.p99_us);
  EXPECT_EQ(on.p99_get_us, off.p99_get_us);
  EXPECT_EQ(on.p99_scan_us, off.p99_scan_us);
  EXPECT_EQ(on.drop_fraction, off.drop_fraction);
  EXPECT_EQ(on.get_throughput_rps, off.get_throughput_rps);
  EXPECT_EQ(on.scan_throughput_rps, off.scan_throughput_rps);
}

void ExpectBitIdentical(const MicaResult& on, const MicaResult& off) {
  EXPECT_EQ(on.throughput_rps, off.throughput_rps);
  EXPECT_EQ(on.p50_us, off.p50_us);
  EXPECT_EQ(on.p999_us, off.p999_us);
  EXPECT_EQ(on.drop_fraction, off.drop_fraction);
  EXPECT_EQ(on.redirected, off.redirected);
}

// Fig. 2 pipeline. scan_avoid is *uncacheable* (random probing), so this
// asserts the transparent-fallback half of the contract: an uncacheable
// deployment behaves as if the cache did not exist.
TEST(FlowCacheDifferential, Fig2RocksDbBitExact) {
  RocksDbExperimentConfig config = SmallRocksDbConfig();
  config.use_bytecode = true;
  config.flow_cache_config.enabled = true;
  const RocksDbResult on = RunRocksDbExperiment(config);
  config.flow_cache_config.enabled = false;
  const RocksDbResult off = RunRocksDbExperiment(config);
  ExpectBitIdentical(on, off);
}

// Fig. 8 pipeline: packet hooks plus the ghOSt thread scheduler. Thread
// policies are never cacheable (no packet to key on); the packet side
// runs round robin, also uncacheable. The cache must stay out of the way
// of the cross-layer pipeline entirely.
TEST(FlowCacheDifferential, Fig8ThreadSchedBitExact) {
  RocksDbExperimentConfig config = SmallRocksDbConfig();
  config.socket_policy = SocketPolicyKind::kRoundRobin;
  config.thread_sched = ThreadSchedKind::kGhostGetPriority;
  config.num_threads = 4;
  config.num_cores = 2;
  config.flow_cache_config.enabled = true;
  const RocksDbResult on = RunRocksDbExperiment(config);
  config.flow_cache_config.enabled = false;
  const RocksDbResult off = RunRocksDbExperiment(config);
  ExpectBitIdentical(on, off);
}

// Fig. 9 pipeline with the bytecode MICA home policy — this one is
// cacheable (pure key-hash steering), so the cache-on run genuinely
// serves most packets from the cache while the cache-off run executes
// the policy every time. Decisions, and therefore every result number,
// must still be bit-identical.
TEST(FlowCacheDifferential, Fig9MicaCacheableBytecodeBitExact) {
  MicaExperimentConfig config;
  config.variant = MicaVariant::kSwRedirect;
  config.use_bytecode = true;
  config.load_rps = 400'000;
  config.warmup = 50 * kMillisecond;
  config.measure = 200 * kMillisecond;
  config.seed = 7;
  config.flow_cache_config.enabled = true;
  const MicaResult on = RunMicaExperiment(config);
  config.flow_cache_config.enabled = false;
  const MicaResult off = RunMicaExperiment(config);
  ExpectBitIdentical(on, off);
}

// Same, through the AF_XDP delivery variant (different hook wiring).
TEST(FlowCacheDifferential, Fig9MicaSyrupSwBitExact) {
  MicaExperimentConfig config;
  config.variant = MicaVariant::kSyrupSw;
  config.use_bytecode = true;
  config.load_rps = 400'000;
  config.warmup = 50 * kMillisecond;
  config.measure = 200 * kMillisecond;
  config.seed = 7;
  config.flow_cache_config.enabled = true;
  const MicaResult on = RunMicaExperiment(config);
  config.flow_cache_config.enabled = false;
  const MicaResult off = RunMicaExperiment(config);
  ExpectBitIdentical(on, off);
}

// The benchmark's Fig. 9 Syrup SW config: MicaHome on the native tier,
// where its priced worst case does not beat a warm probe, so the deploy
// gate leaves it uncached — bit-identical either way, with no hit, no miss
// and no table.
TEST(FlowCacheDifferential, Fig9MicaNativeTierGateDisengagesBitExact) {
  MicaExperimentConfig config;
  config.variant = MicaVariant::kSyrupSw;
  config.use_bytecode = true;
  config.exec_mode = bpf::ExecMode::kNative;
  config.load_rps = 400'000;
  config.warmup = 50 * kMillisecond;
  config.measure = 200 * kMillisecond;
  config.seed = 2;
  config.flow_cache_config.enabled = true;
  const MicaResult on = RunMicaExperiment(config);
  config.flow_cache_config.enabled = false;
  const MicaResult off = RunMicaExperiment(config);
  ExpectBitIdentical(on, off);
  if (!bpf::JitAvailable()) {
    GTEST_SKIP() << "JIT unavailable: the deployment ran compiled, cached";
  }
  const std::string value = R"(":\{"type":"\w+","value":)";
  EXPECT_TRUE(std::regex_search(
      on.stats_json, std::regex(R"("policy\.cacheable)" + value + "0")));
  const std::regex engaged(
      R"re("(policy\.cacheable|flow_cache\.(hits|misses|capacity)))re" + value +
      "[1-9]");
  EXPECT_FALSE(std::regex_search(on.stats_json, engaged)) << on.stats_json;
}

// Config variants must be equally invisible: a deliberately undersized
// table (64 slots for thousands of flows) with admission and adaptive
// sizing churning — constant evictions, rejections, and resizes — may only
// change hit rates, never a decision. This is the scale knobs' version of
// the transparency contract.
TEST(FlowCacheDifferential, Fig9MicaTinyAdaptiveAdmissionBitExact) {
  MicaExperimentConfig config;
  config.variant = MicaVariant::kSwRedirect;
  config.use_bytecode = true;
  config.load_rps = 400'000;
  config.warmup = 50 * kMillisecond;
  config.measure = 200 * kMillisecond;
  config.seed = 7;
  config.flow_cache_config.capacity = 64;
  config.flow_cache_config.admission = true;
  config.flow_cache_config.adaptive = true;
  config.flow_cache_config.enabled = true;
  const MicaResult churn = RunMicaExperiment(config);
  config.flow_cache_config.enabled = false;
  const MicaResult off = RunMicaExperiment(config);
  ExpectBitIdentical(churn, off);
}

// Admission alone on a fixed tiny table (rejects dominate: most flows are
// turned away and keep executing the policy) — still bit-identical.
TEST(FlowCacheDifferential, Fig2RocksDbTinyFixedAdmissionBitExact) {
  RocksDbExperimentConfig config = SmallRocksDbConfig();
  config.use_bytecode = true;
  config.flow_cache_config.capacity = 16;
  config.flow_cache_config.admission = true;
  config.flow_cache_config.adaptive = false;
  config.flow_cache_config.enabled = true;
  const RocksDbResult churn = RunRocksDbExperiment(config);
  config.flow_cache_config.enabled = false;
  const RocksDbResult off = RunRocksDbExperiment(config);
  ExpectBitIdentical(churn, off);
}

}  // namespace
}  // namespace syrup
