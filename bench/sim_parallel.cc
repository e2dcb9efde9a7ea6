// Sharded-simulation scaling: events/sec of the conservative-window engine
// (src/sim/sharded.h) at shards in {1, 2, 4, 8}, machine-readable.
//
// Weak scaling: every shard carries the same steady-state workload (512
// self-rescheduling tick chains, fixed events per shard), so perfect
// scaling doubles aggregate events/sec per doubling of shards. Two
// scenarios bracket the sync cost:
//
//   steady       no cross-shard traffic — pure window-sync overhead
//   cross_heavy  30% of continuations hop to the neighbor shard through
//                the SPSC channels (the rack east-west shape)
//
// A scenario's shard counts run interleaved, best of bench::kReps each.
// Counts past the hardware threads are not measured: a shard spinning on a
// timeshared core benchmarks the OS scheduler. Writes
// `BENCH_sim_parallel.json`; `--baseline` (flags in bench/harness.h) gates
// each 4-shard speedup, skipped on fewer than 4 hardware threads.
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/common/time.h"
#include "src/sim/sharded.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

constexpr int kShardCounts[] = {1, 2, 4, 8};
constexpr uint64_t kChainsPerShard = 512;
constexpr Duration kLookahead = 2 * kMicrosecond;

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

// Per-shard chain budget; only the owning shard's thread touches its entry.
struct alignas(64) ShardCtx {
  uint64_t remaining = 0;
  uint64_t lcg = 0;
};

// One tick of a chain currently homed on shard `s`: burn one of s's budget,
// then continue locally after 100ns..10us, or (cross_mille/1000 of the
// time) hop to the neighbor shard at lookahead distance. Chains die when
// the shard they land on has exhausted its budget, so RunToCompletion
// dispatches ~shards * events_per_shard events total.
void Tick(ShardedSim& sharded, std::vector<ShardCtx>& ctxs, int s,
          uint32_t cross_mille) {
  ShardCtx& ctx = ctxs[static_cast<size_t>(s)];
  if (ctx.remaining == 0) {
    return;
  }
  --ctx.remaining;
  ctx.lcg = Lcg(ctx.lcg);
  const Duration delay = 100 + (ctx.lcg >> 33) % 10'000;
  Simulator& sim = sharded.shard(s);
  if (cross_mille != 0 && sharded.shards() > 1 &&
      ctx.lcg % 1000 < cross_mille) {
    const int dst = (s + 1) % sharded.shards();
    sharded.Post(s, dst, sim.Now() + sharded.lookahead() + delay,
                 [&sharded, &ctxs, dst, cross_mille] {
                   Tick(sharded, ctxs, dst, cross_mille);
                 });
  } else {
    sim.ScheduleAfter(delay, [&sharded, &ctxs, s, cross_mille] {
      Tick(sharded, ctxs, s, cross_mille);
    });
  }
}

struct RunResult {
  double ns_per_event = 0;  // wall time per event dispatched on any shard
  uint64_t rounds = 0;
  uint64_t messages = 0;
};

RunResult RunScaling(int shards, uint64_t events_per_shard,
                     uint32_t cross_mille) {
  ShardedSimConfig config;
  config.shards = shards;
  config.lookahead = kLookahead;
  ShardedSim sharded(config);
  std::vector<ShardCtx> ctxs(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    ctxs[static_cast<size_t>(s)].remaining = events_per_shard;
    ctxs[static_cast<size_t>(s)].lcg =
        0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(s) << 17);
    for (uint64_t i = 0; i < kChainsPerShard; ++i) {
      sharded.shard(s).ScheduleAt(100 + i, [&sharded, &ctxs, s, cross_mille] {
        Tick(sharded, ctxs, s, cross_mille);
      });
    }
  }
  const auto start = std::chrono::steady_clock::now();
  sharded.RunToCompletion();
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  const ShardedSim::Stats stats = sharded.stats();
  return {elapsed_ns / static_cast<double>(stats.dispatched), stats.rounds,
          stats.messages};
}

int Run(const bench::Flags& flags) {
  const uint64_t events_per_shard = flags.quick ? 250'000 : 2'000'000;
  const unsigned cores = bench::HardwareThreads();
  // Scenario name, and the share of continuations (per mille) that hop.
  const std::pair<const char*, uint32_t> scenarios[] = {{"steady", 0},
                                                        {"cross_heavy", 300}};
  bench::Report report("sim_parallel", "events_per_sec", flags.quick);

  std::printf("# sim_parallel: sharded engine scaling (%s mode, %u hw "
              "threads, %llu events/shard, best of %d)\n",
              flags.quick ? "quick" : "full", cores,
              static_cast<unsigned long long>(events_per_shard), bench::kReps);
  std::printf("%-12s %7s %14s %9s %10s %10s\n", "scenario", "shards",
              "events/sec", "speedup", "rounds", "messages");
  for (const auto& [name, cross_mille] : scenarios) {
    std::vector<int> counts;
    std::map<int, RunResult> last;  // rounds and messages, for the table
    std::vector<std::function<double()>> sides;
    for (int shards : kShardCounts) {
      if (cores != 0 && static_cast<unsigned>(shards) > cores) {
        std::printf("%-12s %7d %14s (skipped: > %u hw threads)\n", name,
                    shards, "-", cores);
        continue;
      }
      counts.push_back(shards);
      sides.push_back([&, shards] {
        last[shards] = RunScaling(shards, events_per_shard, cross_mille);
        return last[shards].ns_per_event;
      });
    }
    const std::vector<bench::Series> reads = bench::Interleave(sides);
    const std::string key = std::string("scenarios.") + name + ".";
    bench::Ratio speedup_4{NAN, NAN};  // unmeasured: NeedsThreads(4) says why
    for (size_t i = 0; i < counts.size(); ++i) {
      const bench::Ratio speedup = bench::RatioOf(reads[0], reads[i]);
      const std::string n = std::to_string(counts[i]);
      report.Number(key + "shards_" + n, 1e9 / reads[i].Best(), 0);
      report.Number(key + "speedup_" + n, speedup.value, 3);
      if (counts[i] == 4) speedup_4 = speedup;
      std::printf("%-12s %7d %14.0f %8.2fx %10llu %10llu\n", name,
                  counts[i], 1e9 / reads[i].Best(), speedup.value,
                  static_cast<unsigned long long>(last[counts[i]].rounds),
                  static_cast<unsigned long long>(last[counts[i]].messages));
    }
    report.Gate(key + "speedup_4", bench::Bound::kFloor, speedup_4,
                bench::NeedsThreads(4));
  }
  return report.Finish(flags);
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  return syrup::Run(
      syrup::bench::ParseFlags(argc, argv, "BENCH_sim_parallel.json"));
}
