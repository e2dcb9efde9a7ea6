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
// Each row is the fastest of three reps, and the reps run the shard counts
// interleaved (1, 2, 4, 1, 2, 4, ...), so a speedup compares runs that saw
// the same machine load.
//
// Writes `BENCH_sim_parallel.json` (shards -> events/sec per scenario plus
// the N-shard:1-shard speedups). `--baseline <file>` gates the 4-shard
// speedup against the checked-in floor (steady >= 1.8x); the gate needs at
// least 4 hardware threads and reports itself as skipped otherwise, and
// shard counts beyond hardware_concurrency are skipped rather than
// measured oversubscribed (a shard spinning for its peers on a timeshared
// core benchmarks the OS scheduler, not the engine).
//
// Flags:
//   --quick            ~8x fewer events per shard (CI smoke mode)
//   --baseline <file>  compare 4-shard speedups against checked-in floors;
//                      exit 1 when below (skipped on <4 hardware threads)
//   --out <file>       JSON output path (default BENCH_sim_parallel.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/time.h"
#include "src/sim/sharded.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

constexpr int kShardCounts[] = {1, 2, 4, 8};
constexpr int kReps = 3;  // each row reports its fastest rep
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
  double events_per_sec = 0;
  uint64_t dispatched = 0;
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
  RunResult r;
  r.dispatched = stats.dispatched;
  r.rounds = stats.rounds;
  r.messages = stats.messages;
  r.events_per_sec =
      static_cast<double>(stats.dispatched) / (elapsed_ns * 1e-9);
  return r;
}

bool BaselineFor(const std::string& text, const std::string& name,
                 double* out) {
  const std::string needle = "\"" + name + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  return std::sscanf(text.c_str() + pos + needle.size(), " %lf", out) == 1;
}

int Run(bool quick, const char* out_path, const char* baseline_path) {
  const uint64_t events_per_shard = quick ? 250'000 : 2'000'000;
  const unsigned cores = std::thread::hardware_concurrency();
  struct Scenario {
    const char* name;
    uint32_t cross_mille;
  };
  const Scenario scenarios[] = {
      {"steady", 0},
      {"cross_heavy", 300},
  };

  std::printf("# sim_parallel: sharded engine scaling (%s mode, %u hw "
              "threads, %llu events/shard)\n",
              quick ? "quick" : "full", cores,
              static_cast<unsigned long long>(events_per_shard));
  std::printf("%-12s %7s %14s %9s %10s %10s\n", "scenario", "shards",
              "events/sec", "speedup", "rounds", "messages");

  // results[scenario][shards] = best-of-kReps run; speedups vs the 1-shard
  // row. The shard counts are interleaved within each rep, so a noisy
  // neighbour slows numerator and denominator alike rather than one of them.
  std::map<std::string, std::map<int, RunResult>> results;
  for (const Scenario& sc : scenarios) {
    std::map<int, RunResult>& rows = results[sc.name];
    for (int rep = 0; rep < kReps; ++rep) {
      for (int shards : kShardCounts) {
        if (cores != 0 && static_cast<unsigned>(shards) > cores) {
          continue;
        }
        const RunResult r = RunScaling(shards, events_per_shard,
                                       sc.cross_mille);
        if (r.events_per_sec > rows[shards].events_per_sec) {
          rows[shards] = r;
        }
      }
    }
    const double base = rows.count(1) ? rows.at(1).events_per_sec : 0;
    for (int shards : kShardCounts) {
      if (!rows.count(shards)) {
        std::printf("%-12s %7d %14s (skipped: > %u hw threads)\n", sc.name,
                    shards, "-", cores);
        continue;
      }
      const RunResult& r = rows.at(shards);
      std::printf("%-12s %7d %14.0f %8.2fx %10llu %10llu\n", sc.name, shards,
                  r.events_per_sec,
                  base > 0 ? r.events_per_sec / base : 0.0,
                  static_cast<unsigned long long>(r.rounds),
                  static_cast<unsigned long long>(r.messages));
    }
  }

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"sim_parallel\",\n"
               "  \"unit\": \"events_per_sec\",\n"
               "  \"mode\": \"%s\",\n"
               "  \"hardware_concurrency\": %u,\n  \"scenarios\": {\n",
               quick ? "quick" : "full", cores);
  size_t sc_index = 0;
  for (const auto& [name, rows] : results) {
    std::fprintf(out, "    \"%s\": {", name.c_str());
    const double base = rows.count(1) ? rows.at(1).events_per_sec : 0;
    size_t index = 0;
    for (const auto& [shards, r] : rows) {
      std::fprintf(out, "\"shards_%d\": %.0f, \"speedup_%d\": %.3f%s", shards,
                   r.events_per_sec, shards,
                   base > 0 ? r.events_per_sec / base : 0.0,
                   ++index == rows.size() ? "" : ", ");
    }
    std::fprintf(out, "}%s\n", ++sc_index == results.size() ? "" : ",");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("# wrote %s\n", out_path);

  if (baseline_path == nullptr) {
    return 0;
  }
  if (cores < 4) {
    // The speedup gate measures parallel scaling; on fewer than 4 hardware
    // threads a 4-shard run cannot express it. Report, don't fail.
    std::printf("# gate_skipped: %u hw threads < 4; speedup floors not "
                "enforceable on this machine\n",
                cores);
    return 0;
  }
  std::FILE* in = std::fopen(baseline_path, "r");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path);
    return 1;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    text.append(buf, n);
  }
  std::fclose(in);

  int failures = 0;
  for (const auto& [name, rows] : results) {
    const std::string key = name + "_speedup_4";
    double floor;
    if (!BaselineFor(text, key, &floor)) {
      std::fprintf(stderr, "baseline missing %s\n", key.c_str());
      ++failures;
      continue;
    }
    if (!rows.count(1) || !rows.count(4)) {
      std::fprintf(stderr, "missing 1- or 4-shard row for %s\n",
                   name.c_str());
      ++failures;
      continue;
    }
    const double speedup =
        rows.at(4).events_per_sec / rows.at(1).events_per_sec;
    if (speedup < floor) {
      std::fprintf(stderr,
                   "REGRESSION %s: 4-shard speedup %.2fx below floor %.2fx\n",
                   name.c_str(), speedup, floor);
      ++failures;
    } else {
      std::printf("# baseline ok %s: 4-shard speedup %.2fx >= %.2fx\n",
                  name.c_str(), speedup, floor);
    }
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  bool quick = false;
  const char* out_path = "BENCH_sim_parallel.json";
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--baseline <file>] [--out <file>]\n",
                   argv[0]);
      return 2;
    }
  }
  return syrup::Run(quick, out_path, baseline_path);
}
