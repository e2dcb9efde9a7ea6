// Sharded-simulation tests: the SPSC channel and its epoch fence, and the
// conservative-window protocol's delivery/ordering guarantees and output
// bounds. The determinism tests run the same workload twice and require
// bit-identical traces — the contract is exact equality, never tolerance.
// This suite also runs under TSan in CI, so every cross-thread access here
// must be genuinely race-free, not just lucky.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/sim/sharded.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

// --- Primitives -------------------------------------------------------------

TEST(ShardChannel, FifoFullAndRetryAfterPop) {
  ShardChannel ch(4);
  auto push = [&ch](Time when) {
    ShardMessage msg{when, 0, ch.next_seq(), 0, [] {}};
    return ch.TryPush(std::move(msg));
  };
  for (Time t = 0; t < 4; ++t) {
    EXPECT_TRUE(push(t));
  }
  // A failed push must leave the message intact so Post() can retry it.
  ShardMessage overflow{Time{99}, 0, ch.next_seq(), 0, [] {}};
  EXPECT_FALSE(ch.TryPush(std::move(overflow)));
  EXPECT_EQ(overflow.when, Time{99});
  EXPECT_TRUE(overflow.fn != nullptr);

  ShardMessage out;
  ASSERT_TRUE(ch.TryPop(out));
  EXPECT_EQ(out.when, Time{0});
  EXPECT_TRUE(ch.TryPush(std::move(overflow)));
  for (Time expect : {Time{1}, Time{2}, Time{3}, Time{99}}) {
    ASSERT_TRUE(ch.TryPop(out));
    EXPECT_EQ(out.when, expect);
  }
  EXPECT_FALSE(ch.TryPop(out));
}

TEST(ShardChannel, EpochLimitStopsAtFirstLaterMessage) {
  ShardChannel ch(8);
  // Producer epochs never decrease: two messages from epoch 3, two from 4.
  for (uint64_t epoch : {3u, 3u, 4u, 4u}) {
    ShardMessage msg{Time{epoch}, 0, ch.next_seq(), epoch, [] {}};
    ASSERT_TRUE(ch.TryPush(std::move(msg)));
  }
  ShardMessage out;
  for (int n = 0; n < 2; ++n) {
    ASSERT_TRUE(ch.TryPop(out, /*limit=*/4));
    EXPECT_EQ(out.epoch, 3u);
  }
  // The epoch-4 messages stay queued for the next round.
  EXPECT_FALSE(ch.TryPop(out, /*limit=*/4));
  for (int n = 0; n < 2; ++n) {
    ASSERT_TRUE(ch.TryPop(out, /*limit=*/5));
    EXPECT_EQ(out.epoch, 4u);
  }
  EXPECT_FALSE(ch.TryPop(out));
}

// --- ShardedSim protocol ----------------------------------------------------

TEST(ShardedSim, SingleShardRunsInline) {
  ShardedSimConfig config;
  config.shards = 1;
  ShardedSim sharded(config);
  Simulator& sim = sharded.shard(0);
  std::vector<int> order;
  sim.ScheduleAt(500, [&order] { order.push_back(3); });
  sim.ScheduleAt(100, [&order] { order.push_back(1); });
  sim.ScheduleAt(150, [&order] { order.push_back(2); });
  EXPECT_EQ(sharded.RunUntil(1000), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // Like Simulator::RunUntil, an idle shard's clock advances to the horizon.
  EXPECT_EQ(sim.Now(), Time{1000});
  EXPECT_EQ(sharded.stats().messages, 0u);
}

TEST(ShardedSim, ShardZeroRunsOnTheCallingThread) {
  constexpr int kShards = 3;
  ShardedSimConfig config;
  config.shards = kShards;
  config.pinning = true;  // pins the workers, never the caller
#if defined(__linux__)
  cpu_set_t before;
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(before), &before),
            0);
#endif
  ShardedSim sharded(config);
  // Each entry is written by its shard's thread only; the joins inside
  // RunUntil order the writes before the reads below.
  std::vector<std::thread::id> ran_on(kShards);
  for (int s = 0; s < kShards; ++s) {
    sharded.shard(s).ScheduleAt(10, [&ran_on, s] {
      ran_on[static_cast<size_t>(s)] = std::this_thread::get_id();
    });
  }
  sharded.RunUntil(100);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_NE(ran_on[1], std::this_thread::get_id());
  EXPECT_NE(ran_on[2], std::this_thread::get_id());
  EXPECT_NE(ran_on[1], ran_on[2]);
#if defined(__linux__)
  cpu_set_t after;
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
#endif
}

TEST(ShardedSim, CrossShardDeliveryHonorsTimestamps) {
  ShardedSimConfig config;
  config.shards = 2;
  config.lookahead = 1000;
  ShardedSim sharded(config);
  // Only shard 1's thread writes this log; the join inside RunUntil orders
  // it before the main thread's reads.
  std::vector<Time> shard1_log;
  sharded.shard(0).ScheduleAt(10, [&sharded, &shard1_log] {
    const Time when = sharded.shard(0).Now() + sharded.lookahead();
    sharded.Post(0, 1, when, [&sharded, &shard1_log] {
      shard1_log.push_back(sharded.shard(1).Now());
    });
  });
  sharded.RunUntil(5000);
  ASSERT_EQ(shard1_log.size(), 1u);
  EXPECT_EQ(shard1_log[0], Time{1010});
  EXPECT_EQ(sharded.stats().messages, 1u);
  EXPECT_EQ(sharded.shard(0).Now(), Time{5000});
  EXPECT_EQ(sharded.shard(1).Now(), Time{5000});
}

// --- Ping-pong workload -----------------------------------------------------

// One entry of a shard's deterministic trace: (simulated time, tag).
using TraceEntry = std::pair<Time, uint64_t>;

struct PingPongConfig {
  int shards = 2;
  size_t channel_capacity = 4096;
  // Every event on shard 0 busy-waits this long, so the other shards run
  // ahead and post into a window while shard 0 is still draining the last.
  std::chrono::microseconds shard0_busy{0};
  // Register each shard's true output bound: its next chain step's time
  // plus the lookahead (see ChainStepTimes).
  bool output_bounds = false;
};

struct PingPongState {
  PingPongState(ShardedSim& sim, const PingPongConfig& pp)
      : sharded(sim),
        config(pp),
        traces(static_cast<size_t>(pp.shards)),
        steps_run(static_cast<size_t>(pp.shards), 0) {}
  ShardedSim& sharded;
  PingPongConfig config;
  std::vector<std::vector<TraceEntry>> traces;  // traces[s]: shard s only
  // Posting chain steps run so far; steps_run[s] is shard s's only.
  std::vector<size_t> steps_run;
  ShardedSim::Stats stats;
};

constexpr uint64_t kChainsPerShard = 8;
constexpr uint64_t kStepsPerChain = 200;
constexpr Duration kPingPongLookahead = 100;

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

// FNV-1a over every shard's trace in shard order.
uint64_t TraceHash(const PingPongState& state) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  };
  for (const std::vector<TraceEntry>& trace : state.traces) {
    mix(trace.size());
    for (const TraceEntry& e : trace) {
      mix(e.first);
      mix(e.second);
    }
  }
  return h;
}

void Log(PingPongState& state, int s, uint64_t tag) {
  if (s == 0 && state.config.shard0_busy.count() > 0) {
    const auto until =
        std::chrono::steady_clock::now() + state.config.shard0_busy;
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  state.traces[static_cast<size_t>(s)].push_back(
      {state.sharded.shard(s).Now(), tag});
}

// The sends of one chain step on shard s at time `now`: 0-3 leaves, each
// to a random shard, then the continuation to (s+1) % shards. A pure
// function of its arguments, so a chain's whole timeline is known upfront.
struct StepPlan {
  int leaves = 0;
  Time leaf_when[3] = {};
  int leaf_dst[3] = {};
  Time next_when = 0;
};

StepPlan PlanStep(int shards, int s, uint64_t chain, uint64_t step,
                  Time now) {
  StepPlan plan;
  const Time base = now + kPingPongLookahead;
  uint64_t x = Lcg(step ^ (static_cast<uint64_t>(s) << 20) ^ (chain << 40));
  auto next_when = [&x, base] {
    x = Lcg(x);
    return base + ((x >> 40) % 8) * 8;
  };
  plan.leaves = static_cast<int>((x >> 33) % 4);
  for (int m = 0; m < plan.leaves; ++m) {
    plan.leaf_when[m] = next_when();
    plan.leaf_dst[m] = static_cast<int>((x >> 20) % shards);
  }
  plan.next_when = next_when();
  return plan;
}

// One hop of a self-continuing chain moving shard -> (shard+1) % N. Each
// step logs, then posts its continuation plus 0-3 "leaf" messages (log
// only) to random shards, its own included. Delivery times sit on an 8 ns
// grid, so local leaves and arrivals from different senders often tie: a
// trace then records the order they entered the engine, not just when they
// ran. Bursts make the tiny-capacity config take Post's full-channel path.
void PingPongStep(PingPongState& state, int s, uint64_t chain,
                  uint64_t step) {
  ShardedSim& sharded = state.sharded;
  Log(state, s, chain << 32 | step);
  if (step >= kStepsPerChain) {
    return;
  }
  state.steps_run[static_cast<size_t>(s)] += 1;
  const StepPlan plan =
      PlanStep(sharded.shards(), s, chain, step, sharded.shard(s).Now());
  for (int m = 0; m < plan.leaves; ++m) {
    const Time when = plan.leaf_when[m];
    const int dst = plan.leaf_dst[m];
    const uint64_t tag = 1ull << 63 | chain << 32 | step << 2 |
                         static_cast<uint64_t>(m);
    sharded.Post(s, dst, when, [&state, dst, tag, when] {
      Log(state, dst, tag);
      EXPECT_EQ(state.sharded.shard(dst).Now(), when);
    });
  }
  const int dst = (s + 1) % sharded.shards();
  sharded.Post(s, dst, plan.next_when, [&state, dst, chain, step] {
    PingPongStep(state, dst, chain, step + 1);
  });
}

// Every posting chain step each shard will run, by time: the leaves are
// the only other events and never post.
std::vector<std::vector<Time>> ChainStepTimes(int shards) {
  std::vector<std::vector<Time>> times(static_cast<size_t>(shards));
  for (int s0 = 0; s0 < shards; ++s0) {
    for (uint64_t c = 0; c < kChainsPerShard; ++c) {
      const uint64_t chain = static_cast<uint64_t>(s0) * kChainsPerShard + c;
      Time now = static_cast<Time>(chain + 1);
      int s = s0;
      for (uint64_t step = 0; step < kStepsPerChain; ++step) {
        times[static_cast<size_t>(s)].push_back(now);
        now = PlanStep(shards, s, chain, step, now).next_when;
        s = (s + 1) % shards;
      }
    }
  }
  for (std::vector<Time>& t : times) {
    std::sort(t.begin(), t.end());
  }
  return times;
}

// Runs kChainsPerShard chains from every shard, first to a horizon and then
// to completion, so the protocol state also carries across Run* calls.
PingPongState RunPingPong(const PingPongConfig& pp) {
  ShardedSimConfig config;
  config.shards = pp.shards;
  config.lookahead = kPingPongLookahead;
  config.channel_capacity = pp.channel_capacity;
  ShardedSim sharded(config);
  PingPongState state(sharded, pp);
  const std::vector<std::vector<Time>> step_times =
      pp.output_bounds ? ChainStepTimes(pp.shards)
                       : std::vector<std::vector<Time>>();
  for (int s = 0; s < pp.shards; ++s) {
    if (pp.output_bounds) {
      // A shard's steps run in time order, so its next one is the first it
      // has not run; every send it makes is >= a step time + lookahead.
      sharded.SetOutputBound(s, [&state, &step_times, s] {
        const std::vector<Time>& times = step_times[static_cast<size_t>(s)];
        const size_t next = state.steps_run[static_cast<size_t>(s)];
        return next < times.size() ? times[next] + kPingPongLookahead
                                   : Simulator::kNoEventTime;
      });
    }
    for (uint64_t c = 0; c < kChainsPerShard; ++c) {
      const uint64_t chain = static_cast<uint64_t>(s) * kChainsPerShard + c;
      sharded.shard(s).ScheduleAt(static_cast<Time>(chain + 1),
                                  [&state, s, chain] {
                                    PingPongStep(state, s, chain, 0);
                                  });
    }
  }
  sharded.RunUntil(5000);
  sharded.RunToCompletion();
  state.stats = sharded.stats();
  return state;
}

TEST(ShardedSim, WindowsAndTracesMatchTheTwoBarrierProtocol) {
  // Recorded from the engine that ran every round as barrier, drain,
  // announce, barrier: the single-announcement rounds must not move a
  // window (rounds) or change a dispatch or its tie order (trace hash).
  struct Golden {
    int shards;
    uint64_t rounds;
    uint64_t hash;
  };
  for (const Golden& g : {Golden{2, 252, 0xf9de732c77e5cec4ull},
                          Golden{3, 255, 0xf7d26ec3560bd340ull},
                          Golden{4, 258, 0x0af01d5468f8ca48ull}}) {
    SCOPED_TRACE(g.shards);
    const PingPongState state = RunPingPong({.shards = g.shards});
    EXPECT_EQ(state.stats.rounds, g.rounds);
    EXPECT_EQ(TraceHash(state), g.hash);
  }
}

TEST(ShardedSim, PingPongIsBitDeterministicAcrossRuns) {
  // Capacity 2 forces Post() through its full-channel drain-and-retry path;
  // determinism must hold anyway because (when, src, seq) ordering erases
  // physical timing.
  const PingPongConfig config{.shards = 4, .channel_capacity = 2};
  const PingPongState first = RunPingPong(config);
  const PingPongState second = RunPingPong(config);
  ASSERT_EQ(first.traces.size(), second.traces.size());
  for (size_t s = 0; s < first.traces.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_FALSE(first.traces[s].empty());
    EXPECT_EQ(first.traces[s], second.traces[s]);
  }
}

TEST(ShardedSim, PingPongChannelCapacityDoesNotChangeResults) {
  // The channel is pure transport: its capacity (hence how often Post
  // blocks) must not be observable in simulated results, only in the
  // back-pressure counter.
  const PingPongState tiny =
      RunPingPong({.shards = 3, .channel_capacity = 2});
  const PingPongState large =
      RunPingPong({.shards = 3, .channel_capacity = 4096});
  EXPECT_GT(tiny.stats.channel_full_waits, 0u);
  EXPECT_EQ(large.stats.channel_full_waits, 0u);
  EXPECT_EQ(tiny.stats.messages, large.stats.messages);
  for (size_t s = 0; s < tiny.traces.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(tiny.traces[s], large.traces[s]);
  }
}

TEST(ShardedSim, SkewedShardTimingDoesNotChangeResults) {
  // Shard 0 is ~20 us slower per event, so its peers finish each window
  // first and post into the next one while shard 0 is still draining the
  // last. A drain that let such a post into the current round would change
  // the tie order recorded in the traces.
  for (int shards : {2, 3}) {
    SCOPED_TRACE(shards);
    const PingPongState even = RunPingPong({.shards = shards});
    const PingPongState skewed = RunPingPong(
        {.shards = shards, .shard0_busy = std::chrono::microseconds(20)});
    EXPECT_EQ(skewed.stats.rounds, even.stats.rounds);
    for (size_t s = 0; s < even.traces.size(); ++s) {
      SCOPED_TRACE(s);
      EXPECT_EQ(skewed.traces[s], even.traces[s]);
    }
  }
}

// Each shard's trace sorted by (time, tag): what ran when, whatever the
// order of events that tie on one nanosecond.
std::vector<std::vector<TraceEntry>> SortedTraces(const PingPongState& state) {
  std::vector<std::vector<TraceEntry>> sorted = state.traces;
  for (std::vector<TraceEntry>& trace : sorted) {
    std::sort(trace.begin(), trace.end());
  }
  return sorted;
}

TEST(ShardedSim, TruthfulOutputBoundsRunTheSameEventsInFewerRounds) {
  // True bounds stretch each window to just before the next promised send,
  // so the shards sync less often. Every event must still run at its own
  // time on its own shard. Only events that tie on one nanosecond may enter
  // the engine in another order: a message is filed when the window it was
  // sent in closes, and the 8 ns grid makes such ties common here. (The
  // experiment digests in engine_differential_test pin that they do not
  // occur on the fig2/fig9 configs.) A bounded run is still bit-identical
  // from one run to the next.
  for (int shards : {2, 3, 4}) {
    SCOPED_TRACE(shards);
    const PingPongState plain = RunPingPong({.shards = shards});
    const PingPongState bounded =
        RunPingPong({.shards = shards, .output_bounds = true});
    const PingPongState again =
        RunPingPong({.shards = shards, .output_bounds = true});
    EXPECT_LT(bounded.stats.rounds, plain.stats.rounds);
    EXPECT_EQ(bounded.stats.messages, plain.stats.messages);
    EXPECT_EQ(SortedTraces(bounded), SortedTraces(plain));
    EXPECT_EQ(again.stats.rounds, bounded.stats.rounds);
    EXPECT_EQ(TraceHash(again), TraceHash(bounded));
  }
}

TEST(ShardedSim, NeverPostingShardsRunOneWindowPerCall) {
  ShardedSimConfig config;
  config.shards = 2;
  config.lookahead = 100;
  ShardedSim sharded(config);
  // Each log is written by its shard's thread only; the joins inside Run*
  // order the writes before the reads below.
  std::vector<Time> ran[2];
  auto log = [&sharded, &ran](int s) {
    return [&sharded, &ran, s] { ran[s].push_back(sharded.shard(s).Now()); };
  };
  for (int s = 0; s < 2; ++s) {
    sharded.SetOutputBound(s, [] { return Simulator::kNoEventTime; });
    for (Time t : {Time{10}, Time{500}, Time{2000}, Time{4990}}) {
      sharded.shard(s).ScheduleAt(t + static_cast<Time>(s), log(s));
    }
  }
  EXPECT_EQ(sharded.RunUntil(5000), 8u);
  EXPECT_EQ(sharded.stats().rounds, 1u);  // 4 windows of 100 ns without
  EXPECT_EQ(ran[0], (std::vector<Time>{10, 500, 2000, 4990}));
  EXPECT_EQ(ran[1], (std::vector<Time>{11, 501, 2001, 4991}));
  EXPECT_EQ(sharded.shard(0).Now(), Time{5000});
  EXPECT_EQ(sharded.shard(1).Now(), Time{5000});

  // Between Run* calls Post checks only now + lookahead, whatever the bound.
  sharded.Post(0, 1, sharded.shard(0).Now() + sharded.lookahead(), log(1));
  sharded.shard(0).ScheduleAt(7000, log(0));
  EXPECT_EQ(sharded.RunToCompletion(), 2u);
  EXPECT_EQ(sharded.stats().rounds, 2u);
  EXPECT_EQ(ran[0].back(), Time{7000});
  EXPECT_EQ(ran[1].back(), Time{5100});
  // An unbounded window still leaves each clock at its last event.
  EXPECT_EQ(sharded.shard(0).Now(), Time{7000});
  EXPECT_EQ(sharded.shard(1).Now(), Time{5100});
}

TEST(ShardedSimDeathTest, PostBelowTheAnnouncedOutputBoundDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ShardedSimConfig config;
        config.shards = 2;
        config.lookahead = 100;
        ShardedSim sharded(config);
        // Shard 0 promises no send before 1000, then sends at 110.
        sharded.SetOutputBound(0, [] { return Time{1000}; });
        sharded.shard(0).ScheduleAt(10, [&sharded] {
          sharded.Post(0, 1, sharded.shard(0).Now() + sharded.lookahead(),
                       [] {});
        });
        sharded.RunUntil(5000);
      },
      "before the sender's announced output bound");
}

TEST(ShardedSimDeathTest, OutputBoundAtTheWindowStartDies) {
  // A bound at or below T would end the window before it starts, and no
  // shard could ever make progress.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ShardedSimConfig config;
        config.shards = 2;
        ShardedSim sharded(config);
        sharded.SetOutputBound(1, [] { return Time{10}; });
        sharded.shard(0).ScheduleAt(10, [] {});
        sharded.RunUntil(5000);
      },
      "output bound does not exceed the window start");
}

}  // namespace
}  // namespace syrup
