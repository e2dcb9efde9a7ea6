#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "tests/oracles/reference_simulator.h"

// Global allocation counter for the zero-allocation assertions. Sanitizer
// builds interpose their own allocator, so counting is compiled out there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SYRUP_COUNT_GLOBAL_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SYRUP_COUNT_GLOBAL_ALLOCS 0
#else
#define SYRUP_COUNT_GLOBAL_ALLOCS 1
#endif
#else
#define SYRUP_COUNT_GLOBAL_ALLOCS 1
#endif

#if SYRUP_COUNT_GLOBAL_ALLOCS
namespace {
// Per-thread, not process-global: the zero-alloc gate below must only see
// allocations made by the engine under test, and sharded runs put other
// engines on other threads of this process (src/sim/sharded.h). Counting
// per thread scopes the assertion to the instance the test drives.
thread_local uint64_t t_thread_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_thread_allocs;
  if (void* ptr = std::malloc(size > 0 ? size : 1)) {
    return ptr;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#endif

namespace syrup {
namespace {

uint64_t ThreadAllocs() {
#if SYRUP_COUNT_GLOBAL_ALLOCS
  return t_thread_allocs;
#else
  return 0;
#endif
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&]() { order.push_back(3); });
  sim.ScheduleAt(10, [&]() { order.push_back(1); });
  sim.ScheduleAt(20, [&]() { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(Simulator, SameTimeEventsRunInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i]() { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&]() { ++fired; });
  sim.ScheduleAt(100, [&]() { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 10u);  // clock rests at the last dispatched event
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000u);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 100) {
      sim.ScheduleAfter(1, chain);
    }
  };
  sim.ScheduleAfter(1, chain);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.ScheduleAt(10, [&]() { fired = true; });
  EXPECT_TRUE(handle.valid());
  handle.Cancel();
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  EventHandle handle = sim.ScheduleAt(10, []() {});
  handle.Cancel();
  handle.Cancel();  // no crash
  EXPECT_FALSE(handle.valid());
  sim.RunToCompletion();
}

TEST(Simulator, CancelOneOfMany) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&]() { order.push_back(1); });
  EventHandle second = sim.ScheduleAt(20, [&]() { order.push_back(2); });
  sim.ScheduleAt(30, [&]() { order.push_back(3); });
  second.Cancel();
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, StopHaltsDispatch) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&]() {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAt(20, [&]() { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  // A later run resumes from where it stopped.
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ReturnsDispatchCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(static_cast<Time>(i + 1), []() {});
  }
  EXPECT_EQ(sim.RunToCompletion(), 5u);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.ScheduleAt(100, []() {});
  sim.RunToCompletion();
  EXPECT_DEATH(sim.ScheduleAt(50, []() {}), "scheduled in the past");
}

// --- pooled-engine specifics ------------------------------------------------

// A handle is a (simulator, slot, generation) value: returning one from
// every ScheduleAt costs no reference count and no destructor.
static_assert(sizeof(EventHandle) == 16 &&
              std::is_trivially_destructible_v<EventHandle>);

TEST(SimulatorPool, StaleHandleCannotTouchRecycledSlot) {
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = sim.ScheduleAt(10, [&]() { a_fired = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(a_fired);
  EXPECT_FALSE(a.valid());
  // B recycles A's pool slot (single free slot, LIFO freelist); A's stale
  // handle must neither see nor cancel it.
  EventHandle b = sim.ScheduleAt(20, [&]() { b_fired = true; });
  a.Cancel();
  EXPECT_TRUE(b.valid());
  sim.RunToCompletion();
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorPool, SelfCancelDuringDispatchIsInert) {
  Simulator sim;
  EventHandle handle;
  bool chained_fired = false;
  handle = sim.ScheduleAt(10, [&]() {
    // The event is already running: cancelling it (or any stale alias of
    // its slot) must not damage the slot or the event scheduled next, which
    // will recycle it.
    handle.Cancel();
    sim.ScheduleAt(20, [&]() { chained_fired = true; });
  });
  sim.RunToCompletion();
  EXPECT_TRUE(chained_fired);
  EXPECT_EQ(sim.Now(), 20u);
}

TEST(SimulatorPool, StopMidDispatchPreservesWheelState) {
  Simulator sim;
  std::vector<int> order;
  // Spread across many level-0 ticks and into level 1.
  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAt(100 + static_cast<Time>(i) * 1000,
                   [&order, i]() { order.push_back(i); });
  }
  sim.ScheduleAt(100 + 25 * 1000 + 1, [&]() { sim.Stop(); });
  sim.RunToCompletion();
  EXPECT_EQ(order.size(), 26u);  // 0..25 ran, then the stop event
  // Resume: the remaining events dispatch in order with nothing lost.
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorPool, FarFutureTimersCrossWheelLevelsAndOverflow) {
  Simulator sim;
  // Exponentially spread timers: levels 0..3 and, beyond ~4.3 s, the
  // overflow heap (2^32 ns exceeds the wheel span of 2^24 ticks * 256 ns).
  std::vector<Time> times;
  for (int k = 0; k < 40; ++k) {
    times.push_back((Time{1} << k) + static_cast<Time>(k) * 7);
  }
  std::vector<Time> fired;
  // Schedule in reverse so arrival order disagrees with time order.
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const Time when = *it;
    sim.ScheduleAt(when, [&fired, &sim]() { fired.push_back(sim.Now()); });
  }
  sim.RunToCompletion();
  EXPECT_GT(sim.engine_stats().overflow_inserts, 0u);
  std::sort(times.begin(), times.end());
  EXPECT_EQ(fired, times);
}

TEST(SimulatorPool, FullLevelRevolutionDistanceIsNotLost) {
  // Regression: a delta whose window delta wraps a full level revolution
  // (dispatch at tick 63, then +4095 ticks => level-1 window delta of
  // exactly 64) used to be filed into the bucket covering cur_tick_, which
  // NextOccupiedTick treats as always empty — the event never fired.
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(63 * 256, [&]() {
    sim.ScheduleAfter(4095 * 256, [&]() { fired = true; });
  });
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.Now(), Time{63 * 256} + 4095 * 256);
}

TEST(SimulatorPool, RevolutionBoundariesFireFromEveryAnchor) {
  // Anchors sit just below each level's rollover; deltas straddle every
  // level's full revolution (64^k - 1, 64^k, 64^k + 1 ticks) so the window
  // delta wraps at each level and crosses the overflow boundary. Each pair
  // runs in its own simulator: with no unrelated event advancing the wheel,
  // a misfiled bucket can never be rescued by a coincidental cascade.
  for (const Time anchor :
       {Time{63} * 256, Time{4095} * 256, ((Time{1} << 18) - 1) * 256,
        ((Time{1} << 24) - 1) * 256}) {
    for (int level = 1; level <= 4; ++level) {
      const uint64_t revolution = uint64_t{1} << (6 * level);
      for (const uint64_t delta : {revolution - 1, revolution, revolution + 1}) {
        Simulator sim;
        Time fired = 0;
        sim.ScheduleAt(anchor, [&sim, &fired, delta]() {
          sim.ScheduleAfter(delta * 256, [&sim, &fired]() { fired = sim.Now(); });
        });
        sim.RunToCompletion();
        EXPECT_EQ(fired, anchor + delta * 256)
            << "anchor " << anchor << " delta " << delta;
        EXPECT_EQ(sim.pending_events(), 0u);
      }
    }
  }
}

TEST(SimulatorPool, EarlierEventScheduledAfterPartialRunDispatchesFirst) {
  // Regression: RefillReady advances the wheel to the next occupied tick
  // even when that tick's events turn out to be past the horizon. An event
  // then scheduled into the skipped gap underflowed the insertion distance,
  // landed in overflow, and dispatched after the later event — with Now()
  // running backward.
  Simulator sim;
  std::vector<Time> fired;
  auto record = [&fired, &sim]() { fired.push_back(sim.Now()); };
  sim.ScheduleAt(1124, record);
  EXPECT_EQ(sim.RunUntil(1074), 0u);
  sim.ScheduleAt(500, record);
  sim.RunUntil(2000);
  EXPECT_EQ(fired, (std::vector<Time>{500, 1124}));
}

template <typename Engine>
void ExpectFiredHandleIsInert(Engine& sim) {
  auto handle = sim.ScheduleAt(10, []() {});
  EXPECT_TRUE(handle.valid());
  sim.RunToCompletion();
  EXPECT_FALSE(handle.valid());
  handle.Cancel();  // inert on a fired event
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(sim.engine_stats().dispatched, 1u);
}

TEST(Simulator, FiredHandleIsInvalidOnBothEngines) {
  Simulator wheel;
  ExpectFiredHandleIsInert(wheel);
  EXPECT_EQ(wheel.engine_stats().cancelled, 0u);
  ReferenceSimulator reference;
  ExpectFiredHandleIsInert(reference);
}

struct SteadyTick {
  Simulator* sim;
  uint64_t* remaining;
  uint64_t* lcg;
  void operator()() const {
    if (*remaining > 0) {
      --*remaining;
      *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
      sim->ScheduleAfter(100 + (*lcg >> 33) % 5'000,
                         SteadyTick{sim, remaining, lcg});
    }
  }
};

TEST(SimulatorPool, SteadyStateDispatchDoesNotAllocate) {
  Simulator sim;
  uint64_t remaining = 20'000;
  uint64_t lcg = 999;
  for (uint64_t i = 0; i < 64; ++i) {
    sim.ScheduleAfter(100 + i, SteadyTick{&sim, &remaining, &lcg});
  }
  // Warmup: grow the pool, ready heap, and wheel to their high-water marks.
  while (remaining > 10'000) {
    sim.RunUntil(sim.Now() + 100 * kMicrosecond);
  }
  const uint64_t internal_before = sim.engine_stats().internal_allocs();
  const uint64_t global_before = ThreadAllocs();
  sim.RunToCompletion();
  EXPECT_GT(sim.engine_stats().dispatched, 19'000u);
  // The engine's own accounting and this thread's operator new both agree:
  // a steady-state schedule/dispatch window allocates nothing. (Per-thread
  // so engines running on other shards' threads can't trip this gate.)
  EXPECT_EQ(sim.engine_stats().internal_allocs(), internal_before);
  EXPECT_EQ(ThreadAllocs(), global_before);
}

TEST(SimulatorPool, LargeCallbacksSpillToHeapAndStillRun) {
  Simulator sim;
  // 64 bytes of captured payload: over the inline budget, so the engine
  // heap-boxes the callback and counts it.
  uint64_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t sum = 0;
  sim.ScheduleAt(10, [payload, &sum]() {
    for (uint64_t v : payload) {
      sum += v;
    }
  });
  sim.RunToCompletion();
  EXPECT_EQ(sum, 36u);
  EXPECT_EQ(sim.engine_stats().large_callbacks, 1u);
}

// --- wheel vs reference differential ----------------------------------------

template <typename Engine>
using HandleOf = decltype(std::declval<Engine&>().ScheduleAt(
    Time{0}, std::declval<void (*)()>()));

// Randomized schedule/cancel/run program; the wheel's trace must equal the
// reference engine's exactly. Each seed mixes far-future times (the
// overflow heap), same-timestamp bursts, nested scheduling, cancels and
// Stop() from inside callbacks, partial RunUntil horizons, an event
// scheduled into the gap each partial run leaves, and NextEventTime()
// sampled between horizons (the sharded engine's per-round announcement).
template <typename Engine>
std::vector<uint64_t> DifferentialTrace(uint64_t seed) {
  Engine sim;
  std::vector<uint64_t> trace;
  uint64_t lcg = 0xabcdef12345ull ^ (seed * 0x9e3779b97f4a7c15ull);
  auto rnd = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  std::vector<HandleOf<Engine>> handles;
  std::vector<Time> times;
  auto schedule = [&](Time when) {
    const uint64_t id = handles.size();
    times.push_back(when);
    handles.push_back(
        sim.ScheduleAt(when, [&trace, &sim, &handles, id]() {
          trace.push_back(id);
          trace.push_back(sim.Now());
          if (id % 3 == 0) {
            sim.ScheduleAfter(1 + id % 1'000, [&trace, &sim, id]() {
              trace.push_back(10'000 + id);
              trace.push_back(sim.Now());
            });
          }
          if (id % 5 == 1) {
            // The target may be pending, fired, cancelled or this event.
            handles[(id * 7 + 3) % handles.size()].Cancel();
          }
          if (id % 37 == 0) {
            sim.Stop();
          }
        }));
  };

  const Time bursts[4] = {rnd() % 50'000'000, rnd() % 50'000'000,
                          rnd() % 50'000'000, rnd() % 50'000'000};
  for (int i = 0; i < 400; ++i) {
    const uint64_t kind = rnd() % 64;
    schedule(kind == 0 ? 4'500'000'000ull + rnd() % 1'000'000'000ull
             : kind < 8 ? bursts[rnd() % 4]
                        : rnd() % 50'000'000ull);
  }
  for (size_t i = 0; i < handles.size(); i += 7) {
    handles[i].Cancel();
  }

  // Horizons walk the initial event times. Half stop just short of one,
  // inside its 256 ns wheel tick, so the wheel advances past time it does
  // not dispatch.
  std::vector<Time> stops = times;
  std::sort(stops.begin(), stops.end());
  Time horizon = 0;
  for (size_t k = 0; k < stops.size(); k += 1 + rnd() % 16) {
    const Time stop =
        rnd() % 2 == 0 ? stops[k] - std::min<Time>(stops[k], 1 + rnd() % 64)
                       : stops[k] + rnd() % 100'000;
    if (stop <= horizon) {
      continue;
    }
    horizon = stop;
    trace.push_back(sim.RunUntil(horizon));
    trace.push_back(sim.Now());
    trace.push_back(sim.pending_events());
    schedule(sim.Now() + rnd() % (horizon + 1 - sim.Now()));
    if (rnd() % 2 == 0) {
      const Time next = sim.NextEventTime();
      trace.push_back(next);
      if (next != Engine::kNoEventTime && next > horizon + 1) {
        schedule(horizon + 1 + rnd() % (next - horizon - 1));
      }
    }
  }
  trace.push_back(sim.engine_stats().dispatched);
  while (sim.pending_events() > 0) {  // Stop() may end a run early
    trace.push_back(sim.RunToCompletion());
  }
  trace.push_back(sim.Now());
  trace.push_back(sim.engine_stats().dispatched);
  trace.push_back(sim.engine_stats().scheduled);
  return trace;
}

TEST(SimulatorDifferential, WheelMatchesReferenceOnRandomPrograms) {
  for (uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<uint64_t> wheel = DifferentialTrace<Simulator>(seed);
    EXPECT_GT(wheel.size(), 1'000u);
    EXPECT_EQ(wheel, DifferentialTrace<ReferenceSimulator>(seed));
  }
}

}  // namespace
}  // namespace syrup
