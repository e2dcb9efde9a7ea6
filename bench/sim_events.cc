// Event-engine throughput: the timing wheel (src/sim/simulator.h) vs the
// test-only reference heap (tests/oracles/reference_simulator.h) through the
// engine's cost regimes — a depth-1 self-ticking chain, deep steady-state
// pending sets, schedule+cancel churn, and far-future timers in the higher
// wheel levels and the overflow heap — interleaved, best of bench::kReps
// each. Writes `BENCH_sim_events.json`; `--baseline` (flags in
// bench/harness.h) gates each scenario's wheel ns/event under a ceiling
// and zero allocations in the steady-state windows; the wheel:reference
// speedup is recorded beside them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/harness.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"
#include "tests/oracles/reference_simulator.h"

namespace syrup {
namespace {

struct ScenarioResult {
  double ns_per_event = 0;
  uint64_t internal_allocs = 0;  // wheel engine's slab/heap/growth count
  uint64_t heap_allocs = 0;      // the steady window's, counted or not
};

// Heap allocations by this thread, counted by the global operator new at
// the end of this file: it sees an allocation the engine does not count.
thread_local uint64_t t_heap_allocs = 0;

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The wheel's slab/heap/growth count. The reference engine allocates on
// every schedule by design and does not count it.
template <typename Engine>
uint64_t InternalAllocs(const Engine& sim) {
  if constexpr (std::is_same_v<Engine, Simulator>) {
    return sim.engine_stats().internal_allocs();
  } else {
    return 0;
  }
}

// Depth-1 chain: each dispatch schedules the next event. The minimal
// schedule+dispatch round trip. The callback is a plain 16-byte functor —
// what the swept client code schedules — so the pooled engine stores it
// inline (direct invoke, no destructor) while the reference engine pays its
// mandatory std::function + shared_ptr<bool> wrapping.
template <typename Engine>
struct SelfTick {
  Engine* sim;
  uint64_t* remaining;
  void operator()() const {
    if (--*remaining > 0) {
      sim->ScheduleAfter(100, SelfTick{sim, remaining});
    }
  }
};

template <typename Engine>
ScenarioResult RunSelfTick(uint64_t events) {
  Engine sim;
  uint64_t remaining = events;
  sim.ScheduleAfter(100, SelfTick<Engine>{&sim, &remaining});
  const auto start = std::chrono::steady_clock::now();
  sim.RunToCompletion();
  return {ElapsedNs(start) / static_cast<double>(events),
          InternalAllocs(sim)};
}

// 1024 events in flight, each rescheduling itself at a varied (but
// deterministic) delay. This is the wheel's designed-for regime: the pool
// and wheel reach their high-water marks during warmup and the measured
// window allocates nothing.
template <typename Engine>
struct SteadyTick {
  Engine* sim;
  uint64_t* remaining;
  uint64_t* lcg;
  uint64_t delay_spread;
  void operator()() const {
    if (*remaining > 0) {
      --*remaining;
      *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
      sim->ScheduleAfter(100 + (*lcg >> 33) % delay_spread,
                         SteadyTick{sim, remaining, lcg, delay_spread});
    }
  }
};

template <typename Engine>
ScenarioResult RunSteady(uint64_t events, uint64_t pending,
                         uint64_t delay_spread) {
  Engine sim;
  uint64_t remaining = events;
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  const SteadyTick<Engine> tick{&sim, &remaining, &lcg, delay_spread};
  for (uint64_t i = 0; i < pending; ++i) {
    sim.ScheduleAfter(100 + i, tick);
  }
  // Warmup: let the pool/wheel grow to steady state before timing, in steps
  // short enough to stop near the target: 1 ms of steady_state dispatches
  // ~200k events, a whole --quick run.
  const uint64_t warmup = events / 10;
  uint64_t dispatched_target = sim.engine_stats().dispatched + warmup;
  while (sim.engine_stats().dispatched < dispatched_target &&
         sim.pending_events() > 0) {
    sim.RunUntil(sim.Now() + 10 * kMicrosecond);
  }
  const uint64_t allocs_before = InternalAllocs(sim);
  const uint64_t heap_before = t_heap_allocs;
  const uint64_t dispatched_before = sim.engine_stats().dispatched;
  const auto start = std::chrono::steady_clock::now();
  sim.RunToCompletion();
  const double elapsed = ElapsedNs(start);
  const uint64_t run = sim.engine_stats().dispatched - dispatched_before;
  return {elapsed / static_cast<double>(run > 0 ? run : 1),
          InternalAllocs(sim) - allocs_before, t_heap_allocs - heap_before};
}

template <typename Engine>
ScenarioResult RunSteadyState(uint64_t events) {
  // 1k in flight over a 10us spread: a loaded single host.
  return RunSteady<Engine>(events, 1024, 10'000);
}

template <typename Engine>
ScenarioResult RunSteadyDeep(uint64_t events) {
  // 16k in flight over a 1ms spread: rack-scale experiment shape (tens of
  // thousands of packets/timers pending). The reference heap pays O(log n)
  // type-erased moves per operation here; the wheel stays O(1).
  return RunSteady<Engine>(events, 16'384, 1'000'000);
}

// The steady-state workload beside three wheel engines on their own threads
// — the per-shard shape of src/sim/sharded.h — so both engines are timed
// under one load. Alloc accounting is per instance (EngineStats lives on
// the Simulator): the measured engine's internal_allocs delta stays zero
// while its neighbors warm up and allocate, unless engine state regressed
// to process-global.
template <typename Engine>
ScenarioResult RunSteadyConcurrent(uint64_t events) {
  constexpr int kNoise = 3;
  std::atomic<bool> stop{false};
  std::vector<std::thread> noise;
  noise.reserve(kNoise);
  for (int i = 0; i < kNoise; ++i) {
    noise.emplace_back([events, &stop]() {
      while (!stop.load(std::memory_order_relaxed)) {
        RunSteady<Simulator>(events / 4, 1024, 10'000);
      }
    });
  }
  ScenarioResult r = RunSteady<Engine>(events, 1024, 10'000);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : noise) {
    t.join();
  }
  return r;
}

// Schedule batches of timers and cancel half before they fire: the
// tail-latency-timer pattern (armed per request, cancelled on completion).
template <typename Engine>
ScenarioResult RunScheduleCancel(uint64_t events) {
  constexpr uint64_t kBatch = 256;
  Engine sim;
  std::vector<decltype(sim.ScheduleAfter(0, [] {}))> handles;
  handles.reserve(kBatch);
  uint64_t scheduled = 0;
  volatile uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  while (scheduled < events) {
    handles.clear();
    for (uint64_t i = 0; i < kBatch; ++i) {
      handles.push_back(
          sim.ScheduleAfter(1'000 + i * 10, [&fired]() { fired = fired + 1; }));
    }
    scheduled += kBatch;
    for (uint64_t i = 0; i < kBatch; i += 2) {
      handles[i].Cancel();
    }
    sim.RunToCompletion();
  }
  return {ElapsedNs(start) / static_cast<double>(scheduled),
          InternalAllocs(sim)};
}

// Timers across every wheel level plus the >4.3s overflow heap: delays are
// powers of two from 1us up past the wheel span.
template <typename Engine>
ScenarioResult RunFarTimers(uint64_t events) {
  constexpr int kMinShift = 10;  // 1 us
  constexpr int kMaxShift = 33;  // ~8.6 s: past the 2^32 ns wheel span
  constexpr uint64_t kBatch = 240;
  Engine sim;
  uint64_t scheduled = 0;
  volatile uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  while (scheduled < events) {
    int shift = kMinShift;
    for (uint64_t i = 0; i < kBatch; ++i) {
      sim.ScheduleAfter(uint64_t{1} << shift, [&fired]() { fired = fired + 1; });
      if (++shift > kMaxShift) {
        shift = kMinShift;
      }
    }
    scheduled += kBatch;
    sim.RunToCompletion();
  }
  return {ElapsedNs(start) / static_cast<double>(scheduled),
          InternalAllocs(sim)};
}

struct Scenario {
  const char* name;
  ScenarioResult (*wheel)(uint64_t);
  ScenarioResult (*reference)(uint64_t);
  uint64_t events;       // full-mode events per rep; --quick divides by 10
  bool allocation_free;  // its measured window must not allocate
};

int Run(const bench::Flags& flags) {
  using Ref = ReferenceSimulator;
  const Scenario scenarios[] = {
      {"self_tick", RunSelfTick<Simulator>, RunSelfTick<Ref>, 2'000'000,
       false},
      {"steady_state", RunSteadyState<Simulator>, RunSteadyState<Ref>,
       2'000'000, true},
      {"steady_deep", RunSteadyDeep<Simulator>, RunSteadyDeep<Ref>,
       2'000'000, true},
      {"schedule_cancel", RunScheduleCancel<Simulator>,
       RunScheduleCancel<Ref>, 1'000'000, false},
      {"far_timers", RunFarTimers<Simulator>, RunFarTimers<Ref>, 480'000,
       false},
      {"steady_concurrent", RunSteadyConcurrent<Simulator>,
       RunSteadyConcurrent<Ref>, 1'000'000, true},
  };

  bench::Report report("sim_events", "ns_per_event", flags.quick);
  std::printf("# sim_events: event engine throughput (%s mode, best of %d)\n",
              flags.quick ? "quick" : "full", bench::kReps);
  std::printf("%-16s %12s %12s %9s %13s\n", "scenario", "wheel", "reference",
              "speedup", "wheel_allocs");
  for (const Scenario& s : scenarios) {
    const uint64_t events = flags.quick ? s.events / 10 : s.events;
    uint64_t allocs = 0;  // the wheel's most in any rep
    uint64_t heap = 0;
    const std::vector<bench::Series> reads = bench::Interleave({
        [&] {
          const ScenarioResult r = s.wheel(events);
          allocs = std::max(allocs, r.internal_allocs);
          heap = std::max(heap, r.heap_allocs);
          return r.ns_per_event;
        },
        [&] { return s.reference(events).ns_per_event; },
    });
    const bench::Ratio speedup = bench::RatioOf(reads[1], reads[0]);
    const std::string key = std::string("scenarios.") + s.name + ".";
    // No speedup floor separates a per-schedule allocation from noise, so
    // the wheel keeps its ns/event ceiling and the speedup is only recorded;
    // the counts catch allocations.
    report.Gate(key + "wheel", bench::Bound::kCeiling,
                {reads[0].Best(), NAN});
    report.Number(key + "reference", reads[1].Best());
    report.Number(key + "speedup", speedup.value, 3);
    if (s.allocation_free) {
      report.Gate(key + "wheel_internal_allocs", bench::Bound::kCeiling,
                  {static_cast<double>(allocs), NAN});
      report.Gate(key + "wheel_heap_allocs", bench::Bound::kCeiling,
                  {static_cast<double>(heap), NAN});
    } else {
      report.Number(key + "wheel_internal_allocs", allocs, 0);
    }
    std::printf("%-16s %9.1f ns %9.1f ns %8.2fx %13llu\n", s.name,
                reads[0].Best(), reads[1].Best(), speedup.value,
                static_cast<unsigned long long>(allocs));
  }
  return report.Finish(flags);
}

}  // namespace
}  // namespace syrup

// Out of line, so the compiler never pairs an inlined malloc or free with
// the other operator and warns of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++syrup::t_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

int main(int argc, char** argv) {
  return syrup::Run(
      syrup::bench::ParseFlags(argc, argv, "BENCH_sim_events.json"));
}
