// Google-benchmark microbenchmarks for the framework's building blocks:
// VM execution (the compiled tier beside the interpreter oracle it is
// checked against), verification, map operations, histogram recording,
// event dispatch, and native policy decisions. These are the costs behind
// Table 2/3 and the simulator's own throughput.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/bpf/assembler.h"
#include "src/bpf/compiler.h"
#include "src/bpf/verifier.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/core/syrup_api.h"
#include "src/map/hash_map.h"
#include "src/map/map.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"
#include "tests/oracles/interpreter.h"
#include "tests/oracles/reference_simulator.h"

namespace syrup {
namespace {

Packet BenchPacket() {
  Packet pkt;
  pkt.tuple.src_port = 20'001;
  pkt.tuple.dst_port = 9000;
  pkt.SetHeader(ReqType::kGet, 1, 12'345, 1, 0);
  return pkt;
}

bpf::Program LoadProgram(const std::string& source) {
  auto assembled = bpf::Assemble(source).value();
  bpf::Program prog;
  prog.name = assembled.name;
  prog.insns = assembled.insns;
  for (const bpf::MapSlot& slot : assembled.map_slots) {
    prog.maps.push_back(CreateMap(slot.spec).value());
  }
  return prog;
}

void BM_InterpreterSitaDecision(benchmark::State& state) {
  bpf::Program prog = LoadProgram(SitaPolicyAsm(6));
  bpf::ExecEnv env;
  bpf::Interpreter interp(env);
  const Packet pkt = BenchPacket();
  for (auto _ : state) {
    auto result =
        interp.Run(prog, reinterpret_cast<uint64_t>(pkt.wire.data()),
                   reinterpret_cast<uint64_t>(pkt.wire.data() + kWireSize),
                   true);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_InterpreterSitaDecision);

void BM_CompiledSitaDecision(benchmark::State& state) {
  // The pre-decoded tier the daemon actually deploys: operands resolved,
  // jumps absolute, verifier-proven memory checks elided.
  bpf::Program prog = LoadProgram(SitaPolicyAsm(6));
  bpf::CompiledProgram compiled =
      bpf::Compile(prog, bpf::ProgramContext::kPacket).value();
  bpf::CompiledExecutor exec{bpf::ExecEnv{}};
  const Packet pkt = BenchPacket();
  for (auto _ : state) {
    auto result =
        exec.Run(compiled, reinterpret_cast<uint64_t>(pkt.wire.data()),
                 reinterpret_cast<uint64_t>(pkt.wire.data() + kWireSize),
                 true);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CompiledSitaDecision);

void BM_CompileSita(benchmark::State& state) {
  // Attach-time translation cost (paid once per deploy, cached by id).
  bpf::Program prog = LoadProgram(SitaPolicyAsm(6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bpf::Compile(prog, bpf::ProgramContext::kPacket));
  }
}
BENCHMARK(BM_CompileSita);

void BM_NativeSitaDecision(benchmark::State& state) {
  SitaPolicy policy(6);
  const Packet pkt = BenchPacket();
  const PacketView view = PacketView::Of(pkt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Schedule(view));
  }
}
BENCHMARK(BM_NativeSitaDecision);

void BM_VerifySita(benchmark::State& state) {
  bpf::Program prog = LoadProgram(SitaPolicyAsm(6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bpf::Verify(prog, bpf::ProgramContext::kPacket));
  }
}
BENCHMARK(BM_VerifySita);

void BM_VerifyScanAvoidLoops(benchmark::State& state) {
  // Loop exploration cost scales with executor count.
  bpf::Program prog =
      LoadProgram(ScanAvoidPolicyAsm(static_cast<uint32_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bpf::Verify(prog, bpf::ProgramContext::kPacket));
  }
}
BENCHMARK(BM_VerifyScanAvoidLoops)->Arg(2)->Arg(6)->Arg(12);

void BM_HashMapLookup(benchmark::State& state) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 1u << 16;
  HashMap map(spec);
  for (uint32_t key = 0; key < (1u << 16); ++key) {
    (void)map.UpdateU64(key, key);
  }
  Rng rng(5);
  for (auto _ : state) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(1u << 16));
    benchmark::DoNotOptimize(map.Lookup(&key));
  }
}
BENCHMARK(BM_HashMapLookup);

void BM_HashMapLookupContended(benchmark::State& state) {
  static HashMap* map = [] {
    MapSpec spec;
    spec.type = MapType::kHash;
    spec.max_entries = 1u << 16;
    auto* m = new HashMap(spec);
    for (uint32_t key = 0; key < (1u << 16); ++key) {
      (void)m->UpdateU64(key, key);
    }
    return m;
  }();
  Rng rng(5 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(1u << 16));
    benchmark::DoNotOptimize(map->Lookup(&key));
  }
}
BENCHMARK(BM_HashMapLookupContended)->Threads(2)->Threads(4);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  Rng rng(6);
  for (auto _ : state) {
    histogram.Record(rng.NextBounded(1'000'000));
  }
  benchmark::DoNotOptimize(histogram.Percentile(99));
}
BENCHMARK(BM_HistogramRecord);

// The event-engine benchmarks run on the timing wheel and on the test-only
// reference heap engine, so the two columns sit side by side in the report.
template <typename Engine>
void BM_SimulatorEventDispatch(benchmark::State& state) {
  // Self-rescheduling event: steady-state queue of depth 1.
  for (auto _ : state) {
    state.PauseTiming();
    Engine sim;
    uint64_t count = 0;
    std::function<void()> tick = [&]() {
      if (++count < 10'000) {
        sim.ScheduleAfter(1, tick);
      }
    };
    sim.ScheduleAfter(1, tick);
    state.ResumeTiming();
    sim.RunToCompletion();
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK_TEMPLATE(BM_SimulatorEventDispatch, Simulator);
BENCHMARK_TEMPLATE(BM_SimulatorEventDispatch, ReferenceSimulator);

template <typename Engine>
void BM_SimulatorSteadyState(benchmark::State& state) {
  // 1024 events in flight, each rescheduling itself at a varied delay: the
  // wheel's intended steady state (deep pending set, zero allocations).
  constexpr uint64_t kPending = 1024;
  constexpr uint64_t kDispatches = 64 * 1024;
  for (auto _ : state) {
    state.PauseTiming();
    Engine sim;
    uint64_t remaining = kDispatches;
    uint64_t lcg = 0x9e3779b97f4a7c15ull;
    std::function<void()> tick = [&]() {
      if (remaining > 0) {
        --remaining;
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        sim.ScheduleAfter(100 + (lcg >> 33) % 10'000, tick);
      }
    };
    for (uint64_t i = 0; i < kPending; ++i) {
      sim.ScheduleAfter(100 + i, tick);
    }
    state.ResumeTiming();
    sim.RunToCompletion();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDispatches + kPending));
}
BENCHMARK_TEMPLATE(BM_SimulatorSteadyState, Simulator);
BENCHMARK_TEMPLATE(BM_SimulatorSteadyState, ReferenceSimulator);

void BM_ObsCounterInc(benchmark::State& state) {
  // The per-event cost of the always-on metrics layer: a pointer chase and
  // a plain add (the single-threaded datapath variant).
  obs::MetricsRegistry registry;
  auto counter = registry.GetCounter("bench", "hook", "events");
  for (auto _ : state) {
    counter->Inc();
    benchmark::DoNotOptimize(counter->value);
  }
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsCounterIncAtomic(benchmark::State& state) {
  // The thread-safe variant map ops use.
  obs::MetricsRegistry registry;
  auto counter = registry.GetCounter("bench", "map", "ops");
  for (auto _ : state) {
    counter->IncAtomic();
    benchmark::DoNotOptimize(counter->value);
  }
}
BENCHMARK(BM_ObsCounterIncAtomic);

void BM_ObsCounterIncAtomicContended(benchmark::State& state) {
  // All threads hammer ONE counter cell with IncAtomic: the cache-line
  // ping-pong concurrent map operations pay on a shared map's counters.
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  std::shared_ptr<obs::Counter> counter =
      registry->GetCounter("bench", "hook", "contended");
  for (auto _ : state) {
    counter->IncAtomic();
  }
  benchmark::DoNotOptimize(counter->value);
}
BENCHMARK(BM_ObsCounterIncAtomicContended)->Threads(2)->Threads(4);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::LatencyHistogram histogram;
  Rng rng(6);
  for (auto _ : state) {
    histogram.Record(rng.NextBounded(1'000'000));
  }
  benchmark::DoNotOptimize(histogram.Percentile(99));
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_SyrupdDispatch(benchmark::State& state) {
  // The per-packet dispatcher path with metrics on: port match, per-hook +
  // per-app accounting, decision classification, native policy decision.
  // Guards the acceptance criterion that the registry adds no measurable
  // overhead to dispatch throughput.
  Simulator sim;
  HostStack stack(sim, StackConfig{});
  Syrupd syrupd(sim, &stack);
  const AppId app = syrupd.RegisterApp("bench", /*uid=*/1000, 9000).value();
  (void)syrupd
      .DeployNativePolicy(app, std::make_shared<RoundRobinPolicy>(6),
                          Hook::kSocketSelect)
      .value();
  const Packet pkt = BenchPacket();
  const PacketView view = PacketView::Of(pkt);
  SteerHook& dispatch = stack.hooks().socket_select;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatch(view));
  }
}
BENCHMARK(BM_SyrupdDispatch);

// Dispatch with a compiled bytecode policy (MICA home steering): the
// policy executes on every packet. The raw-pointer dispatch
// (PortEntry::policy_raw) keeps shared_ptr refcount traffic off this path.
void BM_SyrupdDispatchBytecode(benchmark::State& state) {
  Simulator sim;
  HostStack stack(sim, StackConfig{});
  Syrupd syrupd(sim, &stack);
  const AppId app = syrupd.RegisterApp("bench", /*uid=*/1000, 9000).value();
  (void)syrupd.DeployPolicyFile(app, MicaHomePolicyAsm(6), Hook::kSocketSelect)
      .value();
  const Packet pkt = BenchPacket();
  const PacketView view = PacketView::Of(pkt);
  SteerHook& dispatch = stack.hooks().socket_select;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatch(view));
  }
}
BENCHMARK(BM_SyrupdDispatchBytecode);

void BM_FiveTupleHash(benchmark::State& state) {
  FiveTuple tuple{0x0a000001, 0x0a0000ff, 20'000, 9000, 17};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuple.Hash());
    tuple.src_port++;
  }
}
BENCHMARK(BM_FiveTupleHash);

}  // namespace
}  // namespace syrup

BENCHMARK_MAIN();
