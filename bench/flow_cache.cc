// Flow-decision cache x execution tier: cached vs uncached dispatch cost,
// machine-readable.
//
// Sweeps flow counts (cache-friendly through cache-thrashing) across the
// packet hooks, driving the stack's installed hook functions directly —
// the same dispatch path the simulator exercises, minus simulated time —
// with a verifier-pure bytecode policy deployed through syrupd, once at the
// compiled and once at the native tier. Each (scenario, tier) row measures
// ns/packet with the cache enabled (`cached`: steady state, table warmed)
// and disabled (`uncached`: every packet executes the policy), plus the
// batched entry point (`batch`: Syrupd::DispatchBatch in bursts of 32, the
// shape RxBurst produces), and reads the hit rate from the
// flow_cache.{hits,misses} counters.
//
// The deploy-time gate (policy.cacheable: pure, and priced above
// flow_cache_probe_ns at the tier) decides whether `cached` engages the
// cache at all. Each row prints the gate's verdict next to the measured
// winner — engaged cached dispatch vs uncached — so the checked-in
// flow_cache_probe_ns (src/bpf/cost_model.cc) can be checked on this host.
// Where the gate declined the cache, the engaged cost is the other tier's
// cached row: a hit never runs the policy, so the hit path is the same
// code at either tier. Writes `BENCH_flow_cache.json` so the perf
// trajectory is tracked across PRs.
//
// Gates (exit 1 on violation) so CI catches the cache silently degrading
// into a slower path:
//   - least_loaded_f256 (map-consulting; its key collapses to one entry)
//     is served from the cache at >= 90% hit rate on both tiers. Its speed
//     bound is the absolute cached-ns ceiling its rows carry in
//     bench/flow_cache_baseline.json (checked with --baseline), not a ratio
//     to uncached dispatch, which punished every speedup of the policy.
//   - at the compiled tier, cached dispatch is never slower than uncached
//     at any flow count, including the oversubscribed 8192- and 100k-flow
//     scenarios, which adaptive sizing must absorb rather than thrash on.
//     Native rows are reported, not gated: the static gate cannot see
//     table residency (see DESIGN.md, "When the cache engages").
//
// Flags:
//   --quick            ~10x fewer packets per scenario (CI smoke mode)
//   --baseline <file>  compare cached ns/packet against the checked-in
//                      baseline; exit 1 on a >25% regression
//   --out <file>       JSON output path (default BENCH_flow_cache.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/bpf/cost_model.h"
#include "src/common/rng.h"
#include "src/core/syrup_api.h"
#include "src/core/syrupd.h"
#include "src/net/stack.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

constexpr uint16_t kPort = 9000;

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<Packet> MakeFlows(uint32_t num_flows) {
  std::vector<Packet> flows;
  flows.reserve(num_flows);
  for (uint32_t flow = 0; flow < num_flows; ++flow) {
    Packet pkt;
    pkt.tuple.src_ip = 0x0a000001;
    pkt.tuple.dst_ip = 0x0a0000ff;
    pkt.tuple.src_port = static_cast<uint16_t>(20'000 + (flow & 0x3FF));
    pkt.tuple.dst_port = kPort;
    // MicaHome keys on key_hash: one distinct cache key per flow.
    pkt.SetHeader(ReqType::kGet, 1, flow * 2654435761u, flow, 0);
    flows.push_back(pkt);
  }
  return flows;
}

struct ScenarioResult {
  bpf::ExecMode tier = bpf::ExecMode::kCompiled;  // the effective tier
  bool gate = false;  // policy.cacheable: the deploy-time verdict
  double priced_ns = 0;  // the verifier's wcet_ns at that tier
  double cached_ns = 0;
  double uncached_ns = 0;
  double batch_ns = 0;  // DispatchBatch bursts of 32, cache enabled
  double hit_rate = 0;  // of the cached measured window
  // Cached dispatch with the cache engaged: cached_ns where the gate
  // engaged it, else the other tier's cached_ns (0: engaged on neither).
  double engaged_ns = 0;

  // The measured winner: does engaging the cache beat uncached dispatch?
  bool CacheWins() const { return engaged_ns < uncached_ns; }
};

// One syrupd per run so cache tables, counters, and maps start cold.
struct Harness {
  Harness(bpf::ExecMode mode, bool cache_enabled)
      : stack(sim, StackConfig{}), syrupd(sim, &stack) {
    syrupd.set_exec_mode(mode);
    FlowCacheConfig config;
    config.enabled = cache_enabled;
    syrupd.set_flow_cache_config(config);
    app = syrupd.RegisterApp("bench", 1000, kPort).value();
  }

  uint64_t CacheCounter(Hook hook, const char* name) {
    return syrupd.StatsSnapshot().CounterValue(
        "syrupd", HookName(hook), std::string("flow_cache.") + name);
  }

  Simulator sim;
  HostStack stack;
  Syrupd syrupd;
  AppId app = 0;
};

SteerHook& HookFn(HostStack& stack, Hook hook) {
  switch (hook) {
    case Hook::kXdpDrv:
      return stack.hooks().xdp_drv;
    case Hook::kCpuRedirect:
      return stack.hooks().cpu_redirect;
    default:
      return stack.hooks().socket_select;
  }
}

// Measures ns/packet for `iters` round-robin passes over the flow set.
double MeasureNs(SteerHook& fn, const std::vector<PacketView>& views,
                 uint64_t iters) {
  uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    sink += fn(views[i % views.size()]);
  }
  const double elapsed = ElapsedNs(start);
  // Keep the decisions observable so the loop cannot be elided.
  if (sink == 0xFFFFFFFFFFFFFFFFull) {
    std::printf("# sink %llu\n", static_cast<unsigned long long>(sink));
  }
  return elapsed / static_cast<double>(iters);
}

// Measures ns/packet for the batched entry point: bursts of up to 32
// packets through Syrupd::DispatchBatch — key computation and slot
// prefetch hoisted across the burst, the shape HostStack::RxBurst feeds.
double MeasureBatchNs(Syrupd& syrupd, Hook hook,
                      const std::vector<PacketView>& views, uint64_t iters) {
  constexpr size_t kBurst = 32;
  Decision out[kBurst];
  uint64_t sink = 0;
  uint64_t done = 0;
  size_t pos = 0;
  const auto start = std::chrono::steady_clock::now();
  while (done < iters) {
    const size_t n = std::min({kBurst, views.size() - pos,
                               static_cast<size_t>(iters - done)});
    syrupd.DispatchBatch(hook, std::span<const PacketView>(&views[pos], n),
                         std::span<Decision>(out, n));
    sink += out[n - 1];
    done += n;
    pos += n;
    if (pos == views.size()) {
      pos = 0;
    }
  }
  const double elapsed = ElapsedNs(start);
  if (sink == 0xFFFFFFFFFFFFFFFFull) {
    std::printf("# sink %llu\n", static_cast<unsigned long long>(sink));
  }
  return elapsed / static_cast<double>(iters);
}

// Which verified policy a scenario deploys. All three are pure; they
// differ in what the cache can save:
//   kMicaHome        pure packet arithmetic (~tens of ns compiled, a few
//                    ns native) — cheap enough that re-execution beats a
//                    DRAM-resident table, so it covers the small/medium
//                    flow counts only.
//   kLeastLoaded     map-consulting but reads no packet bytes: its cache
//                    key collapses to (port, len), one entry total. The
//                    headline gate.
//   kHashedTwoChoice flow-hash home + deterministic two-choice over the
//                    load map: packet-keyed (per-flow entries) AND
//                    map-consulting (real recompute cost). The
//                    representative shape for memoization at scale, so the
//                    oversubscribed scenarios (f8192, f100k) gate on it.
enum class BenchPolicy { kMicaHome, kLeastLoaded, kHashedTwoChoice };

// Deterministic d=2 choices keyed by the packet's flow hash: look up the
// flow's home executor and its neighbor in the load map, steer to the less
// loaded. No randomness (get_prandom_u32 would make it uncacheable) — the
// flow hash supplies the spread, the map supplies the load signal.
std::string HashedTwoChoicePolicyAsm() {
  return R"(
.name hashed_two_choice
.ctx packet
.extern_map load /syrup/bench/load
  mov r3, r1
  add r3, 24
  jgt r3, r2, pass
  ldxw r6, [r1+20]
  mod r6, 6            ; home = flow_hash % 6
  mov r7, r6
  add r7, 1
  mod r7, 6            ; neighbor
  stxw [r10-4], r6
  ldmapfd r1, load
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jeq r0, 0, pass
  ldxdw r8, [r0+0]     ; load[home]
  stxw [r10-4], r7
  ldmapfd r1, load
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jeq r0, 0, pass
  ldxdw r9, [r0+0]     ; load[neighbor]
  jlt r9, r8, pick_b
  mov r0, r6
  exit
pick_b:
  mov r0, r7
  exit
pass:
  mov r0, PASS
  exit
)";
}

// Pre-pins the extern load map the map-consulting policies resolve at
// deploy, seeded so the decision is stable. Returns the handle to keep it
// alive.
MapHandle PinLoadMap(Harness& h) {
  SyrupClient client(h.syrupd, h.app);
  MapSpec spec;
  spec.max_entries = 6;
  spec.name = "load";
  MapHandle load = client.MapCreate(spec, "/syrup/bench/load").value();
  for (uint32_t i = 0; i < 6; ++i) {
    if (!load.Update(i, 10 + i).ok()) {
      std::exit(1);
    }
  }
  return load;
}

// Access order. Uniform scenarios round-robin the flow set. `skewed`
// scenarios model scale traffic: 90% of packets from a 4096-flow hot set,
// 10% a one-shot cold tail that sweeps the rest of the universe (each tail
// flow recurs only once per ~full sweep — far beyond any realistic
// residency horizon). That is the regime a sketch-guarded adaptive cache
// targets at 100k flows: uniformly cycling a 100k-flow universe recurs
// each flow once per 100k packets, a pattern with no temporal locality for
// ANY cache (the uncached policy wins that one by construction, so it
// would gate nothing but memory bandwidth).
std::vector<PacketView> MakeAccess(const std::vector<Packet>& flows,
                                   bool skewed) {
  const uint32_t num_flows = static_cast<uint32_t>(flows.size());
  std::vector<PacketView> access;
  if (!skewed) {
    for (const Packet& pkt : flows) {
      access.push_back(PacketView::Of(pkt));
    }
    return access;
  }
  Rng rng(0x5eedull);
  const uint32_t hot = std::min<uint32_t>(4096, num_flows);
  uint32_t cold_cursor = 0;
  access.reserve(size_t{1} << 17);
  for (size_t i = 0; i < (size_t{1} << 17); ++i) {
    uint32_t flow;
    if (num_flows <= hot || rng.NextBounded(10) != 0) {
      flow = static_cast<uint32_t>(rng.NextBounded(hot));
    } else {
      flow = hot + cold_cursor;
      cold_cursor = (cold_cursor + 1) % (num_flows - hot);
    }
    access.push_back(PacketView::Of(flows[flow]));
  }
  return access;
}

ScenarioResult RunScenario(Hook hook, const std::string& policy_asm,
                           bool needs_load_map, uint32_t num_flows,
                           const std::vector<PacketView>& access,
                           bpf::ExecMode mode, uint64_t iters) {
  // Noise control on a shared machine: the gates compare variants, so the
  // cached, uncached, and batched variants are measured in interleaved
  // rounds (an interference burst then inflates all three alike instead of
  // corrupting one side of a comparison), and each variant keeps the
  // minimum over kReps rounds — the standard estimator for "the code's
  // cost without interference".
  constexpr int kReps = 3;

  Harness cached_h(mode, /*cache_enabled=*/true);
  Harness uncached_h(mode, /*cache_enabled=*/false);
  MapHandle cached_load;
  MapHandle uncached_load;
  if (needs_load_map) {
    cached_load = PinLoadMap(cached_h);
    uncached_load = PinLoadMap(uncached_h);
  }
  auto prog_id =
      cached_h.syrupd.DeployPolicyFile(cached_h.app, policy_asm, hook);
  if (!prog_id.ok() ||
      !uncached_h.syrupd.DeployPolicyFile(uncached_h.app, policy_asm, hook)
           .ok()) {
    std::fprintf(stderr, "deploy failed for %s\n",
                 std::string(HookName(hook)).c_str());
    std::exit(1);
  }
  Syrupd& syrupd = cached_h.syrupd;
  const uint64_t id = static_cast<uint64_t>(*prog_id);
  ScenarioResult r;
  r.tier = bpf::EffectiveExecMode(syrupd.CompiledById(id));
  r.gate = syrupd.StatsSnapshot().GaugeValue("bench", HookName(hook),
                                             "policy.cacheable") == 1;
  r.priced_ns =
      syrupd.FactsById(id)->cost.wcet_ns[static_cast<size_t>(r.tier)];

  SteerHook& cached_fn = HookFn(cached_h.stack, hook);
  SteerHook& uncached_fn = HookFn(uncached_h.stack, hook);
  // Warm the table. One pass populates every flow that fits a static
  // table; large flow sets need a few passes so adaptive sizing observes
  // the live-flow estimate and grows to steady state before measuring.
  // The uncached harness gets the identical warmup for fairness.
  const int warm_passes = num_flows >= 8192 ? 4 : 1;
  for (int pass = 0; pass < warm_passes; ++pass) {
    for (const PacketView& view : access) {
      (void)cached_fn(view);
      (void)uncached_fn(view);
    }
  }
  const uint64_t hits0 = cached_h.CacheCounter(hook, "hits");
  const uint64_t misses0 = cached_h.CacheCounter(hook, "misses");
  auto keep_min = [](int rep, double& best, double ns) {
    best = rep == 0 ? ns : std::min(best, ns);
  };
  for (int rep = 0; rep < kReps; ++rep) {
    keep_min(rep, r.cached_ns, MeasureNs(cached_fn, access, iters));
    keep_min(rep, r.uncached_ns, MeasureNs(uncached_fn, access, iters));
    keep_min(rep, r.batch_ns, MeasureBatchNs(syrupd, hook, access, iters));
  }
  const uint64_t hits = cached_h.CacheCounter(hook, "hits") - hits0;
  const uint64_t misses = cached_h.CacheCounter(hook, "misses") - misses0;
  r.hit_rate = static_cast<double>(hits) /
               static_cast<double>(hits + misses > 0 ? hits + misses : 1);
  return r;
}

// --- Sharded per-lane tables at the 1M-flow scale ---------------------------
//
// The sharded simulation engine gives each shard its own Syrupd dispatch
// lane (Syrupd::ConfigureSharding): a private cache table and counter
// cells per lane. This scenario drives a 1,000,000-flow universe
// partitioned across 4 lanes — each lane dispatches only its quarter-
// million-flow partition, under the same skewed 90/10 access the f100k
// scenario uses — through the shard-qualified DispatchBatch, and reports
// aggregate ns/packet plus the hit rate folded across lanes by
// StatsSnapshot. Deliberately ungated: the acceptance bar is that the
// 1M-flow scale *completes* with per-lane adaptive tables (no thrash, no
// blowup), not a machine-dependent ratio.
struct ShardedScaleResult {
  double ns_per_packet = 0;
  double hit_rate = 0;
  uint64_t packets = 0;
};

ShardedScaleResult RunShardedMillionFlows(uint64_t iters) {
  constexpr int kShards = 4;
  constexpr uint32_t kFlows = 1'000'000;
  constexpr uint32_t kPerShard = kFlows / kShards;
  constexpr Hook kHook = Hook::kSocketSelect;
  const std::vector<Packet> flows = MakeFlows(kFlows);

  Harness h(bpf::ExecMode::kCompiled, /*cache_enabled=*/true);
  MapHandle load = PinLoadMap(h);
  if (!h.syrupd.DeployPolicyFile(h.app, HashedTwoChoicePolicyAsm(), kHook)
           .ok()) {
    std::fprintf(stderr, "deploy failed for sharded_f1m\n");
    std::exit(1);
  }
  h.syrupd.ConfigureSharding(kShards);

  // Per-lane access sequence: 90% over the partition's 4096-flow hot set,
  // 10% a one-shot cold tail sweeping the rest of the quarter-million.
  std::vector<std::vector<PacketView>> access(kShards);
  for (int s = 0; s < kShards; ++s) {
    Rng rng(0x5eedull + static_cast<uint64_t>(s));
    const uint32_t base = static_cast<uint32_t>(s) * kPerShard;
    constexpr uint32_t kHot = 4096;
    uint32_t cold_cursor = 0;
    access[s].reserve(size_t{1} << 17);
    for (size_t i = 0; i < (size_t{1} << 17); ++i) {
      uint32_t flow;
      if (rng.NextBounded(10) != 0) {
        flow = base + static_cast<uint32_t>(rng.NextBounded(kHot));
      } else {
        flow = base + kHot + cold_cursor;
        cold_cursor = (cold_cursor + 1) % (kPerShard - kHot);
      }
      access[s].push_back(PacketView::Of(flows[flow]));
    }
  }

  // Warm every lane so adaptive sizing observes its partition's live-flow
  // estimate before the measured window.
  constexpr size_t kBurst = 32;
  Decision out[kBurst];
  for (int s = 0; s < kShards; ++s) {
    for (size_t pos = 0; pos < access[s].size(); pos += kBurst) {
      const size_t n = std::min(kBurst, access[s].size() - pos);
      h.syrupd.DispatchBatch(kHook,
                             std::span<const PacketView>(&access[s][pos], n),
                             std::span<Decision>(out, n), s);
    }
  }

  const uint64_t hits0 = h.CacheCounter(kHook, "hits");
  const uint64_t misses0 = h.CacheCounter(kHook, "misses");
  uint64_t sink = 0;
  uint64_t done = 0;
  size_t pos[kShards] = {};
  const auto start = std::chrono::steady_clock::now();
  // Interleave lanes burst by burst so no lane's table goes cold.
  while (done < iters) {
    for (int s = 0; s < kShards && done < iters; ++s) {
      const size_t n = std::min({kBurst, access[s].size() - pos[s],
                                 static_cast<size_t>(iters - done)});
      h.syrupd.DispatchBatch(
          kHook, std::span<const PacketView>(&access[s][pos[s]], n),
          std::span<Decision>(out, n), s);
      sink += out[n - 1];
      done += n;
      pos[s] += n;
      if (pos[s] == access[s].size()) {
        pos[s] = 0;
      }
    }
  }
  const double elapsed = ElapsedNs(start);
  if (sink == 0xFFFFFFFFFFFFFFFFull) {
    std::printf("# sink %llu\n", static_cast<unsigned long long>(sink));
  }
  const uint64_t hits = h.CacheCounter(kHook, "hits") - hits0;
  const uint64_t misses = h.CacheCounter(kHook, "misses") - misses0;
  ShardedScaleResult r;
  r.packets = done;
  r.ns_per_packet = elapsed / static_cast<double>(done);
  r.hit_rate = static_cast<double>(hits) /
               static_cast<double>(hits + misses > 0 ? hits + misses : 1);
  return r;
}

struct Scenario {
  const char* name;
  Hook hook;
  BenchPolicy policy;
  uint32_t num_flows;
  // Skewed access (90% over a 4096-flow hot set, 10% one-shot cold tail)
  // instead of uniform round-robin — used for the 100k-flow universe,
  // where uniform cycling has no temporal locality for any cache by
  // construction.
  bool skewed = false;
};

bool BaselineFor(const std::string& text, const std::string& name,
                 double* out) {
  const std::string needle = "\"" + name + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  return std::sscanf(text.c_str() + pos + needle.size(), " %lf", out) == 1;
}

const char* Verdict(bool cache) { return cache ? "cache" : "exec"; }

int Run(bool quick, const char* out_path, const char* baseline_path) {
  // Flow counts pick the cache's regimes: 16 and 256 sit comfortably in
  // the default 4096-slot table (~100% steady-state hit rate) and 1536
  // loads it, all on the pure-arithmetic MicaHome policy. The scale
  // scenarios (8192 and a 100k-flow universe under skewed 90/10 access)
  // run the hashed_two_choice policy instead: per-flow keys AND a real
  // recompute cost (two map lookups), the workload memoization exists
  // for — a policy cheaper than a DRAM line can't lose by being
  // re-executed, so gating MicaHome at 100k flows would only measure
  // memory bandwidth. Adaptive sizing must grow the table to the live-flow
  // estimate during warmup and the admission sketch must keep the hot set
  // resident against the cold tail.
  const Scenario scenarios[] = {
      {"socket_select_f16", Hook::kSocketSelect, BenchPolicy::kMicaHome, 16},
      {"socket_select_f256", Hook::kSocketSelect, BenchPolicy::kMicaHome, 256},
      {"socket_select_f1536", Hook::kSocketSelect, BenchPolicy::kMicaHome,
       1536},
      {"socket_select_f8192", Hook::kSocketSelect,
       BenchPolicy::kHashedTwoChoice, 8192},
      {"socket_select_f100k", Hook::kSocketSelect,
       BenchPolicy::kHashedTwoChoice, 100'000, true},
      {"xdp_drv_f256", Hook::kXdpDrv, BenchPolicy::kMicaHome, 256},
      {"cpu_redirect_f256", Hook::kCpuRedirect, BenchPolicy::kMicaHome, 256},
      {"least_loaded_f256", Hook::kSocketSelect, BenchPolicy::kLeastLoaded,
       256},
  };
  constexpr bpf::ExecMode kTiers[] = {bpf::ExecMode::kCompiled,
                                      bpf::ExecMode::kNative};
  const uint64_t iters = quick ? 400'000 : 4'000'000;
  const double probe_ns = bpf::DefaultCostModel().flow_cache_probe_ns;

  // Keyed "<scenario>@<requested tier>".
  std::map<std::string, ScenarioResult> results;
  std::printf("# flow_cache x tier: cached vs uncached dispatch (%s mode); "
              "gate = deploy-time verdict at flow_cache_probe_ns %.1f\n",
              quick ? "quick" : "full", probe_ns);
  std::printf("%-30s %-9s %11s %11s %11s %8s %8s | %11s %11s %6s %6s\n",
              "scenario@tier", "ran", "cached", "uncached", "batch",
              "speedup", "hit_rate", "engaged", "priced", "winner", "gate");
  int agree = 0;
  int compared = 0;
  for (const Scenario& s : scenarios) {
    const std::string policy_asm =
        s.policy == BenchPolicy::kLeastLoaded
            ? LeastLoadedPolicyAsm(6, "/syrup/bench/load")
            : (s.policy == BenchPolicy::kHashedTwoChoice
                   ? HashedTwoChoicePolicyAsm()
                   : MicaHomePolicyAsm(6));
    const std::vector<Packet> flows = MakeFlows(s.num_flows);
    const std::vector<PacketView> access = MakeAccess(flows, s.skewed);
    ScenarioResult rows[std::size(kTiers)];
    for (size_t t = 0; t < std::size(kTiers); ++t) {
      rows[t] =
          RunScenario(s.hook, policy_asm, s.policy != BenchPolicy::kMicaHome,
                      s.num_flows, access, kTiers[t], iters);
    }
    for (size_t t = 0; t < std::size(kTiers); ++t) {
      ScenarioResult& r = rows[t];
      const ScenarioResult& other = rows[1 - t];
      r.engaged_ns = r.gate ? r.cached_ns : other.gate ? other.cached_ns : 0;
      const bool measured = r.engaged_ns > 0;
      const bool differs = measured && r.CacheWins() != r.gate;
      compared += measured ? 1 : 0;
      agree += measured && !differs ? 1 : 0;
      const std::string key = std::string(s.name) + "@" +
                              std::string(bpf::ExecModeName(kTiers[t]));
      std::printf(
          "%-30s %-9s %8.1f ns %8.1f ns %8.1f ns %7.2fx %7.1f%% | %8.1f ns "
          "%8.1f ns %6s %6s%s\n",
          key.c_str(), std::string(bpf::ExecModeName(r.tier)).c_str(),
          r.cached_ns, r.uncached_ns, r.batch_ns, r.uncached_ns / r.cached_ns,
          r.hit_rate * 100.0, r.engaged_ns, r.priced_ns,
          measured ? Verdict(r.CacheWins()) : "-", Verdict(r.gate),
          differs ? "  (differs)" : "");
      results[key] = r;
    }
  }
  std::printf("# gate agrees with the measured winner on %d of %d rows\n",
              agree, compared);

  const ShardedScaleResult sharded = RunShardedMillionFlows(iters);
  std::printf("%-30s %-9s %8.1f ns %11s %11s %8s %7.1f%%  (1M flows, 4 "
              "lanes)\n",
              "sharded_f1m", "compiled", sharded.ns_per_packet, "-", "-", "-",
              sharded.hit_rate * 100.0);

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"flow_cache\",\n"
               "  \"unit\": \"ns_per_packet\",\n"
               "  \"mode\": \"%s\",\n  \"flow_cache_probe_ns\": %.1f,\n"
               "  \"scenarios\": {\n",
               quick ? "quick" : "full", probe_ns);
  size_t index = 0;
  for (const auto& [name, r] : results) {
    std::fprintf(out,
                 "    \"%s\": {\"cached\": %.2f, \"uncached\": %.2f, "
                 "\"batch\": %.2f, \"speedup\": %.3f, "
                 "\"batch_speedup\": %.3f, \"hit_rate\": %.4f, "
                 "\"tier\": \"%s\", \"engaged\": %.2f, \"priced\": %.1f, "
                 "\"winner\": \"%s\", \"gate\": \"%s\"}%s\n",
                 name.c_str(), r.cached_ns, r.uncached_ns, r.batch_ns,
                 r.uncached_ns / r.cached_ns, r.uncached_ns / r.batch_ns,
                 r.hit_rate, std::string(bpf::ExecModeName(r.tier)).c_str(),
                 r.engaged_ns, r.priced_ns,
                 r.engaged_ns > 0 ? Verdict(r.CacheWins()) : "-",
                 Verdict(r.gate), ++index == results.size() ? "" : ",");
  }
  std::fprintf(out,
               "  },\n  \"sharded_f1m\": {\"ns_per_packet\": %.2f, "
               "\"hit_rate\": %.4f, \"packets\": %llu, \"shards\": 4, "
               "\"flows\": 1000000}\n}\n",
               sharded.ns_per_packet, sharded.hit_rate,
               static_cast<unsigned long long>(sharded.packets));
  std::fclose(out);
  std::printf("# wrote %s\n", out_path);

  int failures = 0;

  // Map-consulting policies are what memoization is for: least_loaded must
  // be served from the cache on both tiers (its cached-ns ceilings in the
  // baseline bound the hit path's speed).
  for (const char* name :
       {"least_loaded_f256@compiled", "least_loaded_f256@native"}) {
    const ScenarioResult& r = results[name];
    if (!r.gate || r.hit_rate < 0.90) {
      std::fprintf(stderr, "GATE: %s hit rate %.1f%% < 90%% (gate %s)\n",
                   name, r.hit_rate * 100.0, Verdict(r.gate));
      ++failures;
    } else {
      std::printf("# gate ok: %s served from the cache at %.1f%% hit rate\n",
                  name, r.hit_rate * 100.0);
    }
  }

  // No-regression gate on the compiled tier: cached dispatch must never
  // lose to uncached dispatch — the oversubscribed scenarios (f8192, f100k)
  // are exactly where the fixed-size table used to thrash.
  bool never_slower = true;
  for (const auto& [name, r] : results) {
    const double speedup = r.uncached_ns / r.cached_ns;
    if (r.tier == bpf::ExecMode::kCompiled && speedup < 1.0) {
      std::fprintf(stderr,
                   "GATE: %s regresses under the cache — cached %.1f ns vs "
                   "uncached %.1f ns (%.2fx, hit rate %.1f%%)\n",
                   name.c_str(), r.cached_ns, r.uncached_ns, speedup,
                   r.hit_rate * 100.0);
      never_slower = false;
      ++failures;
    }
  }
  if (never_slower) {
    std::printf("# gate ok: compiled tier cached >= uncached at every flow "
                "count\n");
  }

  if (baseline_path == nullptr) {
    return failures > 0 ? 1 : 0;
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

  constexpr double kTolerance = 1.25;  // fail on >25% regression
  for (const auto& [name, r] : results) {
    if (name.ends_with("@native") && r.tier != bpf::ExecMode::kNative) {
      // JIT unavailable: the row repeats its compiled twin.
      std::printf("# baseline skipped %s: ran on the %s tier\n", name.c_str(),
                  std::string(bpf::ExecModeName(r.tier)).c_str());
      continue;
    }
    double baseline_ns;
    if (!BaselineFor(text, name, &baseline_ns)) {
      std::fprintf(stderr, "baseline missing scenario %s\n", name.c_str());
      ++failures;
      continue;
    }
    if (r.cached_ns > baseline_ns * kTolerance) {
      std::fprintf(stderr,
                   "REGRESSION %s: cached %.1f ns/packet vs baseline %.1f "
                   "(limit %.1f)\n",
                   name.c_str(), r.cached_ns, baseline_ns,
                   baseline_ns * kTolerance);
      ++failures;
    } else {
      std::printf("# baseline ok %s: %.1f ns/packet <= %.1f\n", name.c_str(),
                  r.cached_ns, baseline_ns * kTolerance);
    }
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  bool quick = false;
  const char* out_path = "BENCH_flow_cache.json";
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
