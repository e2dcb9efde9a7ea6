// End-to-end benchmark: wall time per simulated request on the paper's
// configurations, plus a traced per-layer breakdown. One process runs one
// workload in one mode and prints one JSON document as its last stdout
// line; bench/e2e/run.py builds this binary, runs it and checks the
// digests it reports against bench/e2e/expected.json.
//
//   e2e_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//   e2e_bench --smoke [--workload <name>]
//
// --trace 0 (timed): one discarded warm-up rep, then timed reps of the
//   public entry point until --seconds have passed, then zero-length runs
//   (warmup = measure = 0) for the set-up time, then one untraced run of the
//   bench-local copy (hosts.h) whose digest must equal every rep's.
// --trace 1 (traced): a warm-up rep, a timed untraced rep, then one traced
//   rep of the bench-local copy, post-run replays of the captured inputs,
//   and zero-length copies for the deploy-time gauges.
// --smoke: both modes on every workload at a tenth of the rep size with
//   minimal repetition; a fidelity check, not a measurement.
//
// Exit codes: 0 ok, 1 fidelity failure or refused build, 2 usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/e2e/hosts.h"
#include "bench/e2e/trace.h"
#include "bench/e2e/workloads.h"
#include "src/bpf/compiler.h"
#include "src/bpf/jit.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define E2E_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define E2E_SANITIZED 1
#endif
#endif

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace syrup::e2e {
namespace {

#if defined(NDEBUG) && defined(__OPTIMIZE__) && !defined(E2E_SANITIZED)
constexpr bool kTimingBuild = true;
#else
constexpr bool kTimingBuild = false;
#endif

// How much repetition a run does.
struct Plan {
  size_t min_reps;
  double seconds;       // timed reps continue until this much wall time
  int setup_runs;       // zero-length public runs for setup_s
  int replay_passes;    // median pass per replay kind
  int deploy_builds;    // zero-length copies for the deploy-time gauges
};

constexpr size_t kMaxReps = 500;

Plan MeasurePlan(double seconds) { return {3, seconds, 31, 5, 15}; }
constexpr Plan kSmokePlan = {2, 0.0, 3, 1, 2};

Workload SmokeSized(const Workload& w) {
  return w.With(w.seed(), w.warmup() / 2, w.measure() / 10);
}

// --- statistics (quartiles as Python's statistics.quantiles(n=4)) --------

struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  size_t n = 0;
};

Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) {
    return s;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const size_t m = n + 1;
  double q[3];
  for (size_t i = 1; i <= 3; ++i) {
    size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  s.q1 = q[0];
  s.q3 = q[2];
  return s;
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).median; }

double Per(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- JSON output ----------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// Accumulates "key": value pairs; values are already-rendered JSON.
class Object {
 public:
  Object& Add(std::string_view key, const std::string& value) {
    body_ += body_.empty() ? "" : ", ";
    body_ += Str(key) + ": " + value;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + items[i];
  }
  return out + "]";
}

std::string DigestJson(const Digest& digest) {
  Object o;
  for (const auto& [field, value] : digest) {
    o.Add(field, Num(value));
  }
  return o.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Summary summary;  // n > 0 for timings reported with their spread
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  Object o;
  for (const Metric& m : metrics) {
    Object entry;
    entry.Add("value", Num(m.value)).Add("unit", Str(m.unit));
    if (m.summary.n > 0) {
      entry.Add("q1", Num(m.summary.q1))
          .Add("q3", Num(m.summary.q3))
          .Add("n", std::to_string(m.summary.n));
    }
    o.Add(m.name, entry.str());
  }
  return o.str();
}

// Fields every report starts with.
Object Header(const Workload& w, std::string_view mode) {
  Object o;
  o.Add("workload", Str(w.name))
      .Add("mode", Str(mode))
      .Add("seed", std::to_string(w.seed()))
      .Add("warmup_ns", std::to_string(w.warmup()))
      .Add("measure_ns", std::to_string(w.measure()))
      .Add("offered_per_rep", Num(w.OfferedRequests()))
      .Add("window_requests",
           Num(w.OfferedRequests() * ToSeconds(w.measure()) /
               ToSeconds(w.warmup() + w.measure())))
      .Add("threads", std::to_string(w.hosts()))
      .Add("nproc", std::to_string(std::thread::hardware_concurrency()))
      .Add("compiler", Str(__VERSION__))
      .Add("build_type", Str(E2E_BUILD_TYPE));
  return o;
}

// The process's resident-set high-water mark. Read from VmHWM rather than
// getrusage's ru_maxrss, which Linux carries across exec and so reports the
// launching interpreter's peak for a small benchmark process.
double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  SYRUP_CHECK(status != nullptr) << "cannot read /proc/self/status";
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  SYRUP_CHECK(kib > 0) << "no VmHWM in /proc/self/status";
  return static_cast<double>(kib) / 1024.0;
}

// --- timed mode -------------------------------------------------------------

bool TimedMode(const Workload& w, const Plan& plan) {
  RunPublic(w);  // warm-up rep, discarded

  // Set-up cost: the same entry point with nothing to simulate but the
  // drain (host build, registration, deploy, map creation, teardown).
  // Measured before the timed reps so the allocator state it starts from
  // does not depend on how many reps fit in --seconds.
  const Workload zero = w.With(w.seed(), 0, 0);
  std::vector<double> setup_s;
  for (int i = 0; i < plan.setup_runs; ++i) {
    const uint64_t t0 = WallNs();
    RunPublic(zero);
    setup_s.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
  }

  std::vector<PublicRun> reps;
  std::vector<double> wall_ns_per_req;
  const uint64_t start = WallNs();
  while (reps.size() < plan.min_reps ||
         (reps.size() < kMaxReps &&
          static_cast<double>(WallNs() - start) < plan.seconds * 1e9)) {
    const uint64_t t0 = WallNs();
    reps.push_back(RunPublic(w));
    wall_ns_per_req.push_back(static_cast<double>(WallNs() - t0) /
                              w.OfferedRequests());
  }

  CopyExperiment copy(w, /*traced=*/false);
  copy.Run();
  const Digest copy_digest = copy.Result();

  bool consistent = true;
  std::vector<std::string> rep_json;
  for (const PublicRun& rep : reps) {
    consistent = consistent && rep.digest == copy_digest;
    rep_json.push_back(Object()
                           .Add("digest", DigestJson(rep.digest))
                           .Add("runtime_faults",
                                std::to_string(rep.runtime_faults))
                           .str());
  }
  const Summary wall = Summarize(wall_ns_per_req);
  const Summary setup = Summarize(setup_s);
  const std::vector<Metric> metrics = {
      {"wall_ns_per_req", wall.median, "ns", wall},
      {"setup_s", setup.median, "s", setup},
      {"peak_rss_mb", PeakRssMiB(), "MiB", {}},
  };
  std::printf("%s\n", Header(w, "timed")
                          .Add("consistent", consistent ? "true" : "false")
                          .Add("reps", Array(rep_json))
                          .Add("copy_digest", DigestJson(copy_digest))
                          .Add("metrics", MetricsJson(metrics))
                          .str()
                          .c_str());
  return consistent;
}

// --- traced mode ------------------------------------------------------------

// Per-layer counts of one traced copy run. Must be taken before the replays,
// which dispatch through the same daemon and bump its counters.
void AddCounterMetrics(const CopyExperiment& copy, std::vector<Metric>& out) {
  const Workload& w = copy.workload();
  const double req = w.OfferedRequests();
  uint64_t events = 0;
  for (int s = 0; s < copy.engines(); ++s) {
    events += copy.engine(s).engine_stats().dispatched;
  }
  uint64_t self_ns[kNumLayers] = {};
  uint64_t spans[kNumLayers] = {};
  uint64_t hook_inputs = 0;
  uint64_t drops = 0;
  uint64_t invocations = 0, insns = 0, helper_calls = 0, faults = 0;
  uint64_t hits = 0, misses = 0, uncacheable = 0, evictions = 0,
           admission_rejects = 0;
  int64_t slots = 0;
  uint64_t ghost_messages = 0, context_switches = 0, preemptions = 0;
  std::set<Map*> maps;
  for (const auto& host : copy.hosts()) {
    for (size_t l = 0; l < kNumLayers; ++l) {
      self_ns[l] += host->probe->tracer.self_ns(static_cast<Layer>(l));
      spans[l] += host->probe->tracer.spans(static_cast<Layer>(l));
    }
    hook_inputs += host->probe->hook_inputs;
    drops += host->stack->stats().TotalDrops();

    const obs::Snapshot snap = host->syrupd->StatsSnapshot();
    for (const auto& [app, hooks] : snap.apps) {
      for (const auto& [hook, cells] : hooks) {
        for (const auto& [name, m] : cells) {
          if (name == "policy.invocations") invocations += m.counter;
          if (name == "policy.insns") insns += m.counter;
          if (name == "policy.helper_calls") helper_calls += m.counter;
          if (name == "policy.runtime_faults") faults += m.counter;
        }
        if (app != "syrupd") {
          continue;
        }
        hits += snap.CounterValue(app, hook, "flow_cache.hits");
        misses += snap.CounterValue(app, hook, "flow_cache.misses");
        uncacheable += snap.CounterValue(app, hook, "flow_cache.uncacheable");
        evictions += snap.CounterValue(app, hook, "flow_cache.evictions");
        admission_rejects +=
            snap.CounterValue(app, hook, "flow_cache.admission_rejects");
        if (snap.CounterValue(app, hook, "dispatched") > 0) {
          slots += snap.GaugeValue(app, hook, "flow_cache.capacity");
        }
      }
    }
    if (const GhostScheduler* ghost = host->syrupd->ghost_scheduler()) {
      ghost_messages += ghost->messages_processed();
      context_switches += ghost->commits();
      preemptions += ghost->preemptions();
    }
    for (const PolicyHandle& d : host->deployments) {
      for (const auto& map : host->syrupd->ProgramById(d.prog_id())->maps) {
        maps.insert(map.get());
      }
    }
    if (host->thread_prog_id >= 0) {
      for (const auto& map :
           host->syrupd->ProgramById(host->thread_prog_id)->maps) {
        maps.insert(map.get());
      }
    }
    maps.insert(host->thread_type_map.get());
    maps.insert(host->scan_map.get());
  }
  maps.erase(nullptr);
  uint64_t map_lookups = 0, map_updates = 0, max_probe_len = 0;
  for (Map* map : maps) {
    map_lookups += map->op_counters().lookups->Load();
    map_updates += map->op_counters().updates->Load();
    max_probe_len = std::max(max_probe_len, map->RuntimeStats().max_probe_len);
  }

  const size_t net = static_cast<size_t>(Layer::kNet);
  const size_t core = static_cast<size_t>(Layer::kCore);
  const size_t sched = static_cast<size_t>(Layer::kSched);
  // Every shard thread is inside the engine for the whole run, so the
  // engine's thread time is run wall x engines; what no span claims is sim.
  const double sim_self = static_cast<double>(copy.run_wall_ns()) *
                              copy.engines() -
                          static_cast<double>(self_ns[net] + self_ns[core] +
                                              self_ns[sched]);
  const double lookups = static_cast<double>(hits + misses + uncacheable);
  out.push_back({"sim.events_per_req", Per(events, req), "events/req", {}});
  out.push_back({"sim.ns_per_event", Per(sim_self, events), "ns/event", {}});
  out.push_back({"sim.steady_allocs",
                 static_cast<double>(copy.steady_allocs()), "count", {}});
  if (const ShardedSim* sharded = copy.sharded()) {
    const ShardedSim::Stats s = sharded->stats();
    out.push_back({"sim.sharded.rounds_per_req", Per(s.rounds, req),
                   "rounds/req", {}});
    out.push_back({"sim.sharded.events_per_round",
                   Per(s.dispatched, s.rounds), "events/round", {}});
    out.push_back({"sim.sharded.msgs_per_req", Per(s.messages, req),
                   "msgs/req", {}});
  }
  out.push_back({"net.rx.self_ns", Per(self_ns[net], req), "ns/req", {}});
  out.push_back({"net.drops", static_cast<double>(drops), "count", {}});
  out.push_back(
      {"core.dispatch.ns", Per(self_ns[core], hook_inputs), "ns/input", {}});
  out.push_back({"core.dispatch.calls_per_req", Per(hook_inputs, req),
                 "inputs/req", {}});
  out.push_back({"core.flow_cache.hit_ratio", Per(hits, lookups), "ratio", {}});
  out.push_back({"core.flow_cache.uncacheable_ratio", Per(uncacheable, lookups),
                 "ratio", {}});
  out.push_back({"core.flow_cache.evictions_per_req", Per(evictions, req),
                 "count/req", {}});
  out.push_back({"core.flow_cache.admission_reject_ratio",
                 Per(admission_rejects, misses), "ratio", {}});
  out.push_back(
      {"core.flow_cache.slots", static_cast<double>(slots), "slots", {}});
  out.push_back({"bpf.decisions_per_req", Per(invocations, req), "count/req",
                 {}});
  out.push_back({"bpf.insns_per_decision", Per(insns, invocations),
                 "insns/decision", {}});
  out.push_back({"bpf.helper_calls_per_decision",
                 Per(helper_calls, invocations), "calls/decision", {}});
  out.push_back(
      {"bpf.runtime_faults", static_cast<double>(faults), "count", {}});
  out.push_back({"map.lookups_per_req", Per(map_lookups, req), "ops/req", {}});
  out.push_back({"map.updates_per_req", Per(map_updates, req), "ops/req", {}});
  out.push_back({"map.max_probe_len", static_cast<double>(max_probe_len),
                 "groups", {}});
  out.push_back({"sched.ns", Per(self_ns[sched], spans[sched]), "ns/call", {}});
  out.push_back(
      {"sched.calls_per_req", Per(spans[sched], req), "calls/req", {}});
  out.push_back({"ghost.messages_per_req", Per(ghost_messages, req),
                 "count/req", {}});
  out.push_back({"ghost.context_switches_per_req", Per(context_switches, req),
                 "count/req", {}});
  out.push_back(
      {"ghost.preemptions_per_req", Per(preemptions, req), "count/req", {}});
}

// Median over `passes` of the wall ns per input of one replay pass.
template <typename Pass>
double ReplayNs(int passes, size_t inputs, Pass&& pass) {
  std::vector<double> per_input;
  for (int p = 0; p < passes; ++p) {
    const uint64_t t0 = WallNs();
    pass();
    per_input.push_back(static_cast<double>(WallNs() - t0) /
                        static_cast<double>(inputs));
  }
  return Median(per_input);
}

// Replays host 0's captured hook inputs through syrupd's dispatcher, the
// deployed policy object, and the program re-compiled from outside at the
// compiled and native tiers; and its captured thread ids through the
// deployed thread program.
void AddReplayMetrics(const CopyExperiment& copy, int passes,
                      std::vector<Metric>& out) {
  const CopyHost& host = *copy.hosts().front();
  Syrupd& syrupd = *host.syrupd;
  double b1 = 0, b64 = 0, deployed = 0, compiled_ns = 0, native_ns = 0;
  size_t inputs = 0;
  for (const PolicyHandle& deployment : host.deployments) {
    const Hook hook = deployment.hook();
    const auto& captured = host.probe->packets[HookIndex(hook)];
    if (captured.empty()) {
      continue;
    }
    std::vector<PacketView> views;
    for (const HostProbe::WireBytes& bytes : captured) {
      views.push_back(PacketView{bytes.data(), bytes.data() + bytes.size()});
    }
    std::vector<Decision> decisions(views.size());
    const size_t n = views.size();
    const bpf::Program* program = syrupd.ProgramById(deployment.prog_id());
    const std::shared_ptr<PacketPolicy> policy =
        syrupd.PolicyAt(hook, views.front().DstPort());
    SYRUP_CHECK(program != nullptr && policy != nullptr);
    const bpf::CompiledProgram compiled =
        bpf::Compile(*program, bpf::ProgramContext::kPacket).value();
    bpf::CompiledProgram native = compiled;
    if (auto jit = bpf::JitCompile(native); jit.ok()) {
      native.native = std::move(jit).value();
    }
    bpf::CompiledExecutor exec(syrupd.MakeExecEnv());
    auto run_program = [&](const bpf::CompiledProgram& prog) {
      for (const PacketView& v : views) {
        (void)exec.Run(prog, reinterpret_cast<uint64_t>(v.start),
                       reinterpret_cast<uint64_t>(v.end),
                       /*args_are_packet=*/true);
      }
    };

    b1 += static_cast<double>(n) * ReplayNs(passes, n, [&] {
      for (size_t i = 0; i < n; ++i) {
        syrupd.DispatchBatch(hook, std::span(&views[i], 1),
                             std::span(&decisions[i], 1));
      }
    });
    b64 += static_cast<double>(n) * ReplayNs(passes, n, [&] {
      for (size_t i = 0; i < n; i += Syrupd::kMaxDispatchBatch) {
        const size_t k = std::min(Syrupd::kMaxDispatchBatch, n - i);
        syrupd.DispatchBatch(hook, std::span(views).subspan(i, k),
                             std::span(decisions).subspan(i, k));
      }
    });
    deployed += static_cast<double>(n) * ReplayNs(passes, n, [&] {
      for (const PacketView& v : views) {
        (void)policy->Schedule(v);
      }
    });
    compiled_ns += static_cast<double>(n) *
                   ReplayNs(passes, n, [&] { run_program(compiled); });
    native_ns += static_cast<double>(n) *
                 ReplayNs(passes, n, [&] { run_program(native); });
    inputs += n;
  }
  const double total = static_cast<double>(inputs);
  out.push_back({"core.dispatch.replay_ns_b1", Per(b1, total), "ns/input", {}});
  out.push_back(
      {"core.dispatch.replay_ns_b64", Per(b64, total), "ns/input", {}});
  out.push_back(
      {"bpf.exec.replay_ns", Per(deployed, total), "ns/decision", {}});
  out.push_back({"bpf.exec.replay_ns_compiled", Per(compiled_ns, total),
                 "ns/decision", {}});
  out.push_back({"bpf.exec.replay_ns_native", Per(native_ns, total),
                 "ns/decision", {}});

  const std::vector<int>& tids = host.probe->runnable_tids;
  const bpf::CompiledProgram* thread_program =
      host.thread_prog_id >= 0 ? syrupd.CompiledById(host.thread_prog_id)
                               : nullptr;
  if (thread_program != nullptr && !tids.empty()) {
    bpf::CompiledExecutor exec(syrupd.MakeExecEnv());
    out.push_back(
        {"bpf.thread.replay_ns", ReplayNs(passes, tids.size(), [&] {
           for (int tid : tids) {
             (void)exec.Run(*thread_program,
                            static_cast<uint64_t>(static_cast<uint32_t>(tid)),
                            0, /*args_are_packet=*/false);
           }
         }),
         "ns/decision", {}});
  }
}

// Deploy-time costs: medians over zero-length copies (construction only).
void AddDeployMetrics(const Workload& w, int builds, std::vector<Metric>& out) {
  const Workload zero = w.With(w.seed(), 0, 0);
  std::vector<double> deploy_us, verify_us, compile_us, jit_us;
  for (int i = 0; i < builds; ++i) {
    const CopyExperiment copy(zero, /*traced=*/false);
    double deploy = 0, verify = 0, compile = 0, jit = 0;
    for (const auto& host : copy.hosts()) {
      deploy += static_cast<double>(host->deploy_ns);
      const obs::Snapshot snap = host->syrupd->StatsSnapshot();
      for (const auto& [app, hooks] : snap.apps) {
        for (const auto& [hook, cells] : hooks) {
          verify += static_cast<double>(
              snap.GaugeValue(app, hook, "verifier.verify_ns"));
          compile += static_cast<double>(
              snap.GaugeValue(app, hook, "policy.compile_ns"));
          jit += static_cast<double>(
              snap.GaugeValue(app, hook, "policy.jit_ns"));
        }
      }
    }
    deploy_us.push_back(deploy / 1000);
    verify_us.push_back(verify / 1000);
    compile_us.push_back((compile - jit) / 1000);  // compile_ns includes JIT
    jit_us.push_back(jit / 1000);
  }
  out.push_back({"core.deploy_us", Median(deploy_us), "us", {}});
  out.push_back({"bpf.verify_us", Median(verify_us), "us", {}});
  out.push_back({"bpf.compile_us", Median(compile_us), "us", {}});
  out.push_back({"bpf.jit_us", Median(jit_us), "us", {}});
}

bool TracedMode(const Workload& w, const Plan& plan) {
  RunPublic(w);  // warm-up rep, discarded
  uint64_t t0 = WallNs();
  const PublicRun pub = RunPublic(w);
  const double untraced_ns = static_cast<double>(WallNs() - t0);

  t0 = WallNs();
  auto copy = std::make_unique<CopyExperiment>(w, /*traced=*/true);
  copy->Run();
  const Digest copy_digest = copy->Result();
  uint64_t traced_ns = WallNs() - t0;
  const uint64_t run_wall_ns = copy->run_wall_ns();

  std::vector<Metric> metrics;
  AddCounterMetrics(*copy, metrics);
  AddReplayMetrics(*copy, plan.replay_passes, metrics);
  t0 = WallNs();
  copy.reset();
  traced_ns += WallNs() - t0;
  AddDeployMetrics(w, plan.deploy_builds, metrics);

  // Time outside the engine's Run* calls: host build, aggregation, teardown.
  metrics.push_back({"other.ns_per_req",
                     Per(static_cast<double>(traced_ns - run_wall_ns),
                         w.OfferedRequests()),
                     "ns/req", {}});
  metrics.push_back({"trace.overhead_ratio",
                     Per(static_cast<double>(traced_ns), untraced_ns), "ratio",
                     {}});

  const bool consistent = pub.digest == copy_digest;
  std::printf("%s\n", Header(w, "traced")
                          .Add("consistent", consistent ? "true" : "false")
                          .Add("reps", Array({Object()
                                                  .Add("digest",
                                                       DigestJson(pub.digest))
                                                  .Add("runtime_faults",
                                                       std::to_string(
                                                           pub.runtime_faults))
                                                  .str()}))
                          .Add("copy_digest", DigestJson(copy_digest))
                          .Add("metrics", MetricsJson(metrics))
                          .str()
                          .c_str());
  return consistent;
}

// --- command line -----------------------------------------------------------

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "       e2e_bench --smoke [--workload NAME]\n"
               "workloads:",
               error.c_str());
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

struct Args {
  const Workload* workload = nullptr;
  bool seed_set = false;
  uint64_t seed = 0;
  double seconds = 20;
  int trace = 0;
  bool smoke = false;
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace") {
      Usage("unknown flag '" + std::string(flag) + "'");
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = FindWorkload(value);
      if (args.workload == nullptr) {
        Usage("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') {
        Usage("bad --seed '" + value + "'");
      }
      args.seed_set = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 3600) {
        Usage("bad --seconds '" + value + "'");
      }
    } else {  // --trace
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1" ? 1 : 0;
    }
  }
  if (args.workload == nullptr && !args.smoke) {
    Usage("--workload is required");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.smoke) {
    bool ok = true;
    for (const Workload& w : Workloads()) {
      if (args.workload != nullptr && args.workload->name != w.name) {
        continue;
      }
      const Workload small = SmokeSized(w);
      const bool passed =
          TimedMode(small, kSmokePlan) && TracedMode(small, kSmokePlan);
      std::fprintf(stderr, "smoke %.*s: %s\n", static_cast<int>(w.name.size()),
                   w.name.data(), passed ? "ok" : "DIGEST MISMATCH");
      ok = ok && passed;
    }
    return ok ? 0 : 1;
  }
  if (!kTimingBuild) {
    std::fprintf(stderr,
                 "e2e_bench: refusing to time a build without NDEBUG and "
                 "optimization, or with a sanitizer (use "
                 "-DCMAKE_BUILD_TYPE=Release)\n");
    return 1;
  }
  Workload w = *args.workload;
  if (args.seed_set) {
    w = w.With(args.seed, w.warmup(), w.measure());
  }
  const bool consistent = args.trace == 1
                              ? TracedMode(w, MeasurePlan(args.seconds))
                              : TimedMode(w, MeasurePlan(args.seconds));
  return consistent ? 0 : 1;
}

}  // namespace
}  // namespace syrup::e2e

int main(int argc, char** argv) { return syrup::e2e::Main(argc, argv); }
