// Per-decision policy execution cost, by tier, machine-readable.
//
// Runs each builtin socket policy through the three bytecode execution tiers
// (interpret, compiled, native machine code) and the trusted C++ mirror
// ("cpp"), then writes `BENCH_policy_exec.json` (mode -> ns/decision per
// policy) so the perf trajectory is tracked across PRs. Human-readable
// numbers go to stdout.
//
// Gates (exit 1 on failure):
//   * --baseline <file>: each policy's compiled and native ns/decision may
//     not regress more than 25% against the checked-in baseline
//     (bench/policy_exec_baseline.json), mirroring sim_events.
//   * always, when the JIT engaged: native must not be slower than the
//     compiled tier beyond noise (native <= compiled * 1.10) — the tier
//     exists to be faster, and this gate is machine-independent.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/bpf/assembler.h"
#include "src/bpf/compiler.h"
#include "src/bpf/interpreter.h"
#include "src/bpf/jit.h"
#include "src/bpf/verifier.h"
#include "src/common/rng.h"
#include "src/map/map.h"
#include "src/net/packet.h"
#include "src/policies/builtin.h"

namespace syrup {
namespace {

constexpr int kWarmupIters = 10'000;
constexpr int kMeasureIters = 400'000;

bpf::Program LoadProgram(const std::string& source) {
  auto assembled = bpf::Assemble(source).value();
  bpf::Program prog;
  prog.name = assembled.name;
  prog.insns = assembled.insns;
  for (const bpf::MapSlot& slot : assembled.map_slots) {
    prog.maps.push_back(CreateMap(slot.spec).value());
    // The policies that read maps expect the owning app to have seeded
    // them; give every slot a few plausible entries so lookups hit.
    for (uint32_t key = 1; key <= 4; ++key) {
      (void)prog.maps.back()->UpdateU64(key, key == 2 ? 1 : 1'000'000);
    }
  }
  return prog;
}

std::vector<Packet> MakeWorkload() {
  Rng rng(42);
  std::vector<Packet> packets;
  packets.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    Packet pkt;
    pkt.tuple.src_port = static_cast<uint16_t>(20'000 + rng.NextBounded(50));
    pkt.tuple.dst_port = 9000;
    const ReqType type =
        rng.NextBounded(200) == 0 ? ReqType::kScan : ReqType::kGet;
    pkt.SetHeader(type, 1 + static_cast<uint32_t>(rng.NextBounded(2)),
                  static_cast<uint32_t>(rng.Next()), i, 0);
    packets.push_back(pkt);
  }
  return packets;
}

bpf::ExecEnv BenchEnv() {
  bpf::ExecEnv env;
  auto rng = std::make_shared<Rng>(7);
  env.random_u32 = [rng]() { return static_cast<uint32_t>(rng->Next()); };
  auto clock = std::make_shared<uint64_t>(0);
  env.ktime_ns = [clock]() { return *clock += 1'000; };
  return env;
}

// One timed loop shape for all tiers so the comparison is apples-to-apples.
template <typename Decide>
double MeasureNs(const std::vector<Packet>& packets, int iters,
                 Decide&& decide) {
  volatile uint64_t sink = 0;
  for (int i = 0; i < kWarmupIters; ++i) {
    sink += decide(packets[i % packets.size()]);
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    sink += decide(packets[i % packets.size()]);
  }
  const auto stop = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         iters;
}

// Pulls `"<mode>": <number>` out of the named policy's baseline block. The
// file is small, checked in, and written by this binary's own formatter, so
// an ad-hoc two-level scan beats a JSON parser (same stance as sim_events).
bool BaselineFor(const std::string& text, const std::string& policy,
                 const char* mode, double* out) {
  const std::string policy_needle = "\"" + policy + "\":";
  const size_t policy_pos = text.find(policy_needle);
  if (policy_pos == std::string::npos) {
    return false;
  }
  const std::string mode_needle = std::string("\"") + mode + "\":";
  const size_t mode_pos = text.find(mode_needle, policy_pos);
  if (mode_pos == std::string::npos) {
    return false;
  }
  return std::sscanf(text.c_str() + mode_pos + mode_needle.size(), " %lf",
                     out) == 1;
}

int Run(bool quick, const char* out_path, const char* baseline_path) {
  struct PolicyUnderTest {
    const char* name;
    std::string asm_source;
    std::shared_ptr<PacketPolicy> cpp;
  };
  auto rng = std::make_shared<Rng>(3);
  std::vector<PolicyUnderTest> policies;
  policies.push_back({"round_robin", RoundRobinPolicyAsm(6),
                      std::make_shared<RoundRobinPolicy>(6)});
  policies.push_back(
      {"sita", SitaPolicyAsm(6), std::make_shared<SitaPolicy>(6)});
  {
    MapSpec scan_spec;
    scan_spec.type = MapType::kArray;
    scan_spec.max_entries = 6;
    auto scan_map = CreateMap(scan_spec).value();
    (void)scan_map->UpdateU64(2, static_cast<uint64_t>(ReqType::kScan));
    policies.push_back(
        {"scan_avoid", ScanAvoidPolicyAsm(6),
         std::make_shared<ScanAvoidPolicy>(6, scan_map, [rng]() {
           return static_cast<uint32_t>(rng->Next());
         })});
  }
  {
    MapSpec token_spec;
    token_spec.type = MapType::kHash;
    token_spec.max_entries = 64;
    auto token_map = CreateMap(token_spec).value();
    for (uint32_t user = 1; user <= 2; ++user) {
      (void)token_map->UpdateU64(user, 1'000'000'000);
    }
    policies.push_back({"token", TokenPolicyAsm(),
                        std::make_shared<TokenPolicy>(token_map)});
  }

  const auto workload = MakeWorkload();
  const int iters = quick ? kMeasureIters / 10 : kMeasureIters;
  // policy -> mode -> ns/decision (std::map keeps the JSON key order
  // deterministic across runs).
  std::map<std::string, std::map<std::string, double>> results;
  bool jit_engaged = bpf::JitAvailable();

  std::printf("# policy_exec: per-decision cost by execution tier (%s)\n",
              quick ? "quick" : "full");
  std::printf("%-12s %10s %10s %10s %10s\n", "policy", "interpret",
              "compiled", "native", "cpp");
  for (const auto& put : policies) {
    bpf::Program prog = LoadProgram(put.asm_source);
    bpf::Interpreter interp(BenchEnv());
    bpf::CompiledExecutor exec(BenchEnv());
    bpf::CompiledProgram compiled =
        bpf::Compile(prog, bpf::ProgramContext::kPacket).value();
    // The native tier: same artifact with machine code attached. On an
    // unsupported host the JIT refuses and the column degrades to the
    // compiled tier, exactly like a syrupd deployment.
    bpf::CompiledProgram native = compiled;
    auto jit = bpf::JitCompile(native);
    if (jit.ok()) {
      native.native = std::move(jit).value();
    } else {
      jit_engaged = false;
    }

    auto run_tier = [&](const bpf::CompiledProgram& artifact) {
      return MeasureNs(workload, iters, [&](const Packet& pkt) {
        return exec
            .Run(artifact, reinterpret_cast<uint64_t>(pkt.wire.data()),
                 reinterpret_cast<uint64_t>(pkt.wire.data() + kWireSize),
                 true)
            .value()
            .r0;
      });
    };
    auto& row = results[put.name];
    row["interpret"] = MeasureNs(workload, iters, [&](const Packet& pkt) {
      return interp
          .Run(prog, reinterpret_cast<uint64_t>(pkt.wire.data()),
               reinterpret_cast<uint64_t>(pkt.wire.data() + kWireSize), true)
          .value()
          .r0;
    });
    row["compiled"] = run_tier(compiled);
    row["native"] = run_tier(native);
    row["cpp"] = MeasureNs(workload, iters, [&](const Packet& pkt) {
      return put.cpp->Schedule(PacketView::Of(pkt));
    });
    std::printf("%-12s %9.1f %9.1f %9.1f %9.1f   (ns/decision)\n",
                put.name, row["interpret"], row["compiled"], row["native"],
                row["cpp"]);

    // Cross-validation of the static cost model: the verifier's wcet with
    // the checked-in DefaultCostModel (the deploy gate's tables) next to
    // what this machine measured. Informational — the hard soundness check
    // (measured <= calibrated wcet) lives in bpf_cost_model_test; here the
    // ratio tracks how tight the default tables are over time. The JSON
    // keys are "wcet."-prefixed so BaselineFor's `"<mode>":` scan never
    // confuses a bound with a measurement.
    bpf::AnalysisFacts facts;
    if (bpf::Verify(prog, bpf::ProgramContext::kPacket, {}, nullptr, &facts)
            .ok() &&
        facts.cost.bounded) {
      const double* wcet = facts.cost.wcet_ns;
      row["wcet.interpret"] = wcet[0];
      row["wcet.compiled"] = wcet[1];
      row["wcet.native"] = wcet[2];
      std::printf("%-12s %9.1f %9.1f %9.1f           "
                  " (static wcet; measured/wcet %.2f/%.2f/%.2f)\n",
                  "  wcet", wcet[0], wcet[1], wcet[2],
                  row["interpret"] / wcet[0], row["compiled"] / wcet[1],
                  row["native"] / wcet[2]);
    }
  }
  if (!jit_engaged) {
    std::printf("# note: JIT unavailable; native column ran the compiled "
                "tier (fallback)\n");
  }

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"policy_exec\",\n"
                    "  \"unit\": \"ns_per_decision\",\n  \"policies\": {\n");
  size_t policy_index = 0;
  for (const auto& [policy, modes] : results) {
    std::fprintf(out, "    \"%s\": {", policy.c_str());
    size_t mode_index = 0;
    for (const auto& [mode, ns] : modes) {
      std::fprintf(out, "%s\"%s\": %.2f",
                   mode_index++ == 0 ? "" : ", ", mode.c_str(), ns);
    }
    std::fprintf(out, "}%s\n", ++policy_index == results.size() ? "" : ",");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("# wrote %s\n", out_path);

  int failures = 0;
  // Relative gate, no baseline needed: with real machine code published,
  // native must at least keep up with the bytecode loop it replaces.
  if (jit_engaged) {
    constexpr double kNativeVsCompiled = 1.10;
    for (const auto& [policy, modes] : results) {
      const double compiled_ns = modes.at("compiled");
      const double native_ns = modes.at("native");
      if (native_ns > compiled_ns * kNativeVsCompiled) {
        std::fprintf(stderr,
                     "REGRESSION %s: native %.1f ns/decision vs compiled "
                     "%.1f (limit %.1f)\n",
                     policy.c_str(), native_ns, compiled_ns,
                     compiled_ns * kNativeVsCompiled);
        ++failures;
      }
    }
  }

  if (baseline_path != nullptr) {
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
    // The hot tiers are the ones deployments actually run on; interpret
    // exists for ablation and as the oracle, and is too slow-moving to gate.
    const char* gated_modes[] = {"compiled", "native"};
    for (const auto& [policy, modes] : results) {
      for (const char* mode : gated_modes) {
        double baseline_ns;
        if (!BaselineFor(text, policy, mode, &baseline_ns)) {
          std::fprintf(stderr, "baseline missing %s/%s\n", policy.c_str(),
                       mode);
          ++failures;
          continue;
        }
        const double got = modes.at(mode);
        if (got > baseline_ns * kTolerance) {
          std::fprintf(stderr,
                       "REGRESSION %s/%s: %.1f ns/decision vs baseline %.1f "
                       "(limit %.1f)\n",
                       policy.c_str(), mode, got, baseline_ns,
                       baseline_ns * kTolerance);
          ++failures;
        } else {
          std::printf("# baseline ok %s/%s: %.1f ns/decision <= %.1f\n",
                      policy.c_str(), mode, got, baseline_ns * kTolerance);
        }
      }
    }
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  bool quick = false;
  const char* out_path = "BENCH_policy_exec.json";
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (argv[i][0] != '-') {
      out_path = argv[i];  // positional output path (pre-flag interface)
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--baseline <file>] [--out <file>]\n",
                   argv[0]);
      return 2;
    }
  }
  return syrup::Run(quick, out_path, baseline_path);
}
