// Per-decision policy execution cost: each builtin socket policy through
// the interpreter oracle ("interpret", tests/oracles/interpreter.h), the
// two bytecode tiers (compiled, native machine code) and the trusted C++
// mirror ("cpp"), interleaved, best of bench::kReps each. Writes
// `BENCH_policy_exec.json`. Gates (`--baseline`,
// flags in bench/harness.h): where the JIT exists (x86-64 Linux,
// SYRUP_JIT_DISABLE unset) it publishes code for every builtin
// (`jit_published`) and native stays within noise of the compiled tier it
// replaces (`native_vs_compiled`); per policy, one bound on the compiled
// tier: a floor on its speedup over the oracle (`interpret_vs_compiled`)
// where that ratio separates a slower compiled loop from noise, else the
// old ceiling on its ns/decision (`compiled`).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/bpf/assembler.h"
#include "src/bpf/compiler.h"
#include "src/bpf/jit.h"
#include "src/bpf/verifier.h"
#include "src/common/rng.h"
#include "src/map/map.h"
#include "src/net/packet.h"
#include "src/policies/builtin.h"
#include "tests/oracles/interpreter.h"

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
    // them; give every slot a few plausible entries so lookups hit. Token's
    // user 1 holds enough tokens that no rep of any tier drains it.
    for (uint32_t key = 1; key <= 4; ++key) {
      (void)prog.maps.back()->UpdateU64(key, key == 2 ? 1 : 1'000'000'000);
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
    sink = sink + decide(packets[i % packets.size()]);
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    sink = sink + decide(packets[i % packets.size()]);
  }
  const auto stop = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         iters;
}

int Run(const bench::Flags& flags) {
  struct PolicyUnderTest {
    const char* name;
    std::string asm_source;
    std::shared_ptr<PacketPolicy> cpp;
    bool compiled_ceiling = false;  // gate `compiled`, not the speedup
  };
  auto rng = std::make_shared<Rng>(3);
  std::vector<PolicyUnderTest> policies;
  policies.push_back({"round_robin", RoundRobinPolicyAsm(6),
                      std::make_shared<RoundRobinPolicy>(6), true});
  policies.push_back(
      {"sita", SitaPolicyAsm(6), std::make_shared<SitaPolicy>(6)});
  {
    MapSpec scan_spec;
    scan_spec.type = MapType::kArray;
    scan_spec.max_entries = 6;
    auto scan_map = CreateMap(scan_spec).value();
    (void)scan_map->UpdateU64(2, static_cast<uint64_t>(ReqType::kScan));
    auto random = [rng]() { return static_cast<uint32_t>(rng->Next()); };
    policies.push_back({"scan_avoid", ScanAvoidPolicyAsm(6),
                        std::make_shared<ScanAvoidPolicy>(6, scan_map, random),
                        true});
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
                        std::make_shared<TokenPolicy>(token_map), true});
  }

  const auto workload = MakeWorkload();
  const int iters = flags.quick ? kMeasureIters / 10 : kMeasureIters;
  const std::string jit_off =
      bpf::JitAvailable() ? "" : "JIT unavailable (host or SYRUP_JIT_DISABLE)";
  double published = 0;
  bench::Report report("policy_exec", "ns_per_decision", flags.quick);

  std::printf("# policy_exec: per-decision cost by execution tier (%s, best "
              "of %d)\n", flags.quick ? "quick" : "full", bench::kReps);
  std::printf("%-12s %10s %10s %10s %10s\n", "policy", "interpret",
              "compiled", "native", "cpp");
  for (const auto& put : policies) {
    bpf::Program prog = LoadProgram(put.asm_source);
    bpf::Interpreter interp(BenchEnv());
    bpf::CompiledExecutor exec(BenchEnv());
    bpf::CompiledProgram compiled =
        bpf::Compile(prog, bpf::ProgramContext::kPacket).value();
    // The native tier: same artifact with machine code attached. When the
    // JIT refuses, the column runs the compiled tier, exactly like a syrupd
    // deployment.
    bpf::CompiledProgram native = compiled;
    auto jit = bpf::JitCompile(native);
    if (jit.ok()) {
      native.native = std::move(jit).value();
      ++published;
    } else {
      std::printf("# %s: %s\n", put.name, jit.status().ToString().c_str());
    }

    // The oracle and both tiers decide on the packet's wire bytes.
    auto tier = [&](auto run) {
      return [&, run] {
        return MeasureNs(workload, iters, [&](const Packet& pkt) {
          const auto data = reinterpret_cast<uint64_t>(pkt.wire.data());
          return run(data, data + kWireSize).value().r0;
        });
      };
    };
    const std::vector<bench::Series> reads = bench::Interleave({
        tier([&](uint64_t a, uint64_t b) {
          return interp.Run(prog, a, b, true);
        }),
        tier([&](uint64_t a, uint64_t b) {
          return exec.Run(compiled, a, b, true);
        }),
        tier([&](uint64_t a, uint64_t b) {
          return exec.Run(native, a, b, true);
        }),
        [&] {
          return MeasureNs(workload, iters, [&](const Packet& pkt) {
            return put.cpp->Schedule(PacketView::Of(pkt));
          });
        },
    });
    const std::string key = std::string("policies.") + put.name + ".";
    const char* modes[] = {"interpret", "compiled", "native", "cpp"};
    double best[4];
    for (int i = 0; i < 4; ++i) {
      best[i] = reads[i].Best();
      report.Number(key + modes[i], best[i]);
    }
    const bench::Ratio speedup = bench::RatioOf(reads[0], reads[1]);
    if (put.compiled_ceiling) {
      report.Gate(key + "compiled", bench::Bound::kCeiling, {best[1], NAN});
      report.Number(key + "interpret_vs_compiled", speedup.value, 3);
    } else {
      report.Gate(key + "interpret_vs_compiled", bench::Bound::kFloor, speedup);
    }
    report.Gate(key + "native_vs_compiled", bench::Bound::kCeiling,
                bench::RatioOf(reads[2], reads[1]), jit_off);
    std::printf("%-12s %9.1f %9.1f %9.1f %9.1f   (ns/decision)\n", put.name,
                best[0], best[1], best[2], best[3]);

    // The verifier's wcet per deployment tier under the checked-in
    // DefaultCostModel (the deploy gate's tables) next to what this machine
    // measured. Informational: the soundness check (measured <= calibrated
    // wcet) is bpf_cost_model_test.
    bpf::AnalysisFacts facts;
    if (bpf::Verify(prog, bpf::ProgramContext::kPacket, {}, nullptr, &facts)
            .ok() &&
        facts.cost.bounded) {
      const double* wcet = facts.cost.wcet_ns;
      for (bpf::ExecMode mode : {bpf::ExecMode::kCompiled,
                                 bpf::ExecMode::kNative}) {
        report.Number(key + "wcet." + std::string(bpf::ExecModeName(mode)),
                      wcet[static_cast<size_t>(mode)]);
      }
      const double compiled_wcet =
          wcet[static_cast<size_t>(bpf::ExecMode::kCompiled)];
      const double native_wcet =
          wcet[static_cast<size_t>(bpf::ExecMode::kNative)];
      std::printf("%-12s %9s %9.1f %9.1f           "
                  " (static wcet; measured/wcet %.2f/%.2f)\n",
                  "  wcet", "", compiled_wcet, native_wcet,
                  best[1] / compiled_wcet, best[2] / native_wcet);
    }
  }
  report.Gate("jit_published", bench::Bound::kFloor, {published, NAN},
              jit_off);
  return report.Finish(flags);
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  return syrup::Run(
      syrup::bench::ParseFlags(argc, argv, "BENCH_policy_exec.json"));
}
