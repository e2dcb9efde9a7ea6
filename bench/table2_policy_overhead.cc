// Regenerates paper Table 2: overhead of different Syrup policies.
//
//   Policy | LoC | Instructions | Cycles
//
// LoC counts the policy-file source lines (directives/labels excluded, as
// the paper counts C statements). Instructions is the mean VM instruction
// count per scheduling decision: each policy deploys through syrupd (the
// real path: assemble, pin maps, verify, compile, attach), then the
// interpreter oracle (tests/oracles/interpreter.h) runs the deployed
// program's source instructions (Syrupd::ProgramById) over the workload
// with the daemon's own maps and environment. The deployed tiers fold
// instructions away, so their policy.insns counters read fewer. Cycles has
// two parts, as in the paper ("most of this time is spent on enforcing ...
// rather than making ... each scheduling decision"): the measured decision
// cost of the policy's C++ mirror (tests/oracles/native_policies.h), plus a
// fixed enforcement cost (packet redirect + dispatch) modeled at 1400
// cycles. Wall-clock is converted at 2.3 GHz (the paper's Xeon E5-2630
// clock).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "src/common/rng.h"
#include "src/core/syrup_api.h"
#include "src/policies/builtin.h"
#include "tests/oracles/interpreter.h"
#include "tests/oracles/native_policies.h"

namespace syrup {
namespace {

constexpr double kGhz = 2.3;
constexpr double kEnforcementCycles = 1400;  // redirect + dispatch, modeled
constexpr int kWarmupIters = 10'000;
constexpr int kMeasureIters = 2'000'000;
constexpr int kBytecodeIters = 400'000;  // VM modes are slower per decision
constexpr int kDecisionIters = 4096;

int CountLoc(const std::string& source) {
  std::istringstream stream(source);
  std::string line;
  int loc = 0;
  while (std::getline(stream, line)) {
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) {
      continue;
    }
    const char c = line[first];
    if (c == ';' || c == '#' || c == '.') {
      continue;  // comments and assembler directives
    }
    if (line.find(':') != std::string::npos &&
        line.find('[') == std::string::npos) {
      continue;  // labels
    }
    ++loc;
  }
  return loc;
}

std::vector<Packet> MakeWorkload(uint16_t dst_port) {
  Rng rng(42);
  std::vector<Packet> packets;
  packets.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    Packet pkt;
    pkt.tuple.src_port = static_cast<uint16_t>(20'000 + rng.NextBounded(50));
    pkt.tuple.dst_port = dst_port;
    const ReqType type =
        rng.NextBounded(200) == 0 ? ReqType::kScan : ReqType::kGet;
    pkt.SetHeader(type, 1 + static_cast<uint32_t>(rng.NextBounded(2)),
                  static_cast<uint32_t>(rng.Next()), i, 0);
    packets.push_back(pkt);
  }
  return packets;
}

double MeasureNs(PacketPolicy& policy, const std::vector<Packet>& packets,
                 int iters = kMeasureIters) {
  volatile uint64_t sink = 0;
  for (int i = 0; i < kWarmupIters; ++i) {
    sink += policy.Schedule(PacketView::Of(packets[i % packets.size()]));
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    sink += policy.Schedule(PacketView::Of(packets[i % packets.size()]));
  }
  const auto stop = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         iters;
}

// Full dispatch cost through Syrupd::DispatchBatch in bursts of 32 (the
// shape RxBurst produces): port match, counters, then the policy. This is
// what a packet actually pays, where MeasureNs above isolates the policy
// body.
double MeasureBatchNs(Syrupd& syrupd, const std::vector<Packet>& packets,
                      int iters) {
  constexpr size_t kBurst = 32;
  std::vector<PacketView> views;
  views.reserve(packets.size());
  for (const Packet& pkt : packets) {
    views.push_back(PacketView::Of(pkt));
  }
  Decision out[kBurst];
  volatile uint64_t sink = 0;
  size_t pos = 0;
  auto burst = [&](size_t n) {
    syrupd.DispatchBatch(Hook::kSocketSelect,
                         std::span<const PacketView>(&views[pos], n),
                         std::span<Decision>(out, n));
    sink += out[n - 1];
    pos += n;
    if (pos == views.size()) {
      pos = 0;
    }
  };
  for (int i = 0; i < kWarmupIters; i += kBurst) {
    burst(std::min(kBurst, views.size() - pos));
  }
  int done = 0;
  const auto start = std::chrono::steady_clock::now();
  while (done < iters) {
    const size_t n = std::min({kBurst, views.size() - pos,
                               static_cast<size_t>(iters - done)});
    burst(n);
    done += static_cast<int>(n);
  }
  const auto stop = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         iters;
}

struct PolicyUnderTest {
  const char* name;
  const char* app;  // syrupd registration (also the snapshot key)
  std::string asm_source;
  std::shared_ptr<PacketPolicy> native;
};

void Run() {
  Simulator sim;
  HostStack stack(sim, StackConfig{});
  Syrupd syrupd(sim, &stack);

  // Native mirrors need the same shared state the bytecode twins read
  // through their pinned maps.
  MapSpec token_spec;
  token_spec.type = MapType::kHash;
  token_spec.max_entries = 64;
  auto native_token_map = CreateMap(token_spec).value();
  for (uint32_t user = 1; user <= 2; ++user) {
    (void)native_token_map->UpdateU64(user, 1'000'000'000);
  }
  MapSpec scan_spec;
  scan_spec.type = MapType::kArray;
  scan_spec.max_entries = 6;
  auto native_scan_map = CreateMap(scan_spec).value();
  (void)native_scan_map->UpdateU64(2, static_cast<uint64_t>(ReqType::kScan));
  auto rng = std::make_shared<Rng>(3);

  std::vector<PolicyUnderTest> policies;
  policies.push_back({"Round Robin", "t2_rr", RoundRobinPolicyAsm(6),
                      std::make_shared<RoundRobinPolicy>(6)});
  policies.push_back(
      {"SCAN Avoid", "t2_scan_avoid", ScanAvoidPolicyAsm(6),
       std::make_shared<ScanAvoidPolicy>(6, native_scan_map, [rng]() {
         return static_cast<uint32_t>(rng->Next());
       })});
  policies.push_back(
      {"SITA", "t2_sita", SitaPolicyAsm(6), std::make_shared<SitaPolicy>(6)});
  policies.push_back({"Token-based", "t2_token", TokenPolicyAsm(),
                      std::make_shared<TokenPolicy>(native_token_map)});
  // The §3.3 portable-hash policy.
  policies.push_back({"Hash", "t2_hash", HashPolicyAsm(6),
                      std::make_shared<HashPolicy>(6)});

  std::printf("# Table 2: overhead of different Syrup policies\n");
  std::printf("%-12s %5s %13s | %10s %10s %10s %10s | %18s %10s\n",
              "Policy", "LoC", "Instructions", "native_ns", "compiled_ns",
              "jit_ns", "batched_ns", "DecisionCycles", "Cycles");
  uint16_t next_port = 9000;
  for (auto& put : policies) {
    const uint16_t port = next_port++;
    const AppId app = syrupd.RegisterApp(put.app, /*uid=*/1000, port).value();
    SyrupClient client(syrupd, app);
    const auto workload = MakeWorkload(port);

    // Seeds the policy's pinned maps through the typed map API, exactly as
    // the owning application would. Pins survive redeploys, so one seeding
    // covers both execution tiers.
    auto seed_maps = [&]() {
      if (std::string_view(put.app) == "t2_token") {
        MapHandle tokens =
            client.MapOpen("/syrup/t2_token/token_map").value();
        for (uint32_t user = 1; user <= 2; ++user) {
          (void)tokens.Update(user, 1'000'000'000);
        }
      } else if (std::string_view(put.app) == "t2_scan_avoid") {
        MapHandle scan =
            client.MapOpen("/syrup/t2_scan_avoid/scan_map").value();
        (void)scan.Update(2, static_cast<uint64_t>(ReqType::kScan));
      }
    };

    // Compiled tier (the default deployment mode): the real deployment
    // path. The batched column measures the same deployment end to end
    // through the dispatcher. The scoped handle detaches at the end so the
    // native tier can redeploy.
    double mean_insns = 0;
    double compiled_ns = 0;
    double batched_ns = 0;
    {
      PolicyHandle deployed =
          client.DeployPolicy(put.asm_source, Hook::kSocketSelect).value();
      seed_maps();
      // Source instructions per decision: the oracle runs the deployed
      // program over the workload on the daemon's maps and environment,
      // the decisions the attached policy would make.
      const bpf::Program& program = *syrupd.ProgramById(deployed.prog_id());
      bpf::Interpreter oracle(syrupd.MakeExecEnv());
      uint64_t insns = 0;
      for (int i = 0; i < kDecisionIters; ++i) {
        const PacketView view = PacketView::Of(
            workload[static_cast<size_t>(i) % workload.size()]);
        insns += oracle
                     .Run(program, reinterpret_cast<uint64_t>(view.start),
                          reinterpret_cast<uint64_t>(view.end),
                          /*args_are_packet=*/true)
                     .value()
                     .insns_executed;
      }
      mean_insns = static_cast<double>(insns) / kDecisionIters;
      std::shared_ptr<PacketPolicy> attached =
          syrupd.PolicyAt(Hook::kSocketSelect, port);
      compiled_ns = MeasureNs(*attached, workload, kBytecodeIters);
      batched_ns = MeasureBatchNs(syrupd, workload, kBytecodeIters);
    }

    // Native machine-code tier: same deployment path with the JIT
    // requested. On a host the JIT cannot handle, the deployment
    // transparently runs the compiled tier, so the column degrades to
    // compiled_ns rather than failing.
    double jit_ns = 0;
    syrupd.set_exec_mode(bpf::ExecMode::kNative);
    {
      PolicyHandle deployed =
          client.DeployPolicy(put.asm_source, Hook::kSocketSelect).value();
      std::shared_ptr<PacketPolicy> attached =
          syrupd.PolicyAt(Hook::kSocketSelect, port);
      jit_ns = MeasureNs(*attached, workload, kBytecodeIters);
    }
    syrupd.set_exec_mode(bpf::ExecMode::kCompiled);

    const double decision_ns = MeasureNs(*put.native, workload);
    const double decision_cycles = decision_ns * kGhz;
    const double total_cycles = decision_cycles + kEnforcementCycles;
    std::printf("%-12s %5d %13.0f | %10.1f %10.1f %10.1f %10.1f | %18.0f "
                "%10.0f\n",
                put.name, CountLoc(put.asm_source), mean_insns, decision_ns,
                compiled_ns, jit_ns, batched_ns, decision_cycles,
                total_cycles);
  }
  std::printf(
      "# Instructions: source instructions per decision, counted by the "
      "interpreter oracle.\n"
      "# native_ns/compiled_ns: per-decision cost of the native mirror and "
      "the pre-decoded\n"
      "# compiled tier (bench/policy_exec times the compiled tier against "
      "the oracle).\n"
      "# jit_ns: the same deployment on the machine-code tier (ExecMode "
      "native) — x86-64 stencils\n"
      "# emitted at attach time; equals compiled_ns on hosts where the JIT "
      "falls back.\n"
      "# batched_ns: full dispatch (port match, counters, policy) via "
      "Syrupd::DispatchBatch in\n"
      "# bursts of 32, the compiled tier.\n"
      "# Cycles = measured native decision cost at %.1f GHz + %.0f modeled "
      "enforcement cycles\n"
      "# (the paper: ~1500-1700 cycles total, dominated by enforcement).\n",
      kGhz, kEnforcementCycles);
}

}  // namespace
}  // namespace syrup

int main() {
  syrup::Run();
  return 0;
}
