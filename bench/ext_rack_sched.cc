// Extension bench (paper §6.1 / §7-RackSched): request-to-server
// scheduling in a programmable ToR switch fronting 4 RocksDB hosts.
//
// The switch runs a per-tenant Syrup program whose executors are servers:
//   hash — per-flow hashing (the no-program default, analogous to ECMP).
//   rr   — the unchanged Fig. 5a round-robin policy.
//   jsq  — LeastLoadedPolicyAsm over the switch's outstanding-request
//          registers (RackSched's least-loaded approach), the registers
//          being a device-resident Syrup Map.
//   p2c  — PowerOfTwoPolicyAsm over the same registers.
// Each is verified bytecode loaded with bpf::Load: the switch has no
// daemon, so this bench is its control plane.
//
// Two racks: homogeneous, and one with a 3x-slower straggler server —
// where load-aware scheduling pays off.
#include <cstdio>
#include <memory>
#include <string>

#include "src/apps/loadgen.h"
#include "src/bpf/loader.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/policies/builtin.h"
#include "src/rack/rack.h"

namespace syrup {
namespace {

enum class RackPolicy { kHash, kRoundRobin, kLeastLoaded, kPowerOfTwo };

// Loads a tenant program for the switch, binding its extern map to the
// switch's outstanding-request registers. Its random draws come from
// Rng(3), its clock from the simulation.
void InstallTenantProgram(Simulator& sim, Rack& rack,
                          const std::string& source) {
  bpf::LoadOptions options;
  options.mode = bpf::ExecMode::kNative;
  options.resolve =
      [&rack](const bpf::MapSlot& slot) -> StatusOr<std::shared_ptr<Map>> {
    return slot.is_extern ? rack.tor().outstanding_map() : nullptr;
  };
  bpf::LoadedProgram loaded = bpf::Load(source, options).value();
  auto rng = std::make_shared<Rng>(3);
  bpf::ExecEnv env;
  env.random_u32 = [rng]() { return static_cast<uint32_t>(rng->Next()); };
  env.ktime_ns = [&sim]() { return sim.Now(); };
  SYRUP_CHECK_OK(rack.tor().InstallTenantProgram(
      9000, std::make_shared<BytecodePacketPolicy>(std::move(loaded.compiled),
                                                   std::move(env))));
}

double P99(RackPolicy policy, bool straggler, double load) {
  Simulator sim;
  RackConfig config;
  config.num_servers = 4;
  if (straggler) {
    config.server_speed = {1.0, 1.0, 1.0, 3.0};
  }
  Rack rack(sim, config);
  constexpr char kRegisters[] = "/tor/outstanding";
  switch (policy) {
    case RackPolicy::kHash:
      break;  // default path
    case RackPolicy::kRoundRobin:
      InstallTenantProgram(sim, rack, RoundRobinPolicyAsm(4));
      break;
    case RackPolicy::kLeastLoaded:
      InstallTenantProgram(sim, rack, LeastLoadedPolicyAsm(4, kRegisters));
      break;
    case RackPolicy::kPowerOfTwo:
      InstallTenantProgram(sim, rack, PowerOfTwoPolicyAsm(4, kRegisters));
      break;
  }
  LoadGenConfig gen_config;
  gen_config.rate_rps = load;
  gen_config.dst_port = 9000;
  gen_config.num_flows = 200;
  gen_config.seed = 8;
  LoadGenerator gen(
      sim, [&rack](Packet pkt) { rack.InjectRequest(std::move(pkt)); },
      gen_config);
  gen.Start(400 * kMillisecond);
  sim.RunUntil(450 * kMillisecond);
  return static_cast<double>(rack.latency().Percentile(99)) / 1000.0;
}

void RunCase(bool straggler, const char* title) {
  std::printf("# %s\n", title);
  std::printf("%10s | %10s %10s %10s %10s   (p99 us)\n", "load_rps",
              "hash", "rr", "jsq", "p2c");
  for (double load : {400e3, 800e3, 1000e3, 1200e3, 1400e3, 1600e3}) {
    std::printf("%10.0f | %10.1f %10.1f %10.1f %10.1f\n", load,
                P99(RackPolicy::kHash, straggler, load),
                P99(RackPolicy::kRoundRobin, straggler, load),
                P99(RackPolicy::kLeastLoaded, straggler, load),
                P99(RackPolicy::kPowerOfTwo, straggler, load));
  }
}

void Run() {
  std::printf("# Rack-level scheduling: 4 servers x 6 cores behind a "
              "programmable ToR switch\n");
  RunCase(false, "homogeneous servers");
  RunCase(true, "one 3x-slower straggler server");
  std::printf(
      "# Expectation: homogeneous -> rr/jsq similar, hash worst (flow "
      "imbalance); straggler ->\n"
      "# hash and rr overload the slow server (they send it a full share) "
      "while jsq routes\n"
      "# around it, sustaining far higher rack load at low p99.\n");
}

}  // namespace
}  // namespace syrup

int main() {
  syrup::Run();
  return 0;
}
