// syrupctl: bpftool-style introspection of a live Syrup deployment.
//
// Demonstrates the operator surface: list attached policies, list pinned
// maps, dump map contents, and export the daemon's metrics — the
// observability a resource manager (paper §3.2) builds on. Runs against a
// small in-process multi-tenant deployment since the whole system is a
// library.
//
// Build & run:
//   ./build/examples/syrupctl            # human-readable inspection
//   ./build/examples/syrupctl stats      # full StatsSnapshot() as JSON
//   ./build/examples/syrupctl lint p.s   # verifier lint report for a policy
//   ./build/examples/syrupctl cost p.s   # per-tier WCET breakdown + budgets
//   ./build/examples/syrupctl analyze    # deployment-wide map interference
//   ./build/examples/syrupctl exec-mode            # requested vs effective tier
//   ./build/examples/syrupctl exec-mode native     # deploy under a given tier
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/apps/loadgen.h"
#include "src/apps/rocksdb_server.h"
#include "src/bpf/assembler.h"
#include "src/bpf/verifier.h"
#include "src/sched/pinned_scheduler.h"
#include "src/sim/simulator.h"
#include "src/syrup.h"

namespace {

// Materializes an assembled policy's maps for an offline check. Extern
// maps bind at deploy time, so a generic hash map stands in: the most
// expensive kind, which keeps cost bounds conservative. A declared spec
// that CreateMap rejects fails here as it fails syrupd's deploy.
syrup::StatusOr<syrup::bpf::Program> BuildProgram(
    const syrup::bpf::AssembledProgram& assembled) {
  using namespace syrup;
  bpf::Program program;
  program.name = assembled.name;
  program.insns = assembled.insns;
  for (const bpf::MapSlot& slot : assembled.map_slots) {
    MapSpec spec = slot.spec;
    if (slot.is_extern) {
      spec = MapSpec{};
      spec.type = MapType::kHash;
      spec.max_entries = 1024;
    }
    SYRUP_ASSIGN_OR_RETURN(std::shared_ptr<Map> map, CreateMap(spec));
    program.maps.push_back(std::move(map));
  }
  return program;
}

// `syrupctl lint <file.s>` (alias: `verify`): the offline face of the
// deploy-time verifier gate. Runs the keep-going VerifyAll() pass and
// prints every error plus the warning catalog, one formatted diagnostic
// per line — the same strings Syrupd would put in a rejection Status.
// Exit code: 0 clean (warnings allowed), 1 rejected, 2 usage/IO.
int LintPolicyFile(const char* path) {
  using namespace syrup;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "lint: cannot read '%s'\n", path);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto assembled = bpf::Assemble(buffer.str());
  if (!assembled.ok()) {
    std::fprintf(stderr, "lint: %s\n",
                 assembled.status().ToString().c_str());
    return 1;
  }
  auto program = BuildProgram(*assembled);
  if (!program.ok()) {
    std::fprintf(stderr, "lint: %s\n", program.status().ToString().c_str());
    return 1;
  }

  const bpf::VerifyReport report =
      bpf::VerifyAll(*program, assembled->context);
  size_t errors = 0;
  for (const bpf::Diagnostic& d : report.diagnostics) {
    if (d.severity == bpf::DiagSeverity::kError) ++errors;
    std::printf("%s\n", bpf::FormatDiagnostic(d, report.program).c_str());
  }
  std::printf(
      "%s: %zu error(s), %zu warning(s); visited %llu insns, "
      "%llu branch states (%llu pruned), %llu ns\n",
      report.ok() ? "OK" : "REJECTED", errors,
      report.diagnostics.size() - errors,
      static_cast<unsigned long long>(report.stats.visited_insns),
      static_cast<unsigned long long>(report.stats.branch_states),
      static_cast<unsigned long long>(report.stats.pruned_states),
      static_cast<unsigned long long>(report.stats.verify_ns));
  return report.ok() ? 0 : 1;
}

// `syrupctl cost <file.s>`: the offline face of the deploy-time WCET gate.
// Prints the verifier cost pass's per-tier worst/best-case bounds, the
// hottest path disassembled, and the verdict against every hook budget the
// program could deploy to. Uses the deterministic DefaultCostModel (the
// same tables the daemon's budget gate uses), so output is stable across
// machines. Exit: 0 bounded and verified, 1 rejected or unbounded, 2 IO.
int CostPolicyFile(const char* path) {
  using namespace syrup;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cost: cannot read '%s'\n", path);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto assembled = bpf::Assemble(buffer.str());
  if (!assembled.ok()) {
    std::fprintf(stderr, "cost: %s\n",
                 assembled.status().ToString().c_str());
    return 1;
  }
  auto built = BuildProgram(*assembled);
  if (!built.ok()) {
    std::fprintf(stderr, "cost: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const bpf::Program& program = *built;

  bpf::VerifierStats stats;
  bpf::AnalysisFacts facts;
  const Status verdict =
      bpf::Verify(program, assembled->context, {}, &stats, &facts);
  if (!verdict.ok()) {
    std::printf("REJECTED: %s\n", verdict.ToString().c_str());
    return 1;
  }
  const bpf::CostFacts& cost = facts.cost;
  const bool packet = assembled->context == bpf::ProgramContext::kPacket;
  std::printf("program '%s' (.ctx %s), %zu insns\n", program.name.c_str(),
              packet ? "packet" : "thread", program.insns.size());
  if (!cost.bounded) {
    std::printf("UNBOUNDED: the cost pass exhausted its exploration "
                "budget; no worst-case bound exists\n");
    return 1;
  }
  std::printf("wcet_insns=%llu best_insns=%llu%s\n",
              static_cast<unsigned long long>(cost.wcet_insns),
              static_cast<unsigned long long>(cost.best_insns),
              cost.has_tail_call
                  ? " (+ tail-call targets outside this analysis)"
                  : "");
  std::printf("%-10s %12s %12s\n", "tier", "wcet_ns", "best_ns");
  for (size_t t = 0; t < bpf::kNumExecModes; ++t) {
    std::printf("%-10s %12.1f %12.1f\n",
                std::string(bpf::ExecModeName(static_cast<bpf::ExecMode>(t)))
                    .c_str(),
                cost.wcet_ns[t], cost.best_ns[t]);
  }
  std::printf("hottest path (%zu insns):\n", cost.hottest_path.size());
  for (uint32_t pc : cost.hottest_path) {
    std::printf("  %3u: %s\n", pc,
                bpf::Disassemble(program.insns[pc]).c_str());
  }
  // Budget verdicts at the compiled tier — the daemon's default exec mode,
  // and what the deploy gate checks unless the deployment runs elsewhere.
  const double wcet =
      cost.wcet_ns[static_cast<size_t>(bpf::ExecMode::kCompiled)];
  std::printf("budget check (compiled tier):\n");
  for (size_t i = 0; i < kNumHooks; ++i) {
    const Hook hook = HookFromIndex(i);
    if (IsPacketHook(hook) != packet) {
      continue;
    }
    const double budget = DefaultHookBudgetNs(hook);
    std::printf("  %-16s %8.1f ns budget  %5.1f%%  %s\n",
                std::string(HookName(hook)).c_str(), budget,
                100.0 * wcet / budget, wcet <= budget ? "OK" : "OVER");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace syrup;
  const std::string command = argc > 1 ? argv[1] : "inspect";
  if (command == "lint" || command == "verify") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s %s <policy.s>\n", argv[0],
                   command.c_str());
      return 2;
    }
    return LintPolicyFile(argv[2]);
  }
  if (command == "cost") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s cost <policy.s>\n", argv[0]);
      return 2;
    }
    return CostPolicyFile(argv[2]);
  }
  if (command != "inspect" && command != "stats" &&
      command != "exec-mode" && command != "analyze") {
    std::fprintf(stderr,
                 "usage: %s [inspect|stats|exec-mode [mode]|"
                 "lint <policy.s>|cost <policy.s>|analyze [--json]]\n",
                 argv[0]);
    return 2;
  }

  Simulator sim;
  StackConfig stack_config;
  stack_config.num_nic_queues = 4;
  HostStack stack(sim, stack_config);
  Syrupd syrupd(sim, &stack);

  // `exec-mode <name>` switches the daemon's requested tier before anything
  // deploys — the runtime equivalent of the operator flipping the knob and
  // redeploying. With no argument it just reports the current state below.
  if (command == "exec-mode" && argc > 2) {
    const auto mode = bpf::ExecModeFromName(argv[2]);
    if (!mode.has_value()) {
      std::fprintf(stderr,
                   "exec-mode: unknown mode '%s' (interpret, compiled, "
                   "native)\n",
                   argv[2]);
      return 2;
    }
    syrupd.set_exec_mode(*mode);
  }

  // A multi-tenant deployment to inspect: "rocksdb" runs SCAN Avoid at
  // socket-select plus a token policy file at XDP_SKB; "analytics" shares
  // the host with round robin on its own port and pins its protocol
  // processing to one core with const_index at CPU redirect. The typed
  // handles own the deployments; holding them in main keeps the policies
  // attached for the whole run.
  const AppId rocksdb = syrupd.RegisterApp("rocksdb", 1000, 9000).value();
  SyrupClient rocksdb_client(syrupd, rocksdb);
  PolicyHandle scan_avoid =
      rocksdb_client.DeployPolicy(ScanAvoidPolicyAsm(4), Hook::kSocketSelect)
          .value();
  PolicyHandle token =
      rocksdb_client.DeployPolicy(TokenPolicyAsm(), Hook::kXdpSkb).value();
  MapHandle tokens =
      rocksdb_client.MapOpen("/syrup/rocksdb/token_map").value();
  (void)tokens.Update(/*user=*/1, 35);
  (void)tokens.Update(/*user=*/2, 7);

  const AppId analytics = syrupd.RegisterApp("analytics", 1001, 9001).value();
  SyrupClient analytics_client(syrupd, analytics);
  PolicyHandle analytics_rr =
      analytics_client.DeployPolicy(RoundRobinPolicyAsm(4),
                                    Hook::kSocketSelect)
          .value();
  PolicyHandle analytics_pin =
      analytics_client.DeployPolicy(ConstIndexPolicyAsm(1), Hook::kCpuRedirect)
          .value();

  Machine machine(sim, 4);
  PinnedScheduler scheduler(machine);
  machine.SetScheduler(&scheduler);
  RocksDbConfig server_config;
  server_config.num_threads = 4;
  server_config.scan_map =
      syrupd.registry().Open("/syrup/rocksdb/scan_map", 1000).value();
  RocksDbServer server(sim, stack, machine, server_config);

  // The analytics tenant has no server object; bare reuseport sockets on
  // its port are enough for its policy to dispatch real traffic.
  ReuseportGroup* analytics_group = stack.GetOrCreateGroup(9001);
  for (int i = 0; i < 4; ++i) {
    analytics_group->AddSocket(256);
  }

  auto make_gen = [&](uint16_t port, double rate) {
    LoadGenConfig gen_config;
    gen_config.rate_rps = rate;
    gen_config.dst_port = port;
    gen_config.mix = {{ReqType::kGet, 0.99}, {ReqType::kScan, 0.01}};
    return std::make_unique<LoadGenerator>(sim, stack, gen_config);
  };
  auto rocksdb_gen = make_gen(9000, 50'000);
  auto analytics_gen = make_gen(9001, 10'000);
  rocksdb_gen->Start(100 * kMillisecond);
  analytics_gen->Start(100 * kMillisecond);
  sim.RunUntil(100 * kMillisecond);

  // --- the syrupctl surface ------------------------------------------------

  if (command == "analyze") {
    // The deployment-wide map-interference report: who reads/writes each
    // map across every attached program, plus hygiene findings. Exit 1
    // when any error-severity finding exists (CI gates on this).
    const DeploymentAnalysis analysis = syrupd.AnalyzeDeployments();
    if (argc > 2 && std::strcmp(argv[2], "--json") == 0) {
      std::printf("%s\n", analysis.ToJson().c_str());
      return analysis.HasErrors() ? 1 : 0;
    }
    std::printf("== map interference ==\n");
    auto print_list = [](const char* role,
                         const std::vector<std::string>& progs) {
      if (progs.empty()) {
        return;
      }
      std::printf("    %s:", role);
      for (const std::string& p : progs) {
        std::printf(" %s", p.c_str());
      }
      std::printf("\n");
    };
    for (const MapInterferenceRow& row : analysis.rows) {
      std::printf("  %s\n", row.map.c_str());
      print_list("readers", row.readers);
      print_list("writers", row.writers);
      print_list("atomics", row.atomics);
    }
    std::printf("\n== findings ==\n");
    size_t errors = 0;
    size_t warnings = 0;
    for (const InterferenceFinding& f : analysis.findings) {
      if (f.level == InterferenceFinding::Level::kError) ++errors;
      if (f.level == InterferenceFinding::Level::kWarning) ++warnings;
      std::printf("  %s [%s]%s%s: %s\n",
                  std::string(InterferenceLevelName(f.level)).c_str(),
                  f.category.c_str(), f.map.empty() ? "" : " map=",
                  f.map.c_str(), f.detail.c_str());
    }
    std::printf("analyze: %zu error(s), %zu warning(s), %zu info\n", errors,
                warnings, analysis.findings.size() - errors - warnings);
    return analysis.HasErrors() ? 1 : 0;
  }

  if (command == "stats") {
    // The entire observability tree: every app, hook, and metric the
    // daemon accounted during the run (docs/OBSERVABILITY.md schema).
    std::printf("%s\n", syrupd.StatsSnapshot().ToJson().c_str());
    return 0;
  }

  if (command == "exec-mode") {
    // Requested vs effective: the daemon compiles for its requested mode,
    // but the policy.exec_mode gauge records the tier each deployment
    // actually runs on (native silently degrades to compiled when the JIT
    // cannot handle the host or the program).
    std::printf("requested: %s\n",
                std::string(bpf::ExecModeName(syrupd.exec_mode())).c_str());
    std::printf("\n== per-deployment effective tier ==\n");
    const obs::Snapshot snapshot = syrupd.StatsSnapshot();
    for (const DeploymentInfo& d : syrupd.ListDeployments()) {
      const std::string hook(HookName(d.hook));
      const auto effective = static_cast<bpf::ExecMode>(
          snapshot.GaugeValue(d.app_name, hook, "policy.exec_mode"));
      std::printf("  app=%-10s hook=%-14s policy=%-12s tier=%s",
                  d.app_name.c_str(), hook.c_str(), d.policy_name.c_str(),
                  std::string(bpf::ExecModeName(effective)).c_str());
      if (effective == bpf::ExecMode::kNative) {
        std::printf(" jit_code_bytes=%lld jit_ns=%lld",
                    static_cast<long long>(snapshot.GaugeValue(
                        d.app_name, hook, "policy.jit_code_bytes")),
                    static_cast<long long>(snapshot.GaugeValue(
                        d.app_name, hook, "policy.jit_ns")));
      }
      std::printf("\n");
    }
    return 0;
  }

  std::printf("== deployments ==\n");
  for (const DeploymentInfo& d : syrupd.ListDeployments()) {
    std::printf("  app=%-10s port=%-6u hook=%-14s policy=%s\n",
                d.app_name.c_str(), d.port,
                std::string(HookName(d.hook)).c_str(),
                d.policy_name.c_str());
  }

  std::printf("\n== pinned maps ==\n");
  for (const std::string& path : syrupd.registry().ListPaths()) {
    auto map = syrupd.registry().Open(path, 1000);
    if (!map.ok()) {
      continue;
    }
    const MapSpec& spec = (*map)->spec();
    std::printf("  %-32s type=%-10s key=%uB value=%uB entries=%u live=%u\n",
                path.c_str(), std::string(MapTypeName(spec.type)).c_str(),
                spec.key_size, spec.value_size, spec.max_entries,
                (*map)->Size());
  }

  std::printf("\n== map dump: /syrup/rocksdb/token_map ==\n");
  tokens.map()->Visit([](const void* key, void* value) {
    uint32_t k;
    std::memcpy(&k, key, sizeof(k));
    std::printf("  user %u -> %llu tokens\n", k,
                static_cast<unsigned long long>(Map::AtomicLoad(value)));
  });

  std::printf("\n== map dump: /syrup/rocksdb/scan_map (socket states) ==\n");
  auto scan = syrupd.registry().Open("/syrup/rocksdb/scan_map", 1000);
  scan.value()->Visit([](const void* key, void* value) {
    uint32_t k;
    std::memcpy(&k, key, sizeof(k));
    const uint64_t type = Map::AtomicLoad(value);
    std::printf("  socket %u -> %s\n", k,
                type == static_cast<uint64_t>(ReqType::kScan) ? "SCAN"
                                                              : "GET");
  });

  std::printf("\n== dispatch stats ==\n");
  std::printf("  socket_select: dispatched=%llu pass_through=%llu\n",
              static_cast<unsigned long long>(
                  syrupd.dispatch_stats(Hook::kSocketSelect).dispatched),
              static_cast<unsigned long long>(
                  syrupd.dispatch_stats(Hook::kSocketSelect).no_policy));
  std::printf("\n(run `%s stats` for the full metrics tree as JSON)\n",
              argv[0]);
  return 0;
}
