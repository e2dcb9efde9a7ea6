// Ablation: flow affinity vs load balance at the CPU Redirect hook — the
// paper's §2.1 motivation that "scheduling flexibility and customizability
// is a necessary feature of modern operating systems": RFS-style locality
// wins on uniform traffic, spraying wins on skewed traffic, and only a
// programmable hook lets each workload pick its winner.
//
// This is a stack-level experiment (sockets are sinks): the contended
// resource is softirq processing capacity. The affinity model charges a
// cold penalty when a flow's protocol state is not cache-warm on the
// processing core. Variants:
//   rss    — kernel default: flow-hash steering. Flows stay warm, but a
//            heavy flow pins its whole load to one softirq core.
//   spray  — a Syrup round-robin policy at the CPU Redirect hook:
//            perfectly balanced, but almost always cold + an IPI each.
#include <cstdio>
#include <memory>

#include "src/apps/loadgen.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/core/syrupd.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

struct Result {
  double p99_us;
  double drop_pct;
};

Result RunOnce(bool spray, double skew, double load) {
  Simulator sim;
  StackConfig stack_config;
  stack_config.num_nic_queues = 6;
  stack_config.protocol_cold_penalty = 900;
  stack_config.nic_ring_depth = 256;
  HostStack stack(sim, stack_config);
  Syrupd syrupd(sim, &stack);
  syrupd.set_exec_mode(bpf::ExecMode::kNative);
  const AppId app = syrupd.RegisterApp("sink", 1000, 9000).value();
  if (spray) {
    SYRUP_CHECK_OK(
        syrupd.DeployPolicyFile(app, RoundRobinPolicyAsm(6), Hook::kCpuRedirect)
            .status());
  }

  // Sink sockets: measure stack-level delivery latency.
  ReuseportGroup* group = stack.GetOrCreateGroup(9000);
  Histogram latency;
  for (int i = 0; i < 6; ++i) {
    Socket* sock = group->AddSocket(1u << 20);
    sock->SetWakeCallback([&latency, sock, &sim]() {
      auto pkt = sock->Dequeue();
      latency.Record(sim.Now() - pkt->send_time());
    });
  }

  LoadGenConfig gen_config;
  gen_config.rate_rps = load;
  gen_config.dst_port = 9000;
  gen_config.num_flows = 24;
  gen_config.flow_skew = skew;
  gen_config.wire_delay = 0;
  gen_config.seed = 21;
  LoadGenerator gen(sim, stack, gen_config);
  gen.Start(600 * kMillisecond);
  sim.RunUntil(650 * kMillisecond);

  const double drops =
      100.0 * static_cast<double>(stack.stats().TotalDrops()) /
      static_cast<double>(gen.sent());
  return Result{static_cast<double>(latency.Percentile(99)) / 1000.0, drops};
}

void RunCase(double skew, const char* title) {
  std::printf("# %s\n", title);
  std::printf("%10s | %10s %10s | %10s %10s\n", "load_rps", "rss_p99",
              "spray_p99", "rss_drop%", "spray_drop%");
  for (double load : {200e3, 400e3, 600e3, 800e3, 1000e3, 1200e3}) {
    const Result rss = RunOnce(false, skew, load);
    const Result spray = RunOnce(true, skew, load);
    std::printf("%10.0f | %10.1f %10.1f | %10.2f %10.2f\n", load, rss.p99_us,
                spray.p99_us, rss.drop_pct, spray.drop_pct);
  }
}

void Run() {
  std::printf("# Ablation: flow affinity (RSS default) vs spraying (Syrup "
              "RR at CPU Redirect)\n");
  std::printf("# stack-level delivery p99; 6 softirq cores; 24 flows\n");
  RunCase(0.0, "uniform flows");
  RunCase(2.0, "zipf-2.0 flows (one flow ~60% of traffic)");
  std::printf(
      "# Expectation: uniform -> RSS wins at every load (spray pays cold "
      "misses + IPIs);\n"
      "# skewed -> RSS's hot core saturates (~700k here: drops, ms tails) "
      "while spray\n"
      "# scales further. Neither policy wins both workloads (paper "
      "S2.1).\n");
}

}  // namespace
}  // namespace syrup

int main() {
  syrup::Run();
  return 0;
}
