// Rack harness: a ToR switch fronting N simulated hosts (paper §6.1's
// distributed setting).
//
// Scheduling happens at two layers, both through Syrup's matching
// abstraction: the switch's tenant program matches requests to *servers*,
// and each host's syrupd-deployed socket policy matches datagrams to
// *sockets*. The switch's outstanding-request registers are a Syrup Map
// that device-level policies (e.g. LeastLoadedPolicyAsm, bound to it as an
// extern map) read directly.
#ifndef SYRUP_SRC_RACK_RACK_H_
#define SYRUP_SRC_RACK_RACK_H_

#include <memory>
#include <vector>

#include "src/apps/rocksdb_server.h"
#include "src/common/histogram.h"
#include "src/core/syrupd.h"
#include "src/rack/tor_switch.h"
#include "src/sched/pinned_scheduler.h"

namespace syrup {

struct RackConfig {
  int num_servers = 4;
  int threads_per_server = 6;
  uint16_t port = 9000;
  // Per-server service-time multiplier (heterogeneity / stragglers). Empty
  // = all 1.0.
  std::vector<double> server_speed;
  TorSwitchConfig tor;
  uint64_t seed = 1;
};

class Rack {
 public:
  explicit Rack(Simulator& sim, RackConfig config);

  Rack(const Rack&) = delete;
  Rack& operator=(const Rack&) = delete;

  TorSwitch& tor() { return *tor_; }

  // Uplink entry point for load generators.
  void InjectRequest(Packet pkt) { tor_->RxFromUplink(std::move(pkt)); }

  // End-to-end (client-observed) latency across all servers.
  const Histogram& latency() const { return latency_; }
  uint64_t completed() const { return completed_; }
  void ResetStats();

  RocksDbServer& server(int index) { return *hosts_[index]->server; }
  uint64_t server_completed(int index) const {
    return hosts_[index]->server->completed();
  }

 private:
  struct Host {
    std::unique_ptr<HostStack> stack;
    std::unique_ptr<Syrupd> syrupd;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<PinnedScheduler> scheduler;
    std::unique_ptr<RocksDbServer> server;
  };

  Simulator& sim_;
  RackConfig config_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::unique_ptr<TorSwitch> tor_;
  Histogram latency_;
  uint64_t completed_ = 0;
};

}  // namespace syrup

#endif  // SYRUP_SRC_RACK_RACK_H_
