// Programmable top-of-rack switch model (paper §6.1's distributed
// extension).
//
// "Scheduling occurs across the data center stack, from cluster managers
// and software load balancers to programmable switches... similar to
// end-host components, they schedule inputs (jobs/requests/packets) to
// executors (servers)." This module realizes that:
//
//   * Tenant isolation follows §6.1's recipe exactly: a match-action table
//     keyed by the packet's destination port steers each packet to the
//     owning tenant's scheduling program; unmatched traffic takes the
//     default path. ("Syrup can enforce isolation by inserting P4
//     match/action rules that ... steer it to the correct handling
//     function.")
//   * Tenant programs are ordinary Syrup policies whose executors are
//     *server ports* — the same matching abstraction as every other hook.
//     There is no daemon on the switch: its control plane loads each
//     program with bpf::Load (verified bytecode, like every host's) and
//     installs the resulting BytecodePacketPolicy.
//   * Switch state (per-server outstanding-request counters, the registers
//     a RackSched-style least-loaded policy needs) lives in a Syrup Map,
//     satisfying §6.1's requirement that devices "support a Map
//     abstraction which can reside in the device". A program reads it as
//     an extern map the loader's resolver binds to outstanding_map().
#ifndef SYRUP_SRC_RACK_TOR_SWITCH_H_
#define SYRUP_SRC_RACK_TOR_SWITCH_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/decision.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/policy.h"
#include "src/map/map.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace syrup {

struct TorSwitchConfig {
  int num_server_ports = 4;
  Duration pipeline_latency = 1 * kMicrosecond;  // match-action + buffering
  Duration wire_latency = 2 * kMicrosecond;      // switch <-> server link
};

struct TorSwitchStats {
  uint64_t requests_forwarded = 0;
  uint64_t responses_forwarded = 0;
  uint64_t policy_drops = 0;
  uint64_t no_tenant_match = 0;   // default path (hash over servers)
  uint64_t invalid_decisions = 0;
};

class TorSwitch {
 public:
  // `tx` delivers a request to a server port after switch+wire latency.
  using TxFn = std::function<void(int port, const Packet&)>;

  TorSwitch(Simulator& sim, TorSwitchConfig config, TxFn tx);

  TorSwitch(const TorSwitch&) = delete;
  TorSwitch& operator=(const TorSwitch&) = delete;

  // --- control plane (what syrupd programs into the switch) ---------------

  // Match-action isolation rule: packets to `dst_port` run `policy`.
  Status InstallTenantProgram(uint16_t dst_port,
                              std::shared_ptr<PacketPolicy> policy);

  // Per-server outstanding-request registers (u32 port -> u64 count),
  // maintained by the data plane; readable by policies and by end hosts
  // (a device-resident Syrup Map).
  std::shared_ptr<Map> outstanding_map() { return outstanding_; }

  // --- data plane -----------------------------------------------------------

  // A request arrives from the uplink; the tenant program (or the default
  // flow hash) picks the server port.
  void RxFromUplink(Packet pkt);

  // A server's response passes back through the switch (decrements the
  // server's outstanding register).
  void RxFromServer(int port, const Packet& pkt);

  const TorSwitchStats& stats() const { return stats_; }
  uint64_t OutstandingOn(int port) const;

 private:
  int DefaultPort(const Packet& pkt) const;

  Simulator& sim_;
  TorSwitchConfig config_;
  TxFn tx_;
  // Packets in flight between the match-action stage and the server link.
  // Every forwarded packet waits the same pipeline+wire latency, so the
  // in-order event dispatch drains this FIFO front-first; keeping packets
  // here (instead of inside per-event closures) keeps the tx event capture
  // at {this} and avoids a 64-byte packet copy per forward.
  std::deque<std::pair<int, Packet>> tx_fifo_;
  std::map<uint16_t, std::shared_ptr<PacketPolicy>> tenant_programs_;
  std::shared_ptr<Map> outstanding_;
  TorSwitchStats stats_;
};

}  // namespace syrup

#endif  // SYRUP_SRC_RACK_TOR_SWITCH_H_
