#include "src/rack/tor_switch.h"

#include "src/common/logging.h"

namespace syrup {

TorSwitch::TorSwitch(Simulator& sim, TorSwitchConfig config, TxFn tx)
    : sim_(sim), config_(config), tx_(std::move(tx)) {
  SYRUP_CHECK_GT(config_.num_server_ports, 0);
  MapSpec spec;
  spec.type = MapType::kArray;
  spec.max_entries = static_cast<uint32_t>(config_.num_server_ports);
  spec.name = "tor_outstanding";
  outstanding_ = CreateMap(spec).value();
}

Status TorSwitch::InstallTenantProgram(uint16_t dst_port,
                                       std::shared_ptr<PacketPolicy> policy) {
  if (policy == nullptr) {
    return InvalidArgumentError("null tenant program");
  }
  tenant_programs_[dst_port] = std::move(policy);
  return OkStatus();
}

int TorSwitch::DefaultPort(const Packet& pkt) const {
  return static_cast<int>(pkt.tuple.Hash() %
                          static_cast<uint64_t>(config_.num_server_ports));
}

void TorSwitch::RxFromUplink(Packet pkt) {
  int port;
  // Match-action stage: dst port picks the tenant's scheduling program.
  auto it = tenant_programs_.find(pkt.tuple.dst_port);
  if (it == tenant_programs_.end()) {
    ++stats_.no_tenant_match;
    port = DefaultPort(pkt);
  } else {
    const Decision d = it->second->Schedule(PacketView::Of(pkt));
    if (d == kDrop) {
      ++stats_.policy_drops;
      return;
    }
    if (d == kPass) {
      port = DefaultPort(pkt);
    } else if (d < static_cast<Decision>(config_.num_server_ports)) {
      port = static_cast<int>(d);
    } else {
      ++stats_.invalid_decisions;
      port = DefaultPort(pkt);
    }
  }

  // Data-plane register update: one more request outstanding on `port`.
  uint32_t key = static_cast<uint32_t>(port);
  void* counter = outstanding_->Lookup(&key);
  SYRUP_CHECK_NE(counter, nullptr);
  Map::AtomicFetchAdd(counter, 1);

  ++stats_.requests_forwarded;
  const Duration latency = config_.pipeline_latency + config_.wire_latency;
  tx_fifo_.emplace_back(port, std::move(pkt));
  sim_.ScheduleAfter(latency, [this]() {
    const auto [out_port, out_pkt] = std::move(tx_fifo_.front());
    tx_fifo_.pop_front();
    tx_(out_port, out_pkt);
  });
}

void TorSwitch::RxFromServer(int port, const Packet& /*pkt*/) {
  uint32_t key = static_cast<uint32_t>(port);
  void* counter = outstanding_->Lookup(&key);
  SYRUP_CHECK_NE(counter, nullptr);
  // Decrement, saturating at zero (a response for a request forwarded
  // before the counters were reset must not underflow).
  uint64_t current = Map::AtomicLoad(counter);
  if (current > 0) {
    Map::AtomicFetchAdd(counter, static_cast<uint64_t>(-1));
  }
  ++stats_.responses_forwarded;
}

uint64_t TorSwitch::OutstandingOn(int port) const {
  uint32_t key = static_cast<uint32_t>(port);
  void* counter = outstanding_->Lookup(&key);
  return counter == nullptr ? 0 : Map::AtomicLoad(counter);
}

}  // namespace syrup
