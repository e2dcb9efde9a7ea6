#include "src/rack/rack.h"

#include "src/common/logging.h"
#include "src/policies/builtin.h"

namespace syrup {

Rack::Rack(Simulator& sim, RackConfig config)
    : sim_(sim), config_(config) {
  SYRUP_CHECK_GT(config_.num_servers, 0);
  config_.tor.num_server_ports = config_.num_servers;

  for (int i = 0; i < config_.num_servers; ++i) {
    auto host = std::make_unique<Host>();
    StackConfig stack_config;
    stack_config.num_nic_queues = config_.threads_per_server;
    host->stack = std::make_unique<HostStack>(sim, stack_config);
    host->syrupd =
        std::make_unique<Syrupd>(sim, host->stack.get(), config_.seed + 100);
    const AppId app =
        host->syrupd->RegisterApp("rocksdb", 1000, config_.port).value();
    // Each host runs its own Syrup socket policy: round robin, so the
    // rack-level comparison isolates the *switch-layer* policy.
    SYRUP_CHECK_OK(host->syrupd
                       ->DeployPolicyFile(
                           app,
                           RoundRobinPolicyAsm(static_cast<uint32_t>(
                               config_.threads_per_server)),
                           Hook::kSocketSelect)
                       .status());

    host->machine =
        std::make_unique<Machine>(sim, config_.threads_per_server);
    host->scheduler = std::make_unique<PinnedScheduler>(*host->machine);
    host->machine->SetScheduler(host->scheduler.get());

    RocksDbConfig server_config;
    server_config.num_threads = config_.threads_per_server;
    server_config.port = config_.port;
    server_config.seed = config_.seed * 13 + static_cast<uint64_t>(i);
    // Response wire: server NIC -> switch -> uplink.
    server_config.wire_delay =
        config_.tor.wire_latency + config_.tor.pipeline_latency +
        5 * kMicrosecond;
    const double speed =
        static_cast<size_t>(i) < config_.server_speed.size()
            ? config_.server_speed[static_cast<size_t>(i)]
            : 1.0;
    auto scale = [speed](Duration d) {
      return static_cast<Duration>(static_cast<double>(d) * speed);
    };
    server_config.get_lo = scale(server_config.get_lo);
    server_config.get_hi = scale(server_config.get_hi);
    server_config.scan_lo = scale(server_config.scan_lo);
    server_config.scan_hi = scale(server_config.scan_hi);
    host->server = std::make_unique<RocksDbServer>(
        sim, *host->stack, *host->machine, server_config);

    const int port_index = i;
    host->server->SetCompletionCallback(
        [this, port_index](const Packet& pkt, Time completion) {
          tor_->RxFromServer(port_index, pkt);
          const Time sent = pkt.send_time();
          latency_.Record(completion > sent ? completion - sent : 0);
          ++completed_;
        });
    hosts_.push_back(std::move(host));
  }

  tor_ = std::make_unique<TorSwitch>(
      sim_, config_.tor, [this](int port, const Packet& pkt) {
        hosts_[static_cast<size_t>(port)]->stack->Rx(pkt);
      });
}

void Rack::ResetStats() {
  latency_.Reset();
  completed_ = 0;
  for (auto& host : hosts_) {
    host->server->ResetStats();
  }
}

}  // namespace syrup
