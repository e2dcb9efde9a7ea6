#include "src/apps/experiments.h"

#include <memory>

#include "src/apps/loadgen.h"
#include "src/apps/rocksdb_server.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/core/syrup_api.h"
#include "src/core/syrupd.h"
#include "src/policies/builtin.h"
#include "src/sched/cfs_scheduler.h"
#include "src/sched/pinned_scheduler.h"

namespace syrup {
namespace {

constexpr uint16_t kRocksDbPort = 9000;
constexpr uint16_t kMicaPort = 9100;
constexpr Uid kAppUid = 1000;
constexpr Duration kDrain = 50 * kMillisecond;

double ToUs(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

// East-west traffic is a fixed, flow-deterministic slice of each shard's
// requests; the sink and the shard's output bound both decide with this.
bool IsCrossBound(const Packet& pkt, uint32_t cross_mille) {
  return pkt.tuple.Hash() % 1000 < cross_mille;
}

// Runs one experiment on a ShardedSim (see ExperimentShardingConfig): builds
// a host per shard, runs the warm-up, opens every host's measurement
// window, runs `snapshot` on each shard when the window closes, drains
// queued requests so tail latency is not truncated, and folds the hosts into
// one result with `aggregate`, adding the engine's counters. Hosts must
// expose `stack`, `server`, `gen`, `sent_before` and `drops_before`;
// they are destroyed before the engine they run on.
//
// The load generator's sink is the only cross-shard sender, so with
// shards > 1 every shard's output bound is its next cross-bound arrival plus
// the link latency (never, without east-west traffic). The windows then
// stretch from one east-west packet to the next instead of one lookahead.
template <typename Config, typename Host, typename Result>
Result RunOnShards(
    const Config& config,
    std::unique_ptr<Host> (*build)(Simulator&, const Config&, uint64_t,
                                   LoadGenerator::SinkFn),
    void (*snapshot)(Host&),
    Result (*aggregate)(const Config&,
                        const std::vector<std::unique_ptr<Host>>&)) {
  const ExperimentShardingConfig& sharding = config.sharding;
  const int num_shards = sharding.sim.shards;
  ShardedSim sharded(sharding.sim);
  const bool cross = num_shards > 1 && sharding.cross_traffic > 0.0;
  if (cross) {
    SYRUP_CHECK_GE(sharding.cross_link_latency, sharded.lookahead())
        << "east-west link latency below the sharded lookahead";
  }
  const uint32_t cross_mille =
      static_cast<uint32_t>(sharding.cross_traffic * 1000.0 + 0.5);

  std::vector<std::unique_ptr<Host>> hosts(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    // Shard 0 keeps the configured seed; replicas draw deterministically
    // distinct streams.
    const uint64_t seed =
        config.seed + static_cast<uint64_t>(s) * uint64_t{1000003};
    LoadGenerator::SinkFn sink;
    if (cross) {
      // East-west traffic is served by the next shard over an inter-shard
      // link (ring topology), entering through its stack's channel port.
      sink = [&sharded, &hosts, s, num_shards, cross_mille,
              link = sharding.cross_link_latency](Packet pkt) {
        if (IsCrossBound(pkt, cross_mille)) {
          const int dst = (s + 1) % num_shards;
          hosts[static_cast<size_t>(dst)]->stack->PostRx(
              s, sharded.shard(s).Now() + link, std::move(pkt));
        } else {
          hosts[static_cast<size_t>(s)]->stack->Rx(std::move(pkt));
        }
      };
    }
    hosts[static_cast<size_t>(s)] =
        build(sharded.shard(s), config, seed, std::move(sink));
    if (cross) {
      hosts[static_cast<size_t>(s)]->stack->BindShard(&sharded, s);
    }
    if (num_shards > 1) {
      sharded.SetOutputBound(
          s, [&gen = *hosts[static_cast<size_t>(s)]->gen, cross, cross_mille,
              link = sharding.cross_link_latency]() {
            if (!cross) {
              return Simulator::kNoEventTime;
            }
            const Time next =
                gen.NextArrivalWhere([cross_mille](const Packet& pkt) {
                  return IsCrossBound(pkt, cross_mille);
                });
            return next == Simulator::kNoEventTime ? next : next + link;
          });
    }
  }

  sharded.RunUntil(config.warmup);
  for (auto& host : hosts) {
    host->server->ResetStats();
    host->sent_before = host->gen->sent();
    host->drops_before = host->stack->stats().TotalDrops();
  }
  const Time end = config.warmup + config.measure;
  for (int s = 0; s < num_shards; ++s) {
    sharded.shard(s).ScheduleAt(
        end, [snapshot, host = hosts[static_cast<size_t>(s)].get()]() {
          snapshot(*host);
        });
  }
  sharded.RunUntil(end + kDrain);
  Result result = aggregate(config, hosts);
  result.sim_stats = sharded.stats();
  return result;
}

}  // namespace

std::string_view SocketPolicyName(SocketPolicyKind kind) {
  switch (kind) {
    case SocketPolicyKind::kVanilla: return "vanilla";
    case SocketPolicyKind::kRoundRobin: return "round_robin";
    case SocketPolicyKind::kScanAvoid: return "scan_avoid";
    case SocketPolicyKind::kSita: return "sita";
  }
  return "?";
}

namespace {

// One complete RocksDB host: every component lives on (and only touches) a
// single Simulator, so a host maps 1:1 onto a shard of a ShardedSim run.
// Members are declared in construction order; destruction runs in reverse,
// so deployments (which reference syrupd) unwind before it.
struct RocksDbHost {
  std::unique_ptr<HostStack> stack;
  std::unique_ptr<Syrupd> syrupd;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Scheduler> scheduler;
  std::shared_ptr<Map> thread_type_map;
  std::shared_ptr<Map> scan_map;
  std::vector<PolicyHandle> deployments;
  std::unique_ptr<RocksDbServer> server;
  std::unique_ptr<LoadGenerator> gen;

  // Measurement-window bookkeeping (set by Mark/Snapshot below).
  uint64_t sent_before = 0;
  uint64_t drops_before = 0;
  uint64_t completed_in_window = 0;
  uint64_t completed_get_in_window = 0;
  uint64_t completed_scan_in_window = 0;
};

// Builds one host on `sim` with all seeds derived from `seed`. A null `sink`
// delivers generated packets straight into the host's own stack.
std::unique_ptr<RocksDbHost> BuildRocksDbHost(
    Simulator& sim, const RocksDbExperimentConfig& config, uint64_t seed,
    LoadGenerator::SinkFn sink) {
  auto host = std::make_unique<RocksDbHost>();
  StackConfig stack_config;
  stack_config.num_nic_queues = config.num_cores;
  stack_config.protocol_cold_penalty = config.protocol_cold_penalty;
  host->stack = std::make_unique<HostStack>(sim, stack_config);
  host->syrupd = std::make_unique<Syrupd>(sim, host->stack.get(), seed);
  Syrupd& syrupd = *host->syrupd;
  syrupd.set_exec_mode(config.exec_mode);
  const AppId app =
      syrupd.RegisterApp("rocksdb", kAppUid, kRocksDbPort).value();

  host->machine = std::make_unique<Machine>(sim, config.num_cores);
  Machine& machine = *host->machine;

  switch (config.thread_sched) {
    case ThreadSchedKind::kPinned:
      host->scheduler = std::make_unique<PinnedScheduler>(machine);
      machine.SetScheduler(host->scheduler.get());
      break;
    case ThreadSchedKind::kCfs:
      host->scheduler = std::make_unique<CfsScheduler>(machine);
      machine.SetScheduler(host->scheduler.get());
      break;
    case ThreadSchedKind::kGhostGetPriority: {
      MapSpec spec;
      spec.type = MapType::kHash;
      spec.max_entries = 256;
      spec.name = "thread_type_map";
      host->thread_type_map = CreateMap(spec).value();
      SYRUP_CHECK_OK(syrupd.registry().Pin("/syrup/rocksdb/thread_type_map",
                                           host->thread_type_map, kAppUid));
      GhostConfig ghost_config;
      ghost_config.num_managed_cores = config.num_cores - 1;
      // The thread hook runs the untrusted classifier program through the
      // active execution tier, just like the packet hooks.
      SYRUP_CHECK_OK(syrupd
                         .DeployThreadPolicyFile(
                             app,
                             GetPriorityThreadPolicyAsm(
                                 "/syrup/rocksdb/thread_type_map"),
                             machine, ghost_config)
                         .status());
      break;
    }
  }

  // Socket-select policy deployment (the workflow of paper Fig. 3).
  const uint32_t n = static_cast<uint32_t>(config.num_threads);
  SyrupClient client(syrupd, app);
  switch (config.socket_policy) {
    case SocketPolicyKind::kVanilla:
      break;
    case SocketPolicyKind::kRoundRobin:
      host->deployments.push_back(
          client.DeployPolicy(RoundRobinPolicyAsm(n), Hook::kSocketSelect)
              .value());
      break;
    case SocketPolicyKind::kScanAvoid:
      host->deployments.push_back(
          client.DeployPolicy(ScanAvoidPolicyAsm(n), Hook::kSocketSelect)
              .value());
      // The policy file declared scan_map; open the pin for the server's
      // userspace half.
      host->scan_map =
          syrupd.registry().Open("/syrup/rocksdb/scan_map", kAppUid).value();
      break;
    case SocketPolicyKind::kSita:
      host->deployments.push_back(
          client.DeployPolicy(SitaPolicyAsm(n), Hook::kSocketSelect).value());
      break;
  }

  if (config.late_binding) {
    host->stack->EnableLateBinding(kRocksDbPort);
  }

  RocksDbConfig server_config;
  server_config.num_threads = config.num_threads;
  server_config.port = kRocksDbPort;
  server_config.seed = seed * 31 + 5;
  server_config.scan_map = host->scan_map;
  server_config.thread_type_map = host->thread_type_map;
  host->server = std::make_unique<RocksDbServer>(sim, *host->stack, machine,
                                                 server_config);

  LoadGenConfig gen_config;
  gen_config.rate_rps = config.load_rps;
  gen_config.dst_port = kRocksDbPort;
  gen_config.num_flows = config.num_flows;
  gen_config.flow_skew = config.flow_skew;
  gen_config.user_id = 1;
  gen_config.mix = {{ReqType::kGet, config.get_fraction},
                    {ReqType::kScan, 1.0 - config.get_fraction}};
  if (config.get_fraction >= 1.0) {
    gen_config.mix = {{ReqType::kGet, 1.0}};
  }
  gen_config.seed = seed * 77 + 1;
  if (sink != nullptr) {
    host->gen = std::make_unique<LoadGenerator>(sim, std::move(sink),
                                                gen_config);
  } else {
    host->gen = std::make_unique<LoadGenerator>(sim, *host->stack, gen_config);
  }
  host->gen->Start(config.warmup + config.measure);
  return host;
}

void SnapshotRocksDbWindow(RocksDbHost& host) {
  host.completed_in_window = host.server->completed();
  host.completed_get_in_window = host.server->completed(ReqType::kGet);
  host.completed_scan_in_window = host.server->completed(ReqType::kScan);
}

// Folds per-host windows into one result (histograms merged in shard order,
// counts summed).
RocksDbResult AggregateRocksDb(
    const RocksDbExperimentConfig& config,
    const std::vector<std::unique_ptr<RocksDbHost>>& hosts) {
  uint64_t completed = 0;
  uint64_t completed_get = 0;
  uint64_t completed_scan = 0;
  uint64_t sent = 0;
  uint64_t drops = 0;
  Histogram overall;
  Histogram get_latency;
  Histogram scan_latency;
  for (const auto& host : hosts) {
    completed += host->completed_in_window;
    completed_get += host->completed_get_in_window;
    completed_scan += host->completed_scan_in_window;
    sent += host->gen->sent() - host->sent_before;
    drops += host->stack->stats().TotalDrops() - host->drops_before;
    overall.Merge(host->server->overall_latency());
    get_latency.Merge(host->server->latency(ReqType::kGet));
    scan_latency.Merge(host->server->latency(ReqType::kScan));
  }

  const double window_sec = ToSeconds(config.measure);
  RocksDbResult result;
  result.load_rps = config.load_rps * static_cast<double>(hosts.size());
  result.throughput_rps = static_cast<double>(completed) / window_sec;
  result.get_throughput_rps = static_cast<double>(completed_get) / window_sec;
  result.scan_throughput_rps =
      static_cast<double>(completed_scan) / window_sec;
  result.p50_us = ToUs(overall.Percentile(50));
  result.p99_us = ToUs(overall.Percentile(99));
  result.p99_get_us = ToUs(get_latency.Percentile(99));
  result.p99_scan_us = ToUs(scan_latency.Percentile(99));
  result.drop_fraction =
      sent == 0 ? 0.0
                : static_cast<double>(drops) / static_cast<double>(sent);
  // Shard 0's daemon.
  result.stats_json = hosts.front()->syrupd->StatsSnapshot().ToJson();
  return result;
}

}  // namespace

RocksDbResult RunRocksDbExperiment(const RocksDbExperimentConfig& config) {
  return RunOnShards(config, BuildRocksDbHost, SnapshotRocksDbWindow,
                     AggregateRocksDb);
}

TokenQosResult RunTokenQosExperiment(const TokenQosConfig& config) {
  Simulator sim;
  StackConfig stack_config;
  stack_config.num_nic_queues = config.num_threads;
  HostStack stack(sim, stack_config);
  Syrupd syrupd(sim, &stack, config.seed);
  // The machine-code tier: it decides exactly what the compiled tier does,
  // and simulates fastest.
  syrupd.set_exec_mode(bpf::ExecMode::kNative);
  const AppId app =
      syrupd.RegisterApp("rocksdb", kAppUid, kRocksDbPort).value();

  Machine machine(sim, config.num_threads);
  PinnedScheduler scheduler(machine);
  machine.SetScheduler(&scheduler);

  constexpr uint32_t kLsUser = 1;
  constexpr uint32_t kBeUser = 2;
  const uint32_t n = static_cast<uint32_t>(config.num_threads);
  const uint64_t tokens_per_epoch = static_cast<uint64_t>(
      config.token_rate_per_sec * ToSeconds(config.epoch));

  std::shared_ptr<std::function<void()>> replenish;  // token agent closure
  if (config.token_policy) {
    // The token agent's bucket map, pinned where the policy's `token_map`
    // declaration reopens it when it deploys below.
    MapSpec spec;
    spec.type = MapType::kHash;
    spec.max_entries = 16;
    spec.name = "token_map";
    std::shared_ptr<Map> token_map = CreateMap(spec).value();
    SYRUP_CHECK_OK(
        syrupd.registry().Pin("/syrup/rocksdb/token_map", token_map,
                              kAppUid));
    SYRUP_CHECK_OK(token_map->UpdateU64(kLsUser, tokens_per_epoch));
    SYRUP_CHECK_OK(token_map->UpdateU64(kBeUser, 0));

    // The userspace token agent (§3.4 generate_tokens): every epoch the LS
    // bucket refills and any leftover LS tokens are gifted to BE; stale BE
    // gifts expire. The closure reschedules itself through a weak
    // self-reference (a strong one would leak a retain cycle); the strong
    // owner below lives until the experiment ends.
    replenish = std::make_shared<std::function<void()>>();
    *replenish = [&sim, token_map, tokens_per_epoch,
                  epoch = config.epoch,
                  weak_self = std::weak_ptr<std::function<void()>>(
                      replenish)]() {
      uint32_t ls_key = kLsUser;
      uint32_t be_key = kBeUser;
      void* ls = token_map->Lookup(&ls_key);
      void* be = token_map->Lookup(&be_key);
      SYRUP_CHECK(ls != nullptr && be != nullptr);
      const uint64_t leftover = Map::AtomicLoad(ls);
      Map::AtomicStore(ls, tokens_per_epoch);
      Map::AtomicStore(be, leftover);
      if (auto self = weak_self.lock()) {
        sim.ScheduleAfter(epoch, *self);
      }
    };
    sim.ScheduleAfter(config.epoch, *replenish);
  }
  SYRUP_CHECK_OK(syrupd
                     .DeployPolicyFile(app,
                                       config.token_policy
                                           ? TokenRoundRobinPolicyAsm(n)
                                           : RoundRobinPolicyAsm(n),
                                       Hook::kSocketSelect)
                     .status());

  RocksDbConfig server_config;
  server_config.num_threads = config.num_threads;
  server_config.port = kRocksDbPort;
  server_config.seed = config.seed * 31 + 5;
  // Per-user accounting adds overhead; calibrated so the 400k RPS total
  // offered load sits "slightly higher than the saturation point" as the
  // paper describes for this experiment (saturation ~410k here).
  server_config.request_overhead = 3600;
  RocksDbServer server(sim, stack, machine, server_config);

  auto make_gen = [&](uint32_t user, double rate, uint64_t seed) {
    LoadGenConfig gen_config;
    gen_config.rate_rps = rate;
    gen_config.dst_port = kRocksDbPort;
    gen_config.user_id = user;
    gen_config.num_flows = 50;
    gen_config.seed = seed;
    return std::make_unique<LoadGenerator>(sim, stack, gen_config);
  };
  auto ls_gen = make_gen(kLsUser, config.ls_load_rps, config.seed * 3 + 1);
  auto be_gen = make_gen(kBeUser, config.be_load_rps, config.seed * 7 + 2);
  const Time end = config.warmup + config.measure;
  ls_gen->Start(end);
  be_gen->Start(end);

  sim.RunUntil(config.warmup);
  server.ResetStats();
  uint64_t ls_completed = 0;
  uint64_t be_completed = 0;
  sim.ScheduleAt(end, [&]() {
    ls_completed = server.user_completed(kLsUser);
    be_completed = server.user_completed(kBeUser);
  });
  sim.RunUntil(end + kDrain);

  const double window_sec = ToSeconds(config.measure);
  TokenQosResult result;
  result.ls_load_rps = config.ls_load_rps;
  result.be_load_rps = config.be_load_rps;
  result.ls_throughput_rps = static_cast<double>(ls_completed) / window_sec;
  result.be_throughput_rps = static_cast<double>(be_completed) / window_sec;
  result.ls_p99_us = ToUs(server.user_latency(kLsUser).Percentile(99));
  result.be_p99_us = ToUs(server.user_latency(kBeUser).Percentile(99));
  result.stats_json = syrupd.StatsSnapshot().ToJson();
  return result;
}

namespace {

// One complete MICA host; see RocksDbHost for the ownership and destruction
// order rules.
struct MicaHost {
  std::unique_ptr<HostStack> stack;
  std::unique_ptr<Syrupd> syrupd;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<PinnedScheduler> scheduler;
  std::unique_ptr<MicaServer> server;
  std::vector<PolicyHandle> deployments;
  std::unique_ptr<LoadGenerator> gen;

  uint64_t sent_before = 0;
  uint64_t drops_before = 0;
  uint64_t completed_in_window = 0;
};

std::unique_ptr<MicaHost> BuildMicaHost(Simulator& sim,
                                        const MicaExperimentConfig& config,
                                        uint64_t seed,
                                        LoadGenerator::SinkFn sink) {
  auto host = std::make_unique<MicaHost>();
  // Lighter per-packet costs than the RocksDB stack: MICA's receive path is
  // AF_XDP with busy-polled queues, and the paper's IRQs land on dedicated
  // hyperthread buddies.
  StackConfig stack_config;
  stack_config.num_nic_queues = config.num_threads;
  stack_config.driver_cost = 400;
  stack_config.skb_alloc_cost = 300;
  stack_config.xdp_cost = 200;
  stack_config.protocol_cost = 900;
  stack_config.afxdp_deliver_cost = 200;
  stack_config.afxdp_copy_cost = 300;
  stack_config.socket_queue_depth = 256;
  host->stack = std::make_unique<HostStack>(sim, stack_config);
  host->syrupd = std::make_unique<Syrupd>(sim, host->stack.get(), seed);
  Syrupd& syrupd = *host->syrupd;
  syrupd.set_exec_mode(config.exec_mode);
  const AppId app = syrupd.RegisterApp("mica", kAppUid, kMicaPort).value();

  host->machine = std::make_unique<Machine>(sim, config.num_threads);
  host->scheduler = std::make_unique<PinnedScheduler>(*host->machine);
  host->machine->SetScheduler(host->scheduler.get());

  MicaConfig server_config;
  server_config.num_threads = config.num_threads;
  server_config.port = kMicaPort;
  server_config.seed = seed * 13 + 3;
  host->server = std::make_unique<MicaServer>(
      sim, *host->stack, *host->machine, server_config, config.variant);

  const uint32_t n = static_cast<uint32_t>(config.num_threads);
  SyrupClient client(syrupd, app);
  std::vector<PolicyHandle>& deployments = host->deployments;
  switch (config.variant) {
    case MicaVariant::kSwRedirect:
      break;  // no Syrup policies: kernel-default distribution
    case MicaVariant::kSyrupSw:
      deployments.push_back(
          client.DeployPolicy(MicaHomePolicyAsm(n), Hook::kXdpSkb).value());
      break;
    case MicaVariant::kSyrupSwZc:
      // Zero-copy native mode (XDP_DRV): pre-SKB, no frame copy.
      deployments.push_back(
          client.DeployPolicy(MicaHomePolicyAsm(n), Hook::kXdpDrv).value());
      break;
    case MicaVariant::kSyrupHw:
      // The same matching function, offloaded: the NIC picks the home
      // queue; the queue's single AF_XDP socket receives locally.
      deployments.push_back(
          client.DeployPolicy(MicaHomePolicyAsm(n), Hook::kXdpOffload)
              .value());
      deployments.push_back(
          client.DeployPolicy(ConstIndexPolicyAsm(0), Hook::kXdpSkb).value());
      break;
  }

  LoadGenConfig gen_config;
  gen_config.rate_rps = config.load_rps;
  gen_config.dst_port = kMicaPort;
  gen_config.num_flows = 256;  // MICA clients are many; RSS spreads well
  gen_config.user_id = 1;
  gen_config.mix = {{ReqType::kGet, config.get_fraction},
                    {ReqType::kPut, 1.0 - config.get_fraction}};
  gen_config.seed = seed * 77 + 1;
  if (sink != nullptr) {
    host->gen = std::make_unique<LoadGenerator>(sim, std::move(sink),
                                                gen_config);
  } else {
    host->gen = std::make_unique<LoadGenerator>(sim, *host->stack, gen_config);
  }
  host->gen->Start(config.warmup + config.measure);
  return host;
}

void SnapshotMicaWindow(MicaHost& host) {
  host.completed_in_window = host.server->completed();
}

MicaResult AggregateMica(const MicaExperimentConfig& config,
                         const std::vector<std::unique_ptr<MicaHost>>& hosts) {
  uint64_t completed = 0;
  uint64_t sent = 0;
  uint64_t drops = 0;
  uint64_t redirected = 0;
  Histogram latency;
  for (const auto& host : hosts) {
    completed += host->completed_in_window;
    sent += host->gen->sent() - host->sent_before;
    drops += host->stack->stats().TotalDrops() - host->drops_before;
    redirected += host->server->redirected();
    latency.Merge(host->server->latency());
  }

  MicaResult result;
  result.load_rps = config.load_rps * static_cast<double>(hosts.size());
  result.throughput_rps =
      static_cast<double>(completed) / ToSeconds(config.measure);
  result.p999_us = ToUs(latency.Percentile(99.9));
  result.p50_us = ToUs(latency.Percentile(50));
  result.drop_fraction =
      sent == 0 ? 0.0
                : static_cast<double>(drops) / static_cast<double>(sent);
  result.redirected = redirected;
  result.stats_json = hosts.front()->syrupd->StatsSnapshot().ToJson();
  return result;
}

}  // namespace

MicaResult RunMicaExperiment(const MicaExperimentConfig& config) {
  return RunOnShards(config, BuildMicaHost, SnapshotMicaWindow, AggregateMica);
}

}  // namespace syrup
