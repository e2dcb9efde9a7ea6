#include "bench/e2e/hosts.h"

#include <optional>
#include <string>
#include <utility>

#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/core/syrup_api.h"
#include "src/policies/builtin.h"
#include "src/sched/pinned_scheduler.h"

namespace syrup::e2e {
namespace {

// The harness's constants (src/apps/experiments.cc).
constexpr uint16_t kRocksDbPort = 9000;
constexpr uint16_t kMicaPort = 9100;
constexpr Uid kAppUid = 1000;
constexpr Duration kDrain = 50 * kMillisecond;
constexpr char kThreadTypeMapPath[] = "/syrup/rocksdb/thread_type_map";
constexpr char kScanMapPath[] = "/syrup/rocksdb/scan_map";

double ToUs(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

// Installs `scheduler` on the host's machine, behind a traced forwarder
// when the host is traced.
void SetScheduler(CopyHost& host, Scheduler& scheduler) {
  Scheduler* installed = &scheduler;
  if (host.probe != nullptr) {
    host.traced_scheduler =
        std::make_unique<TracedScheduler>(scheduler, *host.probe);
    installed = host.traced_scheduler.get();
  }
  host.machine->SetScheduler(installed);
}

std::unique_ptr<LoadGenerator> MakeGenerator(Simulator& sim, CopyHost& host,
                                             LoadGenerator::SinkFn sink,
                                             const LoadGenConfig& config) {
  if (sink != nullptr) {
    return std::make_unique<LoadGenerator>(sim, std::move(sink), config);
  }
  return std::make_unique<LoadGenerator>(sim, *host.stack, config);
}

std::unique_ptr<CopyHost> BuildRocksDbHost(
    Simulator& sim, const RocksDbExperimentConfig& config, uint64_t seed,
    LoadGenerator::SinkFn sink, bool traced) {
  SYRUP_CHECK(config.use_bytecode && !config.late_binding &&
              !config.cpu_redirect_spray &&
              config.thread_sched != ThreadSchedKind::kCfs)
      << "config outside the benchmark's workloads";
  auto host = std::make_unique<CopyHost>();
  if (traced) {
    host->probe = std::make_unique<HostProbe>();
  }
  StackConfig stack_config;
  stack_config.num_nic_queues = config.num_cores;
  stack_config.protocol_cold_penalty = config.protocol_cold_penalty;
  host->stack = std::make_unique<HostStack>(sim, stack_config);
  host->syrupd = std::make_unique<Syrupd>(sim, host->stack.get(), seed);
  Syrupd& syrupd = *host->syrupd;
  syrupd.set_exec_mode(config.exec_mode);
  syrupd.set_flow_cache_config(config.flow_cache_config);
  const AppId app =
      syrupd.RegisterApp("rocksdb", kAppUid, kRocksDbPort).value();

  host->machine = std::make_unique<Machine>(sim, config.num_cores);
  Machine& machine = *host->machine;
  if (config.thread_sched == ThreadSchedKind::kPinned) {
    host->scheduler = std::make_unique<PinnedScheduler>(machine);
    SetScheduler(*host, *host->scheduler);
  } else {
    MapSpec spec;
    spec.type = MapType::kHash;
    spec.max_entries = 256;
    spec.name = "thread_type_map";
    host->thread_type_map = CreateMap(spec).value();
    SYRUP_CHECK_OK(syrupd.registry().Pin(kThreadTypeMapPath,
                                         host->thread_type_map, kAppUid));
    GhostConfig ghost_config;
    ghost_config.num_managed_cores = config.num_cores - 1;
    const uint64_t t0 = WallNs();
    host->thread_prog_id =
        syrupd
            .DeployThreadPolicyFile(
                app, GetPriorityThreadPolicyAsm(kThreadTypeMapPath), machine,
                ghost_config)
            .value();
    host->deploy_ns += WallNs() - t0;
    // syrupd exposes its agent read-only; the forwarder needs the mutable
    // Scheduler the deploy just installed on the machine.
    SetScheduler(*host,
                 *const_cast<GhostScheduler*>(syrupd.ghost_scheduler()));
  }

  const uint32_t n = static_cast<uint32_t>(config.num_threads);
  SyrupClient client(syrupd, app);
  const uint64_t t0 = WallNs();
  switch (config.socket_policy) {
    case SocketPolicyKind::kRoundRobin:
      host->deployments.push_back(
          client.DeployPolicy(RoundRobinPolicyAsm(n), Hook::kSocketSelect)
              .value());
      break;
    case SocketPolicyKind::kScanAvoid:
      host->deployments.push_back(
          client.DeployPolicy(ScanAvoidPolicyAsm(n), Hook::kSocketSelect)
              .value());
      host->scan_map = syrupd.registry().Open(kScanMapPath, kAppUid).value();
      break;
    default:
      SYRUP_CHECK(false) << "socket policy outside the benchmark's workloads";
  }
  host->deploy_ns += WallNs() - t0;
  if (traced) {
    TraceHooks(*host->stack, *host->probe);
  }

  RocksDbConfig server_config;
  server_config.num_threads = config.num_threads;
  server_config.port = kRocksDbPort;
  server_config.seed = seed * 31 + 5;
  server_config.scan_map = host->scan_map;
  server_config.thread_type_map = host->thread_type_map;
  host->rocksdb = std::make_unique<RocksDbServer>(sim, *host->stack, machine,
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
  host->gen = MakeGenerator(sim, *host, std::move(sink), gen_config);
  host->gen->Start(config.warmup + config.measure);
  return host;
}

std::unique_ptr<CopyHost> BuildMicaHost(Simulator& sim,
                                        const MicaExperimentConfig& config,
                                        uint64_t seed,
                                        LoadGenerator::SinkFn sink,
                                        bool traced) {
  SYRUP_CHECK(config.use_bytecode && config.variant == MicaVariant::kSyrupSw)
      << "config outside the benchmark's workloads";
  auto host = std::make_unique<CopyHost>();
  if (traced) {
    host->probe = std::make_unique<HostProbe>();
  }
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
  syrupd.set_flow_cache_config(config.flow_cache_config);
  const AppId app = syrupd.RegisterApp("mica", kAppUid, kMicaPort).value();

  host->machine = std::make_unique<Machine>(sim, config.num_threads);
  host->scheduler = std::make_unique<PinnedScheduler>(*host->machine);
  SetScheduler(*host, *host->scheduler);

  MicaConfig server_config;
  server_config.num_threads = config.num_threads;
  server_config.port = kMicaPort;
  server_config.seed = seed * 13 + 3;
  host->mica = std::make_unique<MicaServer>(
      sim, *host->stack, *host->machine, server_config, config.variant);

  const uint32_t n = static_cast<uint32_t>(config.num_threads);
  SyrupClient client(syrupd, app);
  const uint64_t t0 = WallNs();
  host->deployments.push_back(
      client.DeployPolicy(MicaHomePolicyAsm(n), Hook::kXdpSkb).value());
  host->deploy_ns += WallNs() - t0;
  if (traced) {
    TraceHooks(*host->stack, *host->probe);
  }

  LoadGenConfig gen_config;
  gen_config.rate_rps = config.load_rps;
  gen_config.dst_port = kMicaPort;
  gen_config.num_flows = 256;
  gen_config.user_id = 1;
  gen_config.mix = {{ReqType::kGet, config.get_fraction},
                    {ReqType::kPut, 1.0 - config.get_fraction}};
  gen_config.seed = seed * 77 + 1;
  host->gen = MakeGenerator(sim, *host, std::move(sink), gen_config);
  host->gen->Start(config.warmup + config.measure);
  return host;
}

void MarkWindowStart(CopyHost& host) {
  if (host.rocksdb != nullptr) {
    host.rocksdb->ResetStats();
  } else {
    host.mica->ResetStats();
  }
  host.sent_before = host.gen->sent();
  host.drops_before = host.stack->stats().TotalDrops();
}

void SnapshotWindow(CopyHost& host) {
  if (host.rocksdb != nullptr) {
    host.completed = host.rocksdb->completed();
    host.completed_get = host.rocksdb->completed(ReqType::kGet);
    host.completed_scan = host.rocksdb->completed(ReqType::kScan);
  } else {
    host.completed = host.mica->completed();
  }
}

}  // namespace

CopyExperiment::CopyExperiment(const Workload& workload, bool traced)
    : workload_(workload) {
  const bool rocksdb = workload.app == AppKind::kRocksDb;
  const ExperimentShardingConfig& sharding =
      rocksdb ? workload.rocksdb.sharding : workload.mica.sharding;
  const int num_hosts = workload.hosts();
  if (num_hosts > 1) {
    sharded_ = std::make_unique<ShardedSim>(sharding.sim);
    cross_ = sharding.cross_traffic > 0.0;
    if (cross_) {
      SYRUP_CHECK_GE(sharding.cross_link_latency, sharded_->lookahead());
    }
    cross_mille_ =
        static_cast<uint32_t>(sharding.cross_traffic * 1000.0 + 0.5);
    cross_link_latency_ = sharding.cross_link_latency;
  } else {
    sim_ = std::make_unique<Simulator>();
  }
  hosts_.resize(static_cast<size_t>(num_hosts));
  for (int s = 0; s < num_hosts; ++s) {
    // Host 0 keeps the unsharded seeds; replicas draw distinct streams.
    const uint64_t seed =
        workload.seed() + static_cast<uint64_t>(s) * uint64_t{1000003};
    Simulator& sim = sharded_ != nullptr ? sharded_->shard(s) : *sim_;
    engines_.push_back(&sim);
    LoadGenerator::SinkFn sink;
    if (cross_ || traced) {
      sink = [this, s](Packet pkt) { Deliver(s, std::move(pkt)); };
    }
    hosts_[static_cast<size_t>(s)] =
        rocksdb ? BuildRocksDbHost(sim, workload.rocksdb, seed,
                                   std::move(sink), traced)
                : BuildMicaHost(sim, workload.mica, seed, std::move(sink),
                                traced);
    if (cross_) {
      hosts_[static_cast<size_t>(s)]->stack->BindShard(sharded_.get(), s);
    }
  }
}

void CopyExperiment::Deliver(int shard, Packet pkt) {
  CopyHost& host = *hosts_[static_cast<size_t>(shard)];
  std::optional<Span> span;
  if (host.probe != nullptr) {
    span.emplace(host.probe->tracer, Layer::kNet);
  }
  if (cross_ && pkt.tuple.Hash() % 1000 < cross_mille_) {
    const int dst = (shard + 1) % engines();
    hosts_[static_cast<size_t>(dst)]->stack->PostRx(
        shard, sharded_->shard(shard).Now() + cross_link_latency_,
        std::move(pkt));
  } else {
    host.stack->Rx(std::move(pkt));
  }
}

uint64_t CopyExperiment::EngineAllocs() const {
  uint64_t allocs = 0;
  for (int s = 0; s < engines(); ++s) {
    allocs += engine(s).engine_stats().internal_allocs();
  }
  return allocs;
}

void CopyExperiment::RunUntil(Time horizon) {
  const uint64_t t0 = WallNs();
  if (sharded_ != nullptr) {
    sharded_->RunUntil(horizon);
  } else {
    sim_->RunUntil(horizon);
  }
  run_wall_ns_ += WallNs() - t0;
}

void CopyExperiment::Run() {
  const Time end = workload_.warmup() + workload_.measure();
  RunUntil(workload_.warmup());
  for (auto& host : hosts_) {
    MarkWindowStart(*host);
  }
  allocs_at_window_ = EngineAllocs();
  for (int s = 0; s < engines(); ++s) {
    CopyHost* host = hosts_[static_cast<size_t>(s)].get();
    engines_[static_cast<size_t>(s)]->ScheduleAt(
        end, [host]() { SnapshotWindow(*host); });
  }
  RunUntil(end + kDrain);
  allocs_at_end_ = EngineAllocs();
}

Digest CopyExperiment::Result() const {
  uint64_t completed = 0;
  uint64_t completed_get = 0;
  uint64_t completed_scan = 0;
  uint64_t sent = 0;
  uint64_t drops = 0;
  uint64_t redirected = 0;
  Histogram overall;
  Histogram get_latency;
  Histogram scan_latency;
  for (const auto& host : hosts_) {
    completed += host->completed;
    completed_get += host->completed_get;
    completed_scan += host->completed_scan;
    sent += host->gen->sent() - host->sent_before;
    drops += host->stack->stats().TotalDrops() - host->drops_before;
    if (host->rocksdb != nullptr) {
      overall.Merge(host->rocksdb->overall_latency());
      get_latency.Merge(host->rocksdb->latency(ReqType::kGet));
      scan_latency.Merge(host->rocksdb->latency(ReqType::kScan));
    } else {
      redirected += host->mica->redirected();
      overall.Merge(host->mica->latency());
    }
  }
  const double window_sec = ToSeconds(workload_.measure());
  const double drop_fraction =
      sent == 0 ? 0.0
                : static_cast<double>(drops) / static_cast<double>(sent);
  if (workload_.app == AppKind::kRocksDb) {
    RocksDbResult r;
    r.load_rps = workload_.rocksdb.load_rps * static_cast<double>(engines());
    r.throughput_rps = static_cast<double>(completed) / window_sec;
    r.get_throughput_rps = static_cast<double>(completed_get) / window_sec;
    r.scan_throughput_rps = static_cast<double>(completed_scan) / window_sec;
    r.p50_us = ToUs(overall.Percentile(50));
    r.p99_us = ToUs(overall.Percentile(99));
    r.p99_get_us = ToUs(get_latency.Percentile(99));
    r.p99_scan_us = ToUs(scan_latency.Percentile(99));
    r.drop_fraction = drop_fraction;
    return DigestOf(r);
  }
  MicaResult r;
  r.load_rps = workload_.mica.load_rps * static_cast<double>(engines());
  r.throughput_rps = static_cast<double>(completed) / window_sec;
  r.p999_us = ToUs(overall.Percentile(99.9));
  r.p50_us = ToUs(overall.Percentile(50));
  r.drop_fraction = drop_fraction;
  r.redirected = redirected;
  return DigestOf(r);
}

}  // namespace syrup::e2e
