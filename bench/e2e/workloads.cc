#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cstdlib>

namespace syrup::e2e {

Digest DigestOf(const RocksDbResult& r) {
  return {{"load_rps", r.load_rps},
          {"throughput_rps", r.throughput_rps},
          {"p50_us", r.p50_us},
          {"p99_us", r.p99_us},
          {"p99_get_us", r.p99_get_us},
          {"p99_scan_us", r.p99_scan_us},
          {"drop_fraction", r.drop_fraction},
          {"get_throughput_rps", r.get_throughput_rps},
          {"scan_throughput_rps", r.scan_throughput_rps}};
}

Digest DigestOf(const MicaResult& r) {
  return {{"load_rps", r.load_rps},
          {"throughput_rps", r.throughput_rps},
          {"p999_us", r.p999_us},
          {"p50_us", r.p50_us},
          {"drop_fraction", r.drop_fraction},
          {"redirected", static_cast<double>(r.redirected)}};
}

Duration Workload::warmup() const {
  return app == AppKind::kRocksDb ? rocksdb.warmup : mica.warmup;
}

Duration Workload::measure() const {
  return app == AppKind::kRocksDb ? rocksdb.measure : mica.measure;
}

uint64_t Workload::seed() const {
  return app == AppKind::kRocksDb ? rocksdb.seed : mica.seed;
}

int Workload::hosts() const {
  const int shards = app == AppKind::kRocksDb ? rocksdb.sharding.sim.shards
                                              : mica.sharding.sim.shards;
  return std::max(1, shards);
}

double Workload::OfferedRequests() const {
  const double load = app == AppKind::kRocksDb ? rocksdb.load_rps
                                               : mica.load_rps;
  return load * ToSeconds(warmup() + measure()) * hosts();
}

Workload Workload::With(uint64_t seed, Duration warmup,
                        Duration measure) const {
  Workload w = *this;
  w.rocksdb.seed = w.mica.seed = seed;
  w.rocksdb.warmup = w.mica.warmup = warmup;
  w.rocksdb.measure = w.mica.measure = measure;
  return w;
}

namespace {

// Rep durations are sized so one rep takes ~1 s of wall time on a 4-thread
// x86-64 box at the time the benchmark was defined: long enough that
// per-rep fixed costs vanish, short enough that a 20 s run holds ~20 reps.
std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  // Fig. 2: bytecode Round Robin at Socket Select, GET-only.
  Workload fig2;
  fig2.name = "fig2_rr";
  fig2.default_seed = 1;
  fig2.rocksdb.socket_policy = SocketPolicyKind::kRoundRobin;
  fig2.rocksdb.use_bytecode = true;
  fig2.rocksdb.load_rps = 300'000;
  fig2.rocksdb.measure = 8 * kSecond;
  all.push_back(fig2);

  // Fig. 8 "both": SCAN Avoid at Socket Select + GET-priority via ghOSt.
  Workload fig8;
  fig8.name = "fig8_ghost";
  fig8.default_seed = 4;
  fig8.rocksdb.socket_policy = SocketPolicyKind::kScanAvoid;
  fig8.rocksdb.thread_sched = ThreadSchedKind::kGhostGetPriority;
  fig8.rocksdb.use_bytecode = true;
  fig8.rocksdb.get_fraction = 0.5;
  fig8.rocksdb.num_threads = 36;
  fig8.rocksdb.num_cores = 6;
  fig8.rocksdb.load_rps = 10'000;
  fig8.rocksdb.measure = 40 * kSecond;
  all.push_back(fig8);

  // Fig. 9(b) Syrup SW: MicaHome at XDP_SKB on the native tier.
  Workload fig9;
  fig9.name = "fig9_mica_sw";
  fig9.default_seed = 2;
  fig9.app = AppKind::kMica;
  fig9.mica.variant = MicaVariant::kSyrupSw;
  fig9.mica.use_bytecode = true;
  fig9.mica.exec_mode = bpf::ExecMode::kNative;
  fig9.mica.load_rps = 2'000'000;
  fig9.mica.measure = 700 * kMillisecond;
  all.push_back(fig9);

  // fig2_rr on the parallel engine: 2 shards, default east-west traffic.
  Workload sharded = fig2;
  sharded.name = "fig2_rr_sharded2";
  sharded.rocksdb.sharding.sim.shards = 2;
  sharded.rocksdb.measure = 2 * kSecond;
  all.push_back(sharded);

  for (Workload& w : all) {
    w.rocksdb.seed = w.mica.seed = w.default_seed;
  }
  return all;
}

uint64_t SumRuntimeFaults(const std::string& stats_json) {
  // Counter rendering per docs/OBSERVABILITY.md.
  static constexpr std::string_view kKey =
      "\"policy.runtime_faults\":{\"type\":\"counter\",\"value\":";
  uint64_t total = 0;
  for (size_t at = stats_json.find(kKey); at != std::string::npos;
       at = stats_json.find(kKey, at + kKey.size())) {
    total += std::strtoull(stats_json.c_str() + at + kKey.size(), nullptr, 10);
  }
  return total;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

PublicRun RunPublic(const Workload& workload) {
  PublicRun run;
  if (workload.app == AppKind::kRocksDb) {
    const RocksDbResult result = RunRocksDbExperiment(workload.rocksdb);
    run.digest = DigestOf(result);
    run.runtime_faults = SumRuntimeFaults(result.stats_json);
  } else {
    const MicaResult result = RunMicaExperiment(workload.mica);
    run.digest = DigestOf(result);
    run.runtime_faults = SumRuntimeFaults(result.stats_json);
  }
  return run;
}

}  // namespace syrup::e2e
