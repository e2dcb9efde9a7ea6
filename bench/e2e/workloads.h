// The end-to-end benchmark's workloads: four of the paper's evaluation
// configurations, each run through the public experiment entry points
// (RunRocksDbExperiment / RunMicaExperiment) with the stock config plus the
// fields below. README.md gives the reason for each choice.
#ifndef SYRUP_BENCH_E2E_WORKLOADS_H_
#define SYRUP_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/experiments.h"
#include "src/common/time.h"

namespace syrup::e2e {

// Every RocksDbResult / MicaResult field except the stats JSON (which holds
// wall-clock gauges and cache counters a correct optimisation may change),
// as the exact doubles the run produced.
using Digest = std::vector<std::pair<std::string, double>>;

Digest DigestOf(const RocksDbResult& result);
Digest DigestOf(const MicaResult& result);

enum class AppKind { kRocksDb, kMica };

struct Workload {
  std::string_view name;
  uint64_t default_seed = 1;
  AppKind app = AppKind::kRocksDb;
  RocksDbExperimentConfig rocksdb;  // used when app == kRocksDb
  MicaExperimentConfig mica;        // used when app == kMica

  Duration warmup() const;
  Duration measure() const;
  uint64_t seed() const;
  int hosts() const;  // one per simulation shard, each on its own thread

  // Simulated requests the load generators offer over warmup + measure on
  // every host: the denominator of every per-request metric.
  double OfferedRequests() const;

  // This workload with another seed and other durations.
  Workload With(uint64_t seed, Duration warmup, Duration measure) const;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

// One call of the public entry point.
struct PublicRun {
  Digest digest;
  uint64_t runtime_faults = 0;  // summed over the stats JSON
};

PublicRun RunPublic(const Workload& workload);

}  // namespace syrup::e2e

#endif  // SYRUP_BENCH_E2E_WORKLOADS_H_
