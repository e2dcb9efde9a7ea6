// A bench-local copy of the experiment harness's host builders and run
// loops (BuildRocksDbHost / BuildMicaHost and the single-engine and sharded
// runs in src/apps/experiments.cc), written against public APIs only and
// covering exactly the benchmark's workloads.
//
// The copy must reproduce the public entry point's result digest bit for
// bit; the benchmark fails otherwise. That is what shows the traced copy is
// the same program: tracing only wraps public call boundaries (trace.h) and
// schedules no simulated event.
#ifndef SYRUP_BENCH_E2E_HOSTS_H_
#define SYRUP_BENCH_E2E_HOSTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bench/e2e/trace.h"
#include "bench/e2e/workloads.h"
#include "src/apps/loadgen.h"
#include "src/apps/mica_server.h"
#include "src/apps/rocksdb_server.h"
#include "src/core/handles.h"
#include "src/core/syrupd.h"
#include "src/sched/machine.h"
#include "src/sim/sharded.h"
#include "src/sim/simulator.h"

namespace syrup::e2e {

// One host. Members are declared in construction order and destroyed in
// reverse, so deployments unwind before syrupd, and the probe, which hooks
// and the traced scheduler point into, outlives them all.
struct CopyHost {
  std::unique_ptr<HostProbe> probe;  // null when untraced
  std::unique_ptr<HostStack> stack;
  std::unique_ptr<Syrupd> syrupd;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Scheduler> scheduler;  // null under ghOSt (syrupd owns it)
  std::unique_ptr<TracedScheduler> traced_scheduler;
  std::shared_ptr<Map> thread_type_map;
  std::shared_ptr<Map> scan_map;
  std::vector<PolicyHandle> deployments;
  int thread_prog_id = -1;
  std::unique_ptr<RocksDbServer> rocksdb;
  std::unique_ptr<MicaServer> mica;
  std::unique_ptr<LoadGenerator> gen;

  uint64_t deploy_ns = 0;  // wall time inside the policy deploy calls

  // Measurement-window bookkeeping.
  uint64_t sent_before = 0;
  uint64_t drops_before = 0;
  uint64_t completed = 0;
  uint64_t completed_get = 0;
  uint64_t completed_scan = 0;
};

class CopyExperiment {
 public:
  // Builds every host of `workload`; nothing runs yet.
  CopyExperiment(const Workload& workload, bool traced);
  CopyExperiment(const CopyExperiment&) = delete;
  CopyExperiment& operator=(const CopyExperiment&) = delete;

  // Warmup, measurement window and drain: the public entry point's
  // schedule.
  void Run();

  // The aggregated result, computed like the public entry point's.
  Digest Result() const;

  const Workload& workload() const { return workload_; }
  const std::vector<std::unique_ptr<CopyHost>>& hosts() const {
    return hosts_;
  }
  int engines() const { return static_cast<int>(hosts_.size()); }
  const Simulator& engine(int shard) const {
    return *engines_[static_cast<size_t>(shard)];
  }
  const ShardedSim* sharded() const { return sharded_.get(); }

  uint64_t run_wall_ns() const { return run_wall_ns_; }
  // Engine allocations between the start of the window and the end of the
  // drain (zero when the event engine is allocation-free in steady state).
  uint64_t steady_allocs() const { return allocs_at_end_ - allocs_at_window_; }

 private:
  void RunUntil(Time horizon);
  uint64_t EngineAllocs() const;
  // The load generator's sink for host `shard`: east-west routing and, when
  // traced, the net span.
  void Deliver(int shard, Packet pkt);

  Workload workload_;
  std::unique_ptr<Simulator> sim_;       // single-engine workloads
  std::unique_ptr<ShardedSim> sharded_;  // multi-shard workloads
  std::vector<Simulator*> engines_;      // one per host
  bool cross_ = false;
  uint32_t cross_mille_ = 0;
  Duration cross_link_latency_ = 0;
  std::vector<std::unique_ptr<CopyHost>> hosts_;
  uint64_t run_wall_ns_ = 0;
  uint64_t allocs_at_window_ = 0;
  uint64_t allocs_at_end_ = 0;
};

}  // namespace syrup::e2e

#endif  // SYRUP_BENCH_E2E_HOSTS_H_
