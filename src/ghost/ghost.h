// ghOSt-like userspace thread-scheduling substrate (paper §4.1).
//
// The kernel side (GhostScheduler, a src/sched Scheduler) detects thread
// state changes and posts messages (THREAD_WAKEUP, THREAD_BLOCKED,
// THREAD_PREEMPTED, CPU_AVAILABLE) to a channel. A spinning userspace-style
// agent drains the channel after a delivery delay, runs the user-defined
// matching policy (threads -> cores), and commits placements via
// transactions that take effect after an IPI/context-switch delay. One
// logical core is dedicated to the agent, so a machine with 6 cores offers
// 5 to application threads — the capacity cost visible in Fig. 8b.
#ifndef SYRUP_SRC_GHOST_GHOST_H_
#define SYRUP_SRC_GHOST_GHOST_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/obs/metrics.h"
#include "src/sched/machine.h"

namespace syrup {

enum class GhostMsgType {
  kThreadWakeup,
  kThreadBlocked,
  kThreadPreempted,
  kCpuAvailable,
};

struct GhostMsg {
  GhostMsgType type;
  int tid = 0;
  int core = -1;
  Time when = 0;
};

// Snapshot of a runnable thread handed to the policy.
struct GhostThreadInfo {
  int tid = 0;
  Time runnable_since = 0;
};

// User-defined thread scheduling policy (the paper's `schedule` matching
// function for the Thread Scheduler hook). Policies typically read Syrup
// Maps populated by the application to make request-aware decisions.
class GhostPolicy {
 public:
  virtual ~GhostPolicy() = default;

  // Matches a thread to the available `core`. `runnable` is ordered by
  // wake time (FCFS). Returns the chosen tid, or -1 to leave the core idle.
  virtual int PickThread(int core,
                         const std::vector<GhostThreadInfo>& runnable) = 0;

  // Whether `candidate` (runnable) should preempt `running_tid` now. The
  // agent consults this when no core is free. Default: never preempt.
  virtual bool ShouldPreempt(const GhostThreadInfo& candidate,
                             int running_tid) {
    (void)candidate;
    (void)running_tid;
    return false;
  }

  // The agent opens a decision pass: at the start of every placement pass,
  // and again right after each synchronous preemption, whose segment-done
  // callback may rewrite the maps a policy reads. Until the next call no
  // other code runs, so a policy may reuse what it derived from those maps
  // (DESIGN.md "ghOSt agent"). Default: nothing to reuse.
  virtual void BeginPass() {}
};

struct GhostConfig {
  // Cores managed for application threads; the agent spins on one more.
  int num_managed_cores = 5;
  Duration message_delay = 1 * kMicrosecond;  // kernel -> channel -> agent
  Duration per_message_cost = 300;            // agent work per message
  Duration commit_delay = 2 * kMicrosecond;   // txn commit + IPI + switch
};

class GhostScheduler : public Scheduler {
 public:
  // `machine` must have at least num_managed_cores cores; cores beyond
  // that are never scheduled by ghOSt (the last one hosts the agent).
  GhostScheduler(Machine& machine, GhostPolicy& policy, GhostConfig config);

  // --- Scheduler interface (the "kernel scheduling class") ---------------
  void OnThreadRunnable(Thread* thread) override;
  void OnThreadBlocked(Thread* thread, int core, Duration ran) override;
  void OnSliceExpired(Thread* thread, int core, Duration ran) override;
  void OnCoreIdle(int core) override;

  uint64_t messages_processed() const { return messages_processed_->value; }
  uint64_t preemptions() const { return preemptions_->value; }
  uint64_t commits() const { return commits_->value; }

  // Re-homes the agent's accounting into `registry` under
  // {app, "thread_scheduler", ...}. Syrupd calls this when it deploys a
  // thread policy, with the owning app's name; counts so far carry over. A
  // commit is a context switch (the transaction's IPI + switch on the
  // target core).
  void BindMetrics(obs::MetricsRegistry& registry, std::string_view app);

 private:
  void PostMessage(GhostMsg msg);
  void ScheduleAgentRun();
  void AgentRun();
  void CommitPlacements();
  bool TidCommitted(int tid) const {
    return static_cast<size_t>(tid) < committed_tids_.size() &&
           committed_tids_[static_cast<size_t>(tid)] != 0;
  }

  Machine& machine_;
  GhostPolicy& policy_;
  GhostConfig config_;

  std::vector<GhostMsg> channel_;  // drained whole by each agent run
  bool agent_run_pending_ = false;

  // Agent-local view. A placement is in flight from its commit until the
  // transaction lands; the flags are indexed by core and by tid.
  std::vector<GhostThreadInfo> runnable_;  // wake order
  std::vector<uint8_t> committed_cores_;
  std::vector<uint8_t> committed_tids_;

  std::shared_ptr<obs::Counter> messages_processed_;
  std::shared_ptr<obs::Counter> preemptions_;
  std::shared_ptr<obs::Counter> commits_;
  std::shared_ptr<obs::Gauge> runnable_depth_;
  bool metrics_bound_ = false;
};

}  // namespace syrup

#endif  // SYRUP_SRC_GHOST_GHOST_H_
