#include "src/ghost/ghost.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace syrup {

GhostScheduler::GhostScheduler(Machine& machine, GhostPolicy& policy,
                               GhostConfig config)
    : machine_(machine),
      policy_(policy),
      config_(config),
      messages_processed_(std::make_shared<obs::Counter>()),
      preemptions_(std::make_shared<obs::Counter>()),
      commits_(std::make_shared<obs::Counter>()),
      runnable_depth_(std::make_shared<obs::Gauge>()) {
  SYRUP_CHECK_GE(machine.num_cores(), config_.num_managed_cores);
  committed_cores_.resize(static_cast<size_t>(config_.num_managed_cores));
}

void GhostScheduler::BindMetrics(obs::MetricsRegistry& registry,
                                 std::string_view app) {
  if (metrics_bound_) {
    return;
  }
  metrics_bound_ = true;
  auto rebind = [&](std::shared_ptr<obs::Counter>& cell, const char* name) {
    std::shared_ptr<obs::Counter> fresh =
        registry.GetCounter(app, "thread_scheduler", name);
    fresh->Inc(cell->value);
    cell = std::move(fresh);
  };
  rebind(messages_processed_, "messages_processed");
  rebind(preemptions_, "preemptions");
  rebind(commits_, "context_switches");
  std::shared_ptr<obs::Gauge> fresh =
      registry.GetGauge(app, "thread_scheduler", "runnable_depth");
  fresh->Set(runnable_depth_->value);
  runnable_depth_ = std::move(fresh);
}

void GhostScheduler::OnThreadRunnable(Thread* thread) {
  PostMessage(GhostMsg{GhostMsgType::kThreadWakeup, thread->tid(), -1,
                       machine_.sim().Now()});
}

void GhostScheduler::OnThreadBlocked(Thread* thread, int core, Duration) {
  PostMessage(GhostMsg{GhostMsgType::kThreadBlocked, thread->tid(), core,
                       machine_.sim().Now()});
}

void GhostScheduler::OnSliceExpired(Thread* thread, int core, Duration) {
  // ghOSt policies run threads with an infinite slice and preempt
  // explicitly, but a segment-done reschedule surfaces here: the thread is
  // runnable again and the core is free.
  PostMessage(GhostMsg{GhostMsgType::kThreadPreempted, thread->tid(), core,
                       machine_.sim().Now()});
}

void GhostScheduler::OnCoreIdle(int core) {
  if (core >= config_.num_managed_cores) {
    return;  // not a ghOSt-managed core
  }
  PostMessage(
      GhostMsg{GhostMsgType::kCpuAvailable, 0, core, machine_.sim().Now()});
}

void GhostScheduler::PostMessage(GhostMsg msg) {
  channel_.push_back(msg);
  ScheduleAgentRun();
}

void GhostScheduler::ScheduleAgentRun() {
  if (agent_run_pending_ || channel_.empty()) {
    return;
  }
  agent_run_pending_ = true;
  machine_.sim().ScheduleAfter(config_.message_delay,
                               [this]() { AgentRun(); });
}

void GhostScheduler::AgentRun() {
  agent_run_pending_ = false;

  // Drain the channel, updating the agent's runnable view. Nothing posts
  // while the agent drains, so the vector is read in place and cleared.
  Duration agent_work = 0;
  for (const GhostMsg& msg : channel_) {
    messages_processed_->value += 1;
    agent_work += config_.per_message_cost;
    switch (msg.type) {
      case GhostMsgType::kThreadWakeup:
      case GhostMsgType::kThreadPreempted:
        runnable_.push_back(GhostThreadInfo{msg.tid, msg.when});
        break;
      case GhostMsgType::kThreadBlocked:
        // Normally not in the runnable view (it was running); erase
        // defensively in case of stale entries.
        runnable_.erase(std::remove_if(runnable_.begin(), runnable_.end(),
                                       [&](const GhostThreadInfo& info) {
                                         return info.tid == msg.tid;
                                       }),
                        runnable_.end());
        break;
      case GhostMsgType::kCpuAvailable:
        break;  // core occupancy is read directly from the machine below
    }
  }
  channel_.clear();

  runnable_depth_->Set(static_cast<int64_t>(runnable_.size()));

  // Agent decision pass happens after it has paid for the message drain.
  if (agent_work == 0) {
    CommitPlacements();
  } else {
    machine_.sim().ScheduleAfter(agent_work, [this]() { CommitPlacements(); });
  }
}

void GhostScheduler::CommitPlacements() {
  policy_.BeginPass();
  // Place runnable threads on idle managed cores per the policy.
  for (int core = 0; core < config_.num_managed_cores; ++core) {
    if (runnable_.empty()) {
      break;
    }
    if (machine_.CurrentOn(core) != nullptr ||
        committed_cores_[static_cast<size_t>(core)] != 0) {
      continue;
    }
    const int tid = policy_.PickThread(core, runnable_);
    if (tid < 0) {
      continue;
    }
    auto it = std::find_if(
        runnable_.begin(), runnable_.end(),
        [&](const GhostThreadInfo& info) { return info.tid == tid; });
    if (it == runnable_.end() || TidCommitted(tid)) {
      continue;  // policy picked a stale tid; skip
    }
    runnable_.erase(it);
    committed_cores_[static_cast<size_t>(core)] = 1;
    if (static_cast<size_t>(tid) >= committed_tids_.size()) {
      committed_tids_.resize(static_cast<size_t>(tid) + 1);
    }
    committed_tids_[static_cast<size_t>(tid)] = 1;
    ++commits_->value;
    runnable_depth_->Set(static_cast<int64_t>(runnable_.size()));
    SYRUP_TRACE(machine_.sim().Now(), "ghost",
                "commit tid=" << tid << " core=" << core);
    machine_.sim().ScheduleAfter(config_.commit_delay, [this, core, tid]() {
      committed_cores_[static_cast<size_t>(core)] = 0;
      committed_tids_[static_cast<size_t>(tid)] = 0;
      Thread* thread = machine_.FindThread(tid);
      SYRUP_CHECK_NE(thread, nullptr);
      if (thread->state() != Thread::State::kRunnable ||
          machine_.CurrentOn(core) != nullptr) {
        // Transaction failed (state changed while in flight). Re-post a
        // wakeup so a fresh agent pass re-places the thread.
        if (thread->state() == Thread::State::kRunnable) {
          PostMessage(GhostMsg{GhostMsgType::kThreadWakeup, thread->tid(),
                               -1, machine_.sim().Now()});
        }
        return;
      }
      machine_.RunOn(thread, core, kInfiniteSlice);
    });
  }

  // No core free: consult the policy about preemption for waiting threads.
  for (const GhostThreadInfo& waiter : runnable_) {
    if (TidCommitted(waiter.tid)) {
      continue;
    }
    for (int core = 0; core < config_.num_managed_cores; ++core) {
      if (committed_cores_[static_cast<size_t>(core)] != 0) {
        continue;
      }
      Thread* current = machine_.CurrentOn(core);
      if (current == nullptr) {
        continue;
      }
      if (policy_.ShouldPreempt(waiter, current->tid())) {
        preemptions_->value += 1;
        SYRUP_TRACE(machine_.sim().Now(), "ghost",
                    "preempt core=" << core << " victim=" << current->tid()
                                    << " for=" << waiter.tid);
        // Preempt synchronously; the victim's wakeup + the idle core
        // messages drive a fresh agent pass that places the waiter. A
        // preemption on a segment boundary runs the application's
        // segment-done callback, which may reclassify threads: the rest of
        // this pass decides on a fresh view.
        machine_.Preempt(core);
        policy_.BeginPass();
        break;
      }
    }
  }
}

}  // namespace syrup
