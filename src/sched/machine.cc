#include "src/sched/machine.h"

#include <algorithm>

namespace syrup {

Machine::Machine(Simulator& sim, int num_cores) : sim_(sim) {
  SYRUP_CHECK_GT(num_cores, 0);
  cores_.resize(static_cast<size_t>(num_cores));
}

Thread* Machine::CreateThread(std::string name) {
  const int tid = static_cast<int>(threads_.size()) + 1;
  threads_.push_back(
      std::unique_ptr<Thread>(new Thread(tid, std::move(name))));
  return threads_.back().get();
}

void Machine::AddWork(Thread* thread, Duration work) {
  thread->remaining_work_ += work;
}

void Machine::Wake(Thread* thread) {
  if (thread->state_ != Thread::State::kBlocked) {
    return;  // already runnable/running; new work just extends its queue
  }
  SYRUP_CHECK_GT(thread->remaining_work_, 0u)
      << "waking thread " << thread->name() << " with no work";
  if (thread->core_ != -1) {
    // Block() was called inside the segment-done callback and new work
    // arrived before the epilogue released the core (e.g. late binding
    // hands a buffered packet to a just-idled worker). Revert the block;
    // the epilogue reschedules the thread through the normal slice path.
    thread->state_ = Thread::State::kRunning;
    return;
  }
  thread->state_ = Thread::State::kRunnable;
  SYRUP_CHECK_NE(scheduler_, nullptr);
  scheduler_->OnThreadRunnable(thread);
}

void Machine::Block(Thread* thread) {
  SYRUP_CHECK(thread->state_ == Thread::State::kRunning)
      << "Block() on non-running thread " << thread->name();
  // State flips immediately; core release and scheduler notification happen
  // in the segment-done epilogue (OnChunkEvent) that invoked the callback.
  thread->state_ = Thread::State::kBlocked;
}

void Machine::RunOn(Thread* thread, int core_id, Duration slice) {
  SYRUP_CHECK_NE(scheduler_, nullptr);
  SYRUP_CHECK(thread->state_ == Thread::State::kRunnable)
      << thread->name() << " not runnable";
  Core& core = cores_[static_cast<size_t>(core_id)];
  SYRUP_CHECK(core.current == nullptr)
      << "core " << core_id << " busy with " << core.current->name();
  SYRUP_CHECK_GT(thread->remaining_work_, 0u);
  SYRUP_CHECK_GT(slice, 0u);

  thread->state_ = Thread::State::kRunning;
  thread->core_ = core_id;
  core.current = thread;
  thread->run_start_ = sim_.Now();
  thread->planned_chunk_ = std::min(slice, thread->remaining_work_);
  thread->chunk_event_ = sim_.ScheduleAfter(
      thread->planned_chunk_, [this, thread, core_id]() {
        OnChunkEvent(thread, core_id);
      });
}

Duration Machine::AccountStint(Thread* thread) {
  const Duration consumed =
      std::min<Duration>(sim_.Now() - thread->run_start_,
                         thread->planned_chunk_);
  thread->chunk_event_.Cancel();
  thread->remaining_work_ -= std::min(consumed, thread->remaining_work_);
  thread->total_cpu_ += consumed;
  cores_[static_cast<size_t>(thread->core_)].busy_time += consumed;
  return consumed;
}

void Machine::OnChunkEvent(Thread* thread, int core_id) {
  Core& core = cores_[static_cast<size_t>(core_id)];
  SYRUP_CHECK_EQ(core.current, thread);

  const Duration consumed = thread->planned_chunk_;
  thread->remaining_work_ -= std::min(consumed, thread->remaining_work_);
  thread->total_cpu_ += consumed;
  core.busy_time += consumed;

  if (thread->remaining_work_ == 0) {
    // Segment finished: the application decides what happens next.
    if (thread->on_segment_done_) {
      thread->on_segment_done_();
    }
    if (thread->remaining_work_ == 0 &&
        thread->state_ == Thread::State::kRunning) {
      // Callback neither added work nor blocked: implicit block.
      thread->state_ = Thread::State::kBlocked;
    }
  }

  if (thread->state_ == Thread::State::kBlocked) {
    core.current = nullptr;
    thread->core_ = -1;
    scheduler_->OnThreadBlocked(thread, core_id, consumed);
    scheduler_->OnCoreIdle(core_id);
    return;
  }

  if (thread->remaining_work_ > 0) {
    // Slice expired with work left (or the callback queued more work).
    // Either way the scheduler re-decides; run-to-completion schedulers
    // simply put the same thread back with a fresh slice.
    thread->state_ = Thread::State::kRunnable;
    core.current = nullptr;
    thread->core_ = -1;
    scheduler_->OnSliceExpired(thread, core_id, consumed);
    scheduler_->OnCoreIdle(core_id);
    return;
  }

  SYRUP_CHECK(false) << "unreachable thread state in OnChunkEvent";
}

void Machine::Preempt(int core_id) {
  Core& core = cores_[static_cast<size_t>(core_id)];
  Thread* thread = core.current;
  if (thread == nullptr) {
    return;
  }
  AccountStint(thread);
  if (thread->remaining_work_ == 0) {
    // Preempted exactly on a segment boundary: treat as completion.
    if (thread->on_segment_done_) {
      thread->on_segment_done_();
    }
    if (thread->remaining_work_ == 0 &&
        thread->state_ == Thread::State::kRunning) {
      thread->state_ = Thread::State::kBlocked;
    }
    if (thread->state_ == Thread::State::kBlocked) {
      core.current = nullptr;
      thread->core_ = -1;
      scheduler_->OnThreadBlocked(thread, core_id, 0);
      scheduler_->OnCoreIdle(core_id);
      return;
    }
  }
  thread->state_ = Thread::State::kRunnable;
  core.current = nullptr;
  thread->core_ = -1;
  scheduler_->OnThreadRunnable(thread);
  scheduler_->OnCoreIdle(core_id);
}

double Machine::CoreUtilization(int core_id) const {
  const Time now = sim_.Now();
  if (now == 0) {
    return 0.0;
  }
  const Core& core = cores_[static_cast<size_t>(core_id)];
  Duration busy = core.busy_time;
  if (core.current != nullptr) {
    busy += sim_.Now() - core.current->run_start_;
  }
  return static_cast<double>(busy) / static_cast<double>(now);
}

}  // namespace syrup
