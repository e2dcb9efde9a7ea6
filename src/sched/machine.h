// CPU & thread model for the thread-scheduling hook.
//
// A Machine owns N logical cores and a set of simulated threads. Threads
// execute *work segments* (one per application request): while a thread is
// running, its remaining segment work drains in real (simulated) time; when
// the segment completes, an application callback either queues more work or
// blocks the thread. A pluggable Scheduler decides thread→core placement
// and timeslices, and may preempt at will — the mechanism ghOSt-style
// userspace agents drive (paper §4.1).
#ifndef SYRUP_SRC_SCHED_MACHINE_H_
#define SYRUP_SRC_SCHED_MACHINE_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace syrup {

class Machine;
class Scheduler;

inline constexpr Duration kInfiniteSlice =
    std::numeric_limits<Duration>::max();

class Thread {
 public:
  enum class State { kBlocked, kRunnable, kRunning };

  int tid() const { return tid_; }
  const std::string& name() const { return name_; }
  State state() const { return state_; }
  Duration remaining_work() const { return remaining_work_; }
  Duration total_cpu() const { return total_cpu_; }
  // Core currently running this thread, or -1.
  int core() const { return core_; }

  // Invoked (by the Machine) when the current work segment finishes. The
  // callback must either add more work (Machine::AddWork) or block the
  // thread (Machine::Block); doing neither blocks it implicitly.
  void SetSegmentDoneCallback(std::function<void()> cb) {
    on_segment_done_ = std::move(cb);
  }

 private:
  friend class Machine;
  Thread(int tid, std::string name) : tid_(tid), name_(std::move(name)) {}

  int tid_;
  std::string name_;
  State state_ = State::kBlocked;
  Duration remaining_work_ = 0;
  Duration total_cpu_ = 0;
  int core_ = -1;
  Time run_start_ = 0;        // when the current on-CPU stint began
  Duration planned_chunk_ = 0;  // work scheduled for the current stint
  EventHandle chunk_event_;
  std::function<void()> on_segment_done_;
};

// Scheduler callback interface. Implementations call back into the Machine
// (RunOn / Preempt) to effect decisions; the Machine never places threads
// on its own.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // A blocked thread became runnable (wakeup), or a preempted thread was
  // put back. The scheduler may dispatch it immediately.
  virtual void OnThreadRunnable(Thread* thread) = 0;

  // The thread running on `core` blocked after consuming `ran` ns.
  // The Machine will call OnCoreIdle right after.
  virtual void OnThreadBlocked(Thread* thread, int core, Duration ran) = 0;

  // The timeslice of `thread` on `core` expired after `ran` ns; the thread
  // is Runnable again. The Machine will call OnCoreIdle right after.
  virtual void OnSliceExpired(Thread* thread, int core, Duration ran) = 0;

  // `core` had no thread when the notification was generated; the scheduler
  // should pick one (or leave it idle). NOTE: a reentrant callback (e.g. a
  // wakeup triggered from OnThreadRunnable during a preemption) may already
  // have filled the core — implementations must re-check CurrentOn(core).
  virtual void OnCoreIdle(int core) = 0;
};

class Machine {
 public:
  Machine(Simulator& sim, int num_cores);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // The scheduler must outlive the machine's last event.
  void SetScheduler(Scheduler* scheduler) { scheduler_ = scheduler; }

  Simulator& sim() { return sim_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }

  Thread* CreateThread(std::string name);
  // The thread with `tid`, or nullptr. Tids are dense from 1 in creation
  // order, so this is an index.
  Thread* FindThread(int tid) const {
    const auto index = static_cast<size_t>(tid) - 1;
    return tid > 0 && index < threads_.size() ? threads_[index].get()
                                               : nullptr;
  }

  // --- Application-side API ----------------------------------------------

  // Appends `work` to the thread's current segment. Legal on any state;
  // does not by itself make a blocked thread runnable.
  void AddWork(Thread* thread, Duration work);

  // Blocked -> Runnable transition; notifies the scheduler.
  void Wake(Thread* thread);

  // Marks the (currently running) thread blocked; frees its core. Called
  // from the segment-done callback when no further work is available.
  void Block(Thread* thread);

  // --- Scheduler-side API -------------------------------------------------

  // Places a runnable thread on an idle core for at most `slice` ns.
  void RunOn(Thread* thread, int core, Duration slice);

  // Forcibly removes the current thread from `core` (ghOSt-style
  // preemption). The thread becomes Runnable with its residual work and
  // OnThreadRunnable is invoked; then OnCoreIdle fires for the core.
  // No-op if the core is idle.
  void Preempt(int core);

  Thread* CurrentOn(int core) const {
    return cores_[static_cast<size_t>(core)].current;
  }

  // Busy fraction of `core` since simulation start.
  double CoreUtilization(int core) const;

 private:
  struct Core {
    Thread* current = nullptr;
    Duration busy_time = 0;
  };

  // Charges CPU consumed by the in-flight stint up to now and clears the
  // thread's chunk event. Returns consumed duration.
  Duration AccountStint(Thread* thread);
  void OnChunkEvent(Thread* thread, int core);

  Simulator& sim_;
  Scheduler* scheduler_ = nullptr;
  std::vector<Core> cores_;
  std::vector<std::unique_ptr<Thread>> threads_;
  bool in_block_ = false;  // reentrancy guard for Block-from-callback
};

}  // namespace syrup

#endif  // SYRUP_SRC_SCHED_MACHINE_H_
