// Reference event engine: the original std::function + shared_ptr<bool> +
// std::priority_queue implementation of the Simulator contract
// (src/sim/simulator.h), with the same schedule/run/cancel/stop API. It is
// the timing wheel's differential oracle in tests/sim_test.cc and the
// "reference" column of bench/sim_events and bench/microbench_core.
#ifndef SYRUP_TESTS_ORACLES_REFERENCE_SIMULATOR_H_
#define SYRUP_TESTS_ORACLES_REFERENCE_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "src/common/logging.h"
#include "src/common/time.h"

namespace syrup {

class ReferenceSimulator {
 public:
  // Cancels a pending event through a shared cancellation cell. Dispatch
  // sets the cell, so a fired event's handle reads as invalid and Cancel()
  // on it is a no-op, exactly like the pooled engine's stale handles.
  class Handle {
   public:
    Handle() = default;

    bool valid() const { return cancelled_ != nullptr && !*cancelled_; }
    void Cancel() {
      if (cancelled_ != nullptr) {
        *cancelled_ = true;
        cancelled_ = nullptr;
      }
    }

   private:
    friend class ReferenceSimulator;
    explicit Handle(std::shared_ptr<bool> cancelled)
        : cancelled_(std::move(cancelled)) {}

    std::shared_ptr<bool> cancelled_;
  };

  struct EngineStats {
    uint64_t scheduled = 0;
    uint64_t dispatched = 0;
  };

  static constexpr Time kNoEventTime = ~Time{0};

  ReferenceSimulator() = default;
  ReferenceSimulator(const ReferenceSimulator&) = delete;
  ReferenceSimulator& operator=(const ReferenceSimulator&) = delete;

  const EngineStats& engine_stats() const { return stats_; }
  Time Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (>= Now()).
  template <typename F>
  Handle ScheduleAt(Time when, F&& fn) {
    SYRUP_CHECK_GE(when, now_) << "event scheduled in the past";
    auto cancelled = std::make_shared<bool>(false);
    queue_.push(Event{when, next_seq_++,
                      std::function<void()>(std::forward<F>(fn)), cancelled});
    ++stats_.scheduled;
    return Handle(std::move(cancelled));
  }

  template <typename F>
  Handle ScheduleAfter(Duration delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Timestamp of the next pending event (live or cancelled), or
  // kNoEventTime when the queue is empty.
  Time NextEventTime() const {
    return queue_.empty() ? kNoEventTime : queue_.top().when;
  }

  uint64_t RunUntil(Time horizon) {
    return Run(horizon, /*advance_clock_on_idle=*/true);
  }

  uint64_t RunToCompletion() {
    return Run(std::numeric_limits<Time>::max(),
               /*advance_clock_on_idle=*/false);
  }

  // Stops the current Run* call after the in-flight event returns.
  void Stop() { stopped_ = true; }

  // Includes cancelled-but-not-yet-popped events.
  size_t pending_events() const { return queue_.size(); }

 private:
  struct Event {
    Time when;
    uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;

    // Min-heap by (when, seq): std::priority_queue is a max-heap, so invert.
    bool operator<(const Event& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  uint64_t Run(Time horizon, bool advance_clock_on_idle) {
    stopped_ = false;
    uint64_t dispatched = 0;
    while (!queue_.empty() && !stopped_) {
      const Event& top = queue_.top();
      if (top.when > horizon) {
        break;
      }
      // Moving out of the priority queue requires a const_cast because
      // std::priority_queue only exposes a const top(); the element is
      // popped immediately after so the heap invariant is never observed
      // broken.
      Event event = std::move(const_cast<Event&>(top));
      queue_.pop();
      if (*event.cancelled) {
        continue;
      }
      now_ = event.when;
      // Dispatch invalidates handles, matching the pooled engine's
      // generation bump before the callback runs (valid() -> false,
      // Cancel() -> no-op, including from inside the callback itself).
      *event.cancelled = true;
      event.fn();
      ++dispatched;
    }
    stats_.dispatched += dispatched;
    if (advance_clock_on_idle && queue_.empty() && now_ < horizon) {
      now_ = horizon;
    }
    return dispatched;
  }

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  EngineStats stats_;
  std::priority_queue<Event> queue_;
};

}  // namespace syrup

#endif  // SYRUP_TESTS_ORACLES_REFERENCE_SIMULATOR_H_
