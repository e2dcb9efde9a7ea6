// Deterministic discrete-event simulation engine.
//
// All host-stack models (NIC, cores, sockets, schedulers) run on top of this
// engine: components schedule callbacks at absolute simulated times and the
// engine dispatches them in (time, insertion-sequence) order, so identical
// seeds replay identical executions.
//
// Zero-allocation steady state: events live in a slab-allocated pool with
// intrusive freelist/bucket links, callbacks are stored inline (up to
// kInlineCallbackBytes of captures; larger closures fall back to the heap
// and are counted), and pending events sit in a 4-level x 64-slot
// hierarchical timing wheel (256 ns level-0 ticks; the wheel addresses the
// aligned ~4.3 s window containing the current tick, with a min-heap
// overflow beyond it). Events at or before the current wheel position sit
// in a tiny (time, seq) binary heap, so the dispatch order is bit-identical
// to a single global heap while schedule/dispatch cost stays O(1) amortized.
//
// Determinism is contractual. The original heap engine survives as a
// test-only oracle (tests/oracles/reference_simulator.h); tests/sim_test
// asserts that both engines dispatch the same events in the same order for
// randomized schedule/cancel/run programs, and
// tests/engine_differential_test pins the fig2/fig9 experiment results the
// heap engine produced.
#ifndef SYRUP_SRC_SIM_SIMULATOR_H_
#define SYRUP_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/time.h"

namespace syrup {

class Simulator;

// Handle used to cancel a pending event: a (slot, generation) pair into the
// engine's event pool, trivially copyable and destructible. Cancellation is
// O(1): the event is marked dead and skipped at dispatch time. Once the
// event fires (or its pool slot is recycled) the slot generation moves on
// and stale handles become inert — Cancel() on them is a no-op and valid()
// returns false. Handles must not outlive their Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  inline bool valid() const;
  inline void Cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, uint32_t slot, uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

class Simulator {
 public:
  // Counters for the engine's own behaviour. `internal_allocs()` is the
  // allocation-freedom hook the tests assert on: its delta over a
  // steady-state schedule/dispatch window must be zero.
  struct EngineStats {
    uint64_t scheduled = 0;
    uint64_t dispatched = 0;
    uint64_t cancelled = 0;         // Cancel() calls that killed a live event
    uint64_t slab_allocs = 0;       // event-pool slab refills
    uint64_t large_callbacks = 0;   // closures too big for inline storage
    uint64_t container_growths = 0; // ready/overflow vector regrowth
    uint64_t overflow_inserts = 0;  // events beyond the wheel span
    uint64_t cascades = 0;          // non-empty higher-level bucket refills

    uint64_t internal_allocs() const {
      return slab_allocs + large_callbacks + container_growths;
    }
  };

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  const EngineStats& engine_stats() const { return stats_; }

  Time Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (>= Now()).
  template <typename F>
  EventHandle ScheduleAt(Time when, F&& fn) {
    SYRUP_CHECK_GE(when, now_) << "event scheduled in the past";
    const uint32_t idx = AllocSlot();
    EventSlot& slot = SlotAt(idx);
    slot.when = when;
    slot.seq = next_seq_++;
    slot.cancelled = false;
    slot.engaged = true;
    EmplaceCallback(slot, std::forward<F>(fn));
    InsertPending(idx);
    ++pending_;
    ++stats_.scheduled;
    return EventHandle(this, idx, slot.gen);
  }

  // Schedules `fn` to run `delay` from now.
  template <typename F>
  EventHandle ScheduleAfter(Duration delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Timestamp returned by NextEventTime() when no event is pending.
  static constexpr Time kNoEventTime = ~Time{0};

  // Exact timestamp of the next pending event (live or cancelled — a
  // cancelled event is still a valid conservative lower bound, and popping
  // it makes progress), or kNoEventTime when the queue is empty. It may
  // advance the wheel position to find it; that performs the same cascades
  // a Run* call would and so never perturbs dispatch order.
  // Used by the sharded engine to announce per-shard horizons.
  Time NextEventTime();

  // Runs events until the queue empties or simulated time would pass
  // `horizon`. Returns the number of events dispatched.
  uint64_t RunUntil(Time horizon);

  // Runs until the queue is empty.
  uint64_t RunToCompletion();

  // Stops the current Run* call after the in-flight event returns.
  void Stop() { stopped_ = true; }

  // Includes cancelled-but-not-yet-popped events.
  size_t pending_events() const { return pending_; }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr uint32_t kSlabSize = 256;  // slots per pool slab
  static constexpr size_t kInlineCallbackBytes = 48;
  static constexpr int kTickShift = 8;   // 256 ns per level-0 tick
  static constexpr int kLevelBits = 6;   // 64 slots per level
  static constexpr int kLevels = 4;      // span: 2^(8+6*4) ns ~= 4.3 s
  static constexpr uint32_t kSlotsPerLevel = 1u << kLevelBits;

  // One pooled event. `next` threads the slot through the freelist or a
  // wheel bucket; `gen` increments on every recycle so stale EventHandles
  // can never touch the slot's next tenant.
  struct EventSlot {
    Time when = 0;
    uint64_t seq = 0;
    uint32_t next = kNil;
    uint32_t gen = 0;
    bool engaged = false;    // callback constructed in `storage`
    bool cancelled = false;
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;  // null for trivially-destructible
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  };

  struct HeapEntry {
    Time when;
    uint64_t seq;
    uint32_t slot;
  };
  // std::push_heap builds a max-heap w.r.t. the comparator; "greater by
  // (when, seq)" therefore yields a min-heap with the next event at front().
  struct HeapAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  EventSlot& SlotAt(uint32_t idx) {
    return slabs_[idx / kSlabSize][idx % kSlabSize];
  }
  const EventSlot& SlotAt(uint32_t idx) const {
    return slabs_[idx / kSlabSize][idx % kSlabSize];
  }

  template <typename F>
  void EmplaceCallback(EventSlot& slot, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(fn));
      slot.invoke = [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); };
      if constexpr (std::is_trivially_destructible_v<Fn>) {
        slot.destroy = nullptr;
      } else {
        slot.destroy = [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); };
      }
    } else {
      // Oversized capture: pay one heap allocation and count it, so hot
      // paths that regress past the inline budget show up in stats/benches.
      Fn* heap = new Fn(std::forward<F>(fn));
      ++stats_.large_callbacks;
      std::memcpy(slot.storage, &heap, sizeof(heap));
      slot.invoke = [](void* p) {
        Fn* f;
        std::memcpy(&f, p, sizeof(f));
        (*f)();
      };
      slot.destroy = [](void* p) {
        Fn* f;
        std::memcpy(&f, p, sizeof(f));
        delete f;
      };
    }
  }

  uint32_t AllocSlot();
  void ReleaseSlot(uint32_t idx);
  void DestroyCallback(EventSlot& slot);

  // True when `tick` lies in the aligned span window the wheel currently
  // addresses; events outside it wait in the overflow heap.
  bool FitsWheel(uint64_t tick) const;
  // Files a live slot into the ready heap (tick <= cur_tick_), the wheel, or
  // the overflow heap.
  void InsertPending(uint32_t idx);
  void PushReady(HeapEntry entry);
  void PushOverflow(HeapEntry entry);

  // Smallest tick >= cur_tick_ that may hold the next event (exact for
  // level 0, bucket window start for higher levels and overflow), or
  // kNoTick when the engine is empty apart from the ready heap.
  uint64_t NextOccupiedTick() const;
  // Moves the wheel position to `tick`: drains newly-in-span overflow
  // events, cascades the higher-level buckets covering `tick`, and splices
  // the level-0 bucket into the ready heap.
  void AdvanceTo(uint64_t tick);
  // Ensures ready_ holds the globally-next event; false when nothing is
  // pending at or before `horizon`.
  bool RefillReady(Time horizon);

  bool PooledValid(uint32_t idx, uint32_t gen) const;
  void CancelPooled(uint32_t idx, uint32_t gen);

  uint64_t RunImpl(Time horizon, bool advance_clock_on_idle);

  // --- state ---------------------------------------------------------------

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  EngineStats stats_;

  std::vector<std::unique_ptr<EventSlot[]>> slabs_;
  uint32_t free_head_ = kNil;
  size_t pending_ = 0;
  uint64_t cur_tick_ = 0;  // wheel position: the tick the ready heap covers
  bool splicing_ready_ = false;  // AdvanceTo defers heapification to its end
  std::vector<HeapEntry> ready_;     // events with tick <= cur_tick_
  std::vector<HeapEntry> overflow_;  // min-heap of events beyond the window
  uint64_t occupied_[kLevels] = {};  // per-level bucket occupancy bitmap
  uint32_t buckets_[kLevels][kSlotsPerLevel];  // slot-index list heads
};

inline bool EventHandle::valid() const {
  return sim_ != nullptr && sim_->PooledValid(slot_, gen_);
}

inline void EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelPooled(slot_, gen_);
    sim_ = nullptr;
  }
}

}  // namespace syrup

#endif  // SYRUP_SRC_SIM_SIMULATOR_H_
