// Sharded parallel simulation: N independent timing-wheel engines, one per
// thread, synchronized with conservative time windows.
//
// Ownership model: every simulated component (stack, syrupd, machine, app)
// belongs to exactly one shard and only ever touches that shard's Simulator.
// Cross-shard interactions — packet handoff through the ToR switch or a
// remote host stack, map traffic, ghOSt messages — flow through timestamped
// bounded SPSC channels (one per ordered shard pair) via Post(), which
// requires the delivery time to be at least the sender's announced output
// bound, or `lookahead` past the sender's clock for a sender without one.
// The lookahead models the link/PCIe latency that any cross-shard
// interaction already pays, so the constraint costs no fidelity.
//
// Synchronization protocol (conservative / YAWNS-style windows). Each shard
// counts its announcements in `epoch`; round k of shard i is:
//
//   1. Announce. Publish ne_i = min(next local event, outbound_min) and,
//      for a shard with an output bound (below), eot_i = bound() into slot
//      [k & 1] of its own cache line, then release-store epoch = k.
//      outbound_min is the earliest `when` shard i Post()ed since its
//      previous announcement, i.e. during window k-1.
//   2. Wait until every peer's epoch >= k (acquire). While waiting, drain
//      inbound channels into a staging buffer so a neighbor blocked on a
//      full channel always makes progress (no deadlock).
//   3. Epoch fence: drain every inbound message stamped with a sender epoch
//      < k. Each message carries its sender's epoch at post time, and a
//      sender's window-(k-1) posts happen before its epoch-k release, so
//      the staging buffer now holds exactly the messages sent last window.
//      A peer already past its own wait may be posting into window k
//      (stamp k); those stay queued until round k+1.
//   4. Compute T = min_j(ne_j) and E = min_j(eot_j), where a shard without
//      an output bound counts as eot_j = T + lookahead. Every thread gets
//      the same values (the slots are double-buffered by epoch parity, so a
//      peer announcing k+1 never overwrites a value still being read). Run
//      the window [T, min(horizon, E-1)]. Staged messages are first sorted
//      by (when, src_shard, seq) and scheduled, so the dispatch order is
//      independent of thread timing.
//
// Output bounds (SetOutputBound) are Chandy–Misra–Bryant earliest-output
// times: a shard that knows when its next cross-shard send can leave (the
// experiments know it from the load generator's pre-drawn arrivals)
// promises it, and the window stretches to just before the earliest
// promise instead of stopping at T + lookahead. Without bounds the window
// is exactly [T, min(horizon, T+lookahead-1)]. All shards run one common
// window, never one window each bounded by its peers' promises: under the
// per-round wait the shard that ran furthest would stop at its peer's
// pending send, so the shards would leapfrog with one of them idle every
// round. (A prototype with per-shard windows cut rounds 34x on fig2 at 2
// shards but left wall time unchanged.)
//
// T is min(every local next event, every arrival sent last window), and
// every round stages exactly last window's messages at the same point, so
// window boundaries and insertion order depend only on the simulation,
// never on which thread got where first. Every arrival sent in a window is
// >= its sender's announced bound (or >= send_time + lookahead without
// one), and both exceed the window end, so no message can target the
// window currently executing: shards never see a message "from the past".
// Every bound exceeds T (checked), so within a round at least one shard
// dispatches (or pops a cancelled) event at T: the protocol always makes
// progress.
//
// Threads: shard 0 runs on the calling thread; each Run* call spawns and
// joins the other N-1 workers.
//
// Determinism: for a fixed shard count and seed, runs are bit-identical
// across repeats regardless of thread scheduling — channel drain order is
// erased by the (when, src_shard, seq) sort, and per-channel seqs are
// assigned in each sender's (deterministic) program order. Where a window
// ends is part of the run: a message enters its destination's engine when
// the window it was sent in closes, so moving a window's end (a different
// lookahead or output bound) can reorder events that tie on the same
// nanosecond, though every event still runs at its own time. At shards=1 the
// engine degenerates to the wrapped Simulator run inline on the calling
// thread, with no announcement, channel or extra thread: the one-host
// experiments (src/apps/experiments.h) run that way by default.
#ifndef SYRUP_SRC_SIM_SHARDED_H_
#define SYRUP_SRC_SIM_SHARDED_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace syrup {

struct ShardedSimConfig {
  // Number of shards (engines/threads). 1 = inline single-engine execution.
  int shards = 1;
  // Minimum sender-clock-to-delivery latency for Post() from a shard without
  // an output bound (SetOutputBound), and the window width such a shard
  // allows. Model it on the smallest cross-shard link/PCIe latency.
  Duration lookahead = 2 * kMicrosecond;
  // Pin worker thread i to CPU (i mod hardware_concurrency). Shard 0 runs
  // on the calling thread, whose affinity is left alone.
  bool pinning = false;
  // Per-channel message capacity (rounded up to a power of two).
  size_t channel_capacity = 4096;
};

// Pause-instruction hint for spin loops.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// A timestamped cross-shard message: run `fn` on the destination shard at
// simulated time `when`. `seq` is the per-channel sequence number assigned
// by the producer; (when, src, seq) totally orders any staging buffer.
// `epoch` is the sender's announcement count at post time.
struct ShardMessage {
  Time when = 0;
  uint32_t src = 0;
  uint64_t seq = 0;
  uint64_t epoch = 0;
  std::function<void()> fn;
};

// Drain limit that admits every message.
inline constexpr uint64_t kNoEpochLimit = std::numeric_limits<uint64_t>::max();

// Bounded single-producer single-consumer ring. The producer is the source
// shard's thread, the consumer the destination shard's thread; head_/tail_
// are the only shared state and are touched with acquire/release pairs. The
// first push allocates the ring, so a channel nobody posts on costs neither
// set-up time nor memory.
class ShardChannel {
 public:
  explicit ShardChannel(size_t capacity);

  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  // Producer side. False when the ring is full (caller must drain its own
  // inbound channels and retry, never just spin — see ShardedSim::Post).
  bool TryPush(ShardMessage&& msg);

  // Consumer side. False when the ring is empty or its oldest message has
  // epoch >= `limit` (producer epochs never decrease, so it stops there).
  bool TryPop(ShardMessage& out, uint64_t limit = kNoEpochLimit);

  uint64_t next_seq() { return seq_++; }

 private:
  std::vector<ShardMessage> ring_;  // producer-allocated on first push
  size_t capacity_;
  size_t mask_;
  uint64_t seq_ = 0;  // producer-side per-channel sequence
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer position
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer position
};

class ShardedSim {
 public:
  explicit ShardedSim(ShardedSimConfig config);
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  int shards() const { return config_.shards; }
  Duration lookahead() const { return config_.lookahead; }
  Simulator& shard(int i) { return shards_[static_cast<size_t>(i)]->sim; }

  // Registers shard `shard`'s output bound. `bound()` returns the earliest
  // `when` that any later Post from that shard can carry, whatever arrives
  // at the shard; Simulator::kNoEventTime means it never posts again. It is
  // called on the shard's own thread once per round, just before the shard
  // announces, and must exceed the window start T (checked). Register
  // before or between Run* calls; an empty function removes the bound.
  void SetOutputBound(int shard, std::function<Time()> bound);

  // Schedules `fn` on shard `dst` at absolute time `when`, from shard `src`.
  // Must be called on src's worker thread (i.e. from inside an event running
  // on shard src) or before/between Run* calls from the driving thread.
  // Inside a window, `when` must be >= the output bound src announced for
  // it; otherwise (no bound, or between Run* calls) >= shard(src).Now() +
  // lookahead. Deliveries to the owning shard (src == dst) are exempt and
  // schedule directly.
  template <typename F>
  void Post(int src, int dst, Time when, F&& fn) {
    SYRUP_CHECK_GE(src, 0);
    SYRUP_CHECK_LT(src, config_.shards);
    SYRUP_CHECK_GE(dst, 0);
    SYRUP_CHECK_LT(dst, config_.shards);
    if (src == dst) {
      shard(src).ScheduleAt(when, std::forward<F>(fn));
      return;
    }
    ShardState& st = *shards_[static_cast<size_t>(src)];
    if (st.post_floor.has_value()) {
      SYRUP_CHECK_GE(when, *st.post_floor)
          << "cross-shard delivery before the sender's announced output bound";
    } else {
      SYRUP_CHECK_GE(when, shard(src).Now() + config_.lookahead)
          << "cross-shard delivery inside the lookahead window";
    }
    ShardChannel& ch = channel(src, dst);
    ShardMessage msg{when, static_cast<uint32_t>(src), ch.next_seq(),
                     st.epoch.load(std::memory_order_relaxed),
                     std::function<void()>(std::forward<F>(fn))};
    st.outbound_min = std::min(st.outbound_min, when);
    // A full channel means dst is behind on draining; keep our own inbound
    // channels moving while we wait so two mutually-posting shards can
    // never deadlock on a pair of full rings. No inbound message can belong
    // to a window past the next one, so this drain needs no epoch limit.
    uint64_t spins = 0;
    while (!ch.TryPush(std::move(msg))) {
      if (spins == 0) {
        st.channel_full_waits += 1;
      }
      DrainInbound(src, kNoEpochLimit);
      CpuRelax();
      if ((++spins & 0xfffu) == 0) {
        std::this_thread::yield();
      }
    }
    st.messages_posted += 1;
  }

  // Runs all shards (in parallel for shards > 1) until each has no event at
  // or before `horizon`; idle shards' clocks advance to `horizon` exactly
  // like Simulator::RunUntil. Returns total events dispatched this call.
  uint64_t RunUntil(Time horizon);

  // Runs until every shard's queue and every channel is empty. Clocks are
  // not advanced past the last dispatched event, like
  // Simulator::RunToCompletion.
  uint64_t RunToCompletion();

  struct Stats {
    uint64_t rounds = 0;            // synchronization windows executed
    uint64_t messages = 0;          // cross-shard messages posted
    uint64_t dispatched = 0;        // events dispatched across all shards
    // Post() calls that found their channel full and had to drain-and-retry
    // (back-pressure; no message is ever dropped).
    uint64_t channel_full_waits = 0;
  };
  Stats stats() const;

 private:
  struct ShardState {
    Simulator sim;
    std::vector<ShardMessage> staging;  // drained, not yet scheduled
    Time outbound_min = Simulator::kNoEventTime;  // since last announcement
    std::function<Time()> output_bound;  // SetOutputBound; empty = none
    // The bound announced for the window this shard is running; Post checks
    // sends against it. Empty between Run* calls and without a bound.
    std::optional<Time> post_floor;
    uint64_t messages_posted = 0;
    uint64_t rounds = 0;
    uint64_t dispatched = 0;
    uint64_t channel_full_waits = 0;
    // The only state peers read, alone on its cache line: announcement k
    // goes to announced[k & 1] and announced_bound[k & 1] before epoch is
    // release-stored to k. `bounded` is fixed for the length of a Run* call.
    alignas(64) std::atomic<uint64_t> epoch{0};
    Time announced[2] = {0, 0};
    Time announced_bound[2] = {0, 0};
    bool bounded = false;
  };

  ShardChannel& channel(int src, int dst) {
    return *channels_[static_cast<size_t>(src) *
                          static_cast<size_t>(config_.shards) +
                      static_cast<size_t>(dst)];
  }

  // Moves every currently-visible inbound message of shard i stamped with
  // a sender epoch < `limit` into its staging buffer. Only ever called from
  // shard i's thread.
  void DrainInbound(int i, uint64_t limit);

  // Sorts shard i's staging buffer by (when, src, seq) and schedules it.
  void ScheduleStaged(int i);

  // One shard's worker loop for a single Run* call.
  void WorkerLoop(int i, Time horizon, bool advance_clock_on_idle);

  uint64_t Run(Time horizon, bool advance_clock_on_idle);

  ShardedSimConfig config_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;  // [src * N + dst]
  uint64_t rounds_ = 0;
};

}  // namespace syrup

#endif  // SYRUP_SRC_SIM_SHARDED_H_
