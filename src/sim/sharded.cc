#include "src/sim/sharded.h"

#include <algorithm>
#include <bit>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace syrup {

ShardChannel::ShardChannel(size_t capacity)
    : capacity_(std::bit_ceil(std::max<size_t>(capacity, 2))),
      mask_(capacity_ - 1) {}

bool ShardChannel::TryPush(ShardMessage&& msg) {
  const uint64_t tail = tail_.load(std::memory_order_relaxed);
  const uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head >= capacity_) {
    return false;  // full — msg is left intact for the caller to retry
  }
  if (ring_.empty()) {
    // The consumer touches ring_ only after acquiring a tail this push
    // releases, so the allocation is ordered before any read of it.
    ring_.resize(capacity_);
  }
  ring_[tail & mask_] = std::move(msg);
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

bool ShardChannel::TryPop(ShardMessage& out, uint64_t limit) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head == tail || ring_[head & mask_].epoch >= limit) {
    return false;
  }
  out = std::move(ring_[head & mask_]);
  ring_[head & mask_].fn = nullptr;  // release the closure's captures now
  head_.store(head + 1, std::memory_order_release);
  return true;
}

ShardedSim::ShardedSim(ShardedSimConfig config) : config_(config) {
  SYRUP_CHECK_GE(config_.shards, 1);
  SYRUP_CHECK_GE(config_.lookahead, 1u) << "lookahead must be positive";
  shards_.reserve(static_cast<size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<ShardState>());
  }
  channels_.resize(static_cast<size_t>(config_.shards) *
                   static_cast<size_t>(config_.shards));
  for (int src = 0; src < config_.shards; ++src) {
    for (int dst = 0; dst < config_.shards; ++dst) {
      if (src != dst) {
        channels_[static_cast<size_t>(src) *
                      static_cast<size_t>(config_.shards) +
                  static_cast<size_t>(dst)] =
            std::make_unique<ShardChannel>(config_.channel_capacity);
      }
    }
  }
}

ShardedSim::~ShardedSim() = default;

void ShardedSim::DrainInbound(int i, uint64_t limit) {
  ShardState& st = *shards_[static_cast<size_t>(i)];
  ShardMessage msg;
  for (int src = 0; src < config_.shards; ++src) {
    if (src == i) {
      continue;
    }
    ShardChannel& ch = channel(src, i);
    while (ch.TryPop(msg, limit)) {
      st.staging.push_back(std::move(msg));
    }
  }
}

void ShardedSim::ScheduleStaged(int i) {
  ShardState& st = *shards_[static_cast<size_t>(i)];
  if (st.staging.empty()) {
    return;
  }
  // The physical drain order depends on thread timing; the sort erases it.
  std::sort(st.staging.begin(), st.staging.end(),
            [](const ShardMessage& a, const ShardMessage& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (ShardMessage& msg : st.staging) {
    st.sim.ScheduleAt(msg.when, std::move(msg.fn));
  }
  st.staging.clear();
}

void ShardedSim::SetOutputBound(int shard, std::function<Time()> bound) {
  SYRUP_CHECK_GE(shard, 0);
  SYRUP_CHECK_LT(shard, config_.shards);
  ShardState& st = *shards_[static_cast<size_t>(shard)];
  st.bounded = bound != nullptr;
  st.output_bound = std::move(bound);
}

void ShardedSim::WorkerLoop(int i, Time horizon, bool advance_clock_on_idle) {
  ShardState& st = *shards_[static_cast<size_t>(i)];
  for (;;) {
    // Announce the earliest time this shard can affect (its next local
    // event or the earliest arrival it sent during the last window) and
    // the earliest send it promises for the coming window.
    const uint64_t k = st.epoch.load(std::memory_order_relaxed) + 1;
    st.announced[k & 1] = std::min(st.sim.NextEventTime(), st.outbound_min);
    st.outbound_min = Simulator::kNoEventTime;
    if (st.bounded) {
      st.post_floor = st.output_bound();
      st.announced_bound[k & 1] = *st.post_floor;
    }
    st.epoch.store(k, std::memory_order_release);
    // Wait for every peer's announcement k; drain while waiting so senders
    // blocked on a full channel always find their consumer making progress.
    for (const auto& peer : shards_) {
      uint32_t spins = 0;
      while (peer->epoch.load(std::memory_order_acquire) < k) {
        DrainInbound(i, k);
        CpuRelax();
        if ((++spins & 0xfffu) == 0) {
          std::this_thread::yield();
        }
      }
    }
    // Every send from the last window happened before its sender's epoch-k
    // release, which the acquire above saw: this drain is authoritative.
    // The fence leaves posts from peers already running window k queued.
    DrainInbound(i, k);
    // Every thread computes the same T and window end from the same
    // announcements, so all shards take the same decisions each round.
    Time t = Simulator::kNoEventTime;
    for (const auto& peer : shards_) {
      t = std::min(t, peer->announced[k & 1]);
    }
    if (t == Simulator::kNoEventTime || t > horizon) {
      break;
    }
    // A shard without a bound may post at its clock + lookahead, and an
    // arrival at T can reach it this window.
    const Time lookahead_bound =
        Simulator::kNoEventTime - t > config_.lookahead
            ? t + config_.lookahead
            : Simulator::kNoEventTime;
    Time eot = Simulator::kNoEventTime;
    for (const auto& peer : shards_) {
      eot = std::min(eot, peer->bounded ? peer->announced_bound[k & 1]
                                        : lookahead_bound);
    }
    SYRUP_CHECK_GT(eot, t) << "an announced output bound does not exceed "
                              "the window start";
    // Window [t, w]: every cross-shard arrival sent in it is >= eot > w.
    // With no send ever again (eot == kNoEventTime) it reaches the horizon.
    const Time w =
        eot == Simulator::kNoEventTime || eot > horizon ? horizon : eot - 1;
    ScheduleStaged(i);
    // An unbounded RunToCompletion window must not advance an idle clock.
    st.dispatched += w == Simulator::kNoEventTime ? st.sim.RunToCompletion()
                                                  : st.sim.RunUntil(w);
    st.rounds += 1;
  }
  st.post_floor.reset();
  // Staged arrivals past the horizon belong to a later Run* call: file them
  // into the engine now (they are all > horizon, so nothing runs).
  ScheduleStaged(i);
  if (advance_clock_on_idle) {
    st.sim.RunUntil(horizon);  // advance an idle shard's clock to the horizon
  }
}

uint64_t ShardedSim::Run(Time horizon, bool advance_clock_on_idle) {
  uint64_t before = 0;
  for (const auto& st : shards_) {
    before += st->dispatched;
  }
  if (config_.shards == 1) {
    // Inline single-engine execution on the calling thread: bit-identical
    // to driving the wrapped Simulator directly, and usable from contexts
    // that must not spawn threads.
    ShardState& st = *shards_[0];
    st.dispatched += advance_clock_on_idle ? st.sim.RunUntil(horizon)
                                           : st.sim.RunToCompletion();
    st.rounds += 1;
  } else {
    // Shard 0 runs on the calling thread; only the others get a worker.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(config_.shards - 1));
    for (int i = 1; i < config_.shards; ++i) {
      workers.emplace_back(
          [this, i, horizon, advance_clock_on_idle] {
#if defined(__linux__)
            if (config_.pinning) {
              const unsigned ncpu =
                  std::max(1u, std::thread::hardware_concurrency());
              cpu_set_t set;
              CPU_ZERO(&set);
              CPU_SET(static_cast<unsigned>(i) % ncpu, &set);
              pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
            }
#endif
            WorkerLoop(i, horizon, advance_clock_on_idle);
          });
    }
    WorkerLoop(0, horizon, advance_clock_on_idle);
    for (std::thread& th : workers) {
      th.join();  // join orders all shard writes before our reads below
    }
  }
  rounds_ = shards_[0]->rounds;
  uint64_t after = 0;
  for (const auto& st : shards_) {
    after += st->dispatched;
  }
  return after - before;
}

uint64_t ShardedSim::RunUntil(Time horizon) {
  return Run(horizon, /*advance_clock_on_idle=*/true);
}

uint64_t ShardedSim::RunToCompletion() {
  return Run(Simulator::kNoEventTime, /*advance_clock_on_idle=*/false);
}

ShardedSim::Stats ShardedSim::stats() const {
  Stats s;
  s.rounds = rounds_;
  for (const auto& st : shards_) {
    s.messages += st->messages_posted;
    s.dispatched += st->dispatched;
    s.channel_full_waits += st->channel_full_waits;
  }
  return s;
}

}  // namespace syrup
