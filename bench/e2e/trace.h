// Span tracing for the bench-local host copy (hosts.h). Spans are recorded
// from outside the library, around calls into each layer's public surface:
//
//   net    the load generator's sink into HostStack::Rx (or PostRx)
//   core   every installed StackHooks / StackBatchHooks entry, i.e. the
//          syrupd dispatcher, including policy execution and map helpers
//   sched  a forwarding Scheduler around the machine's scheduler
//
// Each span's self time is its duration minus the time its child spans
// cover, so nested layers (a hook fired from inside Rx, a wakeup scheduled
// from inside a hook) are charged once. Time inside the engine's Run* calls
// that no span claims is the `sim` layer's self time.
#ifndef SYRUP_BENCH_E2E_TRACE_H_
#define SYRUP_BENCH_E2E_TRACE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/hook.h"
#include "src/net/packet.h"
#include "src/net/stack.h"
#include "src/sched/machine.h"

namespace syrup::e2e {

enum class Layer : uint8_t { kNet, kCore, kSched };
inline constexpr size_t kNumLayers = 3;

uint64_t WallNs();  // steady_clock, ns

// A span stack for one simulation thread. Not thread-safe: each shard's
// host gets its own.
class Tracer {
 public:
  void Enter(Layer layer) { stack_.push_back({layer, WallNs(), 0}); }
  void Exit();

  uint64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<size_t>(layer)];
  }
  uint64_t spans(Layer layer) const {
    return spans_[static_cast<size_t>(layer)];
  }

 private:
  struct Frame {
    Layer layer;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<uint64_t, kNumLayers> self_ns_{};
  std::array<uint64_t, kNumLayers> spans_{};
};

class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer_.Enter(layer); }
  ~Span() { tracer_.Exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

// Everything one traced host records: spans, plus the first inputs each
// hook and the scheduler saw, kept for the post-run replays.
struct HostProbe {
  static constexpr size_t kMaxCaptured = 64 * 1024;
  using WireBytes = std::array<uint8_t, kWireSize>;

  Tracer tracer;
  uint64_t hook_inputs = 0;  // packets through wrapped hooks
  std::array<std::vector<WireBytes>, kNumHooks> packets;
  std::vector<int> runnable_tids;  // OnThreadRunnable arguments

  void CapturePacket(Hook hook, const PacketView& pkt);
  void CaptureTid(int tid) {
    if (runnable_tids.size() < kMaxCaptured) {
      runnable_tids.push_back(tid);
    }
  }
};

// Wraps every installed single-packet and burst hook of `stack` in a core
// span that also captures the inputs. Call after the last deployment.
void TraceHooks(HostStack& stack, HostProbe& probe);

// Forwards every scheduler callback to `inner` inside a sched span.
class TracedScheduler final : public Scheduler {
 public:
  TracedScheduler(Scheduler& inner, HostProbe& probe)
      : inner_(inner), probe_(probe) {}
  TracedScheduler(const TracedScheduler&) = delete;
  TracedScheduler& operator=(const TracedScheduler&) = delete;

  void OnThreadRunnable(Thread* thread) override;
  void OnThreadBlocked(Thread* thread, int core, Duration ran) override;
  void OnSliceExpired(Thread* thread, int core, Duration ran) override;
  void OnCoreIdle(int core) override;

 private:
  Scheduler& inner_;
  HostProbe& probe_;
};

}  // namespace syrup::e2e

#endif  // SYRUP_BENCH_E2E_TRACE_H_
