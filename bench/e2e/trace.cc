#include "bench/e2e/trace.h"

#include <chrono>
#include <cstring>
#include <span>
#include <utility>

#include "src/common/logging.h"

namespace syrup::e2e {

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::Exit() {
  SYRUP_CHECK(!stack_.empty()) << "span exit without enter";
  const Frame frame = stack_.back();
  stack_.pop_back();
  const uint64_t duration = WallNs() - frame.start_ns;
  const size_t layer = static_cast<size_t>(frame.layer);
  self_ns_[layer] += duration - frame.child_ns;
  spans_[layer] += 1;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
}

void HostProbe::CapturePacket(Hook hook, const PacketView& pkt) {
  hook_inputs += 1;
  auto& store = packets[HookIndex(hook)];
  if (store.size() < kMaxCaptured && pkt.size() == kWireSize) {
    WireBytes bytes;
    std::memcpy(bytes.data(), pkt.start, kWireSize);
    store.push_back(bytes);
  }
}

namespace {

void Wrap(Hook hook, SteerHook& single, BatchSteerHook& batch,
          HostProbe& probe) {
  if (single != nullptr) {
    single = [inner = std::move(single), hook,
              &probe](const PacketView& pkt) {
      probe.CapturePacket(hook, pkt);
      Span span(probe.tracer, Layer::kCore);
      return inner(pkt);
    };
  }
  if (batch != nullptr) {
    batch = [inner = std::move(batch), hook, &probe](
                std::span<const PacketView> pkts, std::span<Decision> out) {
      for (const PacketView& pkt : pkts) {
        probe.CapturePacket(hook, pkt);
      }
      Span span(probe.tracer, Layer::kCore);
      inner(pkts, out);
    };
  }
}

}  // namespace

void TraceHooks(HostStack& stack, HostProbe& probe) {
  StackHooks& single = stack.hooks();
  StackBatchHooks& batch = stack.batch_hooks();
  Wrap(Hook::kXdpOffload, single.xdp_offload, batch.xdp_offload, probe);
  Wrap(Hook::kXdpDrv, single.xdp_drv, batch.xdp_drv, probe);
  Wrap(Hook::kXdpSkb, single.xdp_skb, batch.xdp_skb, probe);
  Wrap(Hook::kCpuRedirect, single.cpu_redirect, batch.cpu_redirect, probe);
  Wrap(Hook::kSocketSelect, single.socket_select, batch.socket_select, probe);
}

void TracedScheduler::OnThreadRunnable(Thread* thread) {
  probe_.CaptureTid(thread->tid());
  Span span(probe_.tracer, Layer::kSched);
  inner_.OnThreadRunnable(thread);
}

void TracedScheduler::OnThreadBlocked(Thread* thread, int core,
                                      Duration ran) {
  Span span(probe_.tracer, Layer::kSched);
  inner_.OnThreadBlocked(thread, core, ran);
}

void TracedScheduler::OnSliceExpired(Thread* thread, int core, Duration ran) {
  Span span(probe_.tracer, Layer::kSched);
  inner_.OnSliceExpired(thread, core, ran);
}

void TracedScheduler::OnCoreIdle(int core) {
  Span span(probe_.tracer, Layer::kSched);
  inner_.OnCoreIdle(core);
}

}  // namespace syrup::e2e
