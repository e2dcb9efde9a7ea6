// Scheduling hook identifiers (paper Fig. 4).
#ifndef SYRUP_SRC_CORE_HOOK_H_
#define SYRUP_SRC_CORE_HOOK_H_

#include <cstddef>
#include <string_view>

namespace syrup {

enum class Hook {
  kXdpOffload,      // input: packet,        executor: NIC RX queue
  kXdpDrv,          // input: packet,        executor: AF_XDP socket
  kXdpSkb,          // input: packet,        executor: AF_XDP socket
  kCpuRedirect,     // input: packet,        executor: core
  kSocketSelect,    // input: datagram/conn, executor: socket
  kThreadScheduler, // input: thread,        executor: core (via ghOSt)
};

// Number of hooks; sizes every per-hook table. Keep in sync with the enum
// (kThreadScheduler is the last member).
inline constexpr size_t kNumHooks =
    static_cast<size_t>(Hook::kThreadScheduler) + 1;

inline constexpr size_t HookIndex(Hook hook) {
  return static_cast<size_t>(hook);
}

inline constexpr Hook HookFromIndex(size_t index) {
  return static_cast<Hook>(index);
}

inline constexpr std::string_view HookName(Hook hook) {
  switch (hook) {
    case Hook::kXdpOffload: return "xdp_offload";
    case Hook::kXdpDrv: return "xdp_drv";
    case Hook::kXdpSkb: return "xdp_skb";
    case Hook::kCpuRedirect: return "cpu_redirect";
    case Hook::kSocketSelect: return "socket_select";
    case Hook::kThreadScheduler: return "thread_scheduler";
  }
  return "?";
}

inline constexpr bool IsPacketHook(Hook hook) {
  return hook != Hook::kThreadScheduler;
}

// Default worst-case latency budget per policy execution at each hook, in
// ns at the deployment's effective tier. Packet hooks sit on per-packet
// fast paths and get tight budgets (tighter the closer to the NIC);
// the ghOSt-style thread hook runs per scheduling event and is looser.
// Syrupd compares the verifier's wcet_ns against these at deploy time
// (Syrupd::set_admit_over_budget admits a program over them). The
// xdp_offload and thread_scheduler entries are mirrored by the verifier's
// path-over-budget lint thresholds in src/bpf/cost_model.h.
inline constexpr double DefaultHookBudgetNs(Hook hook) {
  switch (hook) {
    case Hook::kXdpOffload: return 1000.0;
    case Hook::kXdpDrv: return 1500.0;
    case Hook::kXdpSkb: return 2000.0;
    case Hook::kCpuRedirect: return 2000.0;
    case Hook::kSocketSelect: return 4000.0;
    case Hook::kThreadScheduler: return 20000.0;
  }
  return 1000.0;
}

}  // namespace syrup

#endif  // SYRUP_SRC_CORE_HOOK_H_
