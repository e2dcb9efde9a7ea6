// The Syrup storage hook: matches IO requests (inputs) to NVMe submission
// queues (executors) via a user-defined policy — §6.1's extension realized.
//
// Policies are verified bytecode, loaded with bpf::Load (there is no daemon
// on the device) and run as a BytecodePacketPolicy over the request's
// packet-compatible wire image, so policies written for network hooks
// deploy here unchanged.
#ifndef SYRUP_SRC_STORAGE_IO_SCHEDULER_H_
#define SYRUP_SRC_STORAGE_IO_SCHEDULER_H_

#include <memory>

#include "src/common/decision.h"
#include "src/core/policy.h"
#include "src/storage/nvme_device.h"

namespace syrup {

struct IoSchedStats {
  uint64_t scheduled = 0;
  uint64_t policy_drops = 0;
  uint64_t invalid_decisions = 0;
  uint64_t rejected = 0;  // device queue full
};

class IoScheduler {
 public:
  explicit IoScheduler(NvmeDevice& device) : device_(device) {}

  // Installs/replaces the hook policy (nullptr restores the default).
  void SetPolicy(std::shared_ptr<PacketPolicy> policy) {
    policy_ = std::move(policy);
  }

  // Schedules one request. Default policy (or PASS): round robin across
  // queues, the no-assumptions baseline.
  bool Submit(const IoRequest& request) {
    int queue = -1;
    if (policy_ != nullptr) {
      const auto wire = request.ToWire();
      const PacketView view{wire.data(), wire.data() + wire.size()};
      const Decision d = policy_->Schedule(view);
      if (d == kDrop) {
        ++stats_.policy_drops;
        return false;
      }
      if (d != kPass) {
        if (d < static_cast<Decision>(device_.num_queues())) {
          queue = static_cast<int>(d);
        } else {
          ++stats_.invalid_decisions;
        }
      }
    }
    if (queue < 0) {
      queue = static_cast<int>(next_rr_++ %
                               static_cast<uint64_t>(device_.num_queues()));
    }
    ++stats_.scheduled;
    if (!device_.Submit(queue, request)) {
      ++stats_.rejected;
      return false;
    }
    return true;
  }

  const IoSchedStats& stats() const { return stats_; }

 private:
  NvmeDevice& device_;
  std::shared_ptr<PacketPolicy> policy_;
  IoSchedStats stats_;
  uint64_t next_rr_ = 0;
};

}  // namespace syrup

#endif  // SYRUP_SRC_STORAGE_IO_SCHEDULER_H_
