// Test oracle: hand-written C++ mirrors of the shipped policies
// (src/policies/builtin.h). Nothing outside tests deploys these; every
// host runs the verified bytecode. Differential tests drive a mirror and
// its bytecode twin with the same inputs (and, for the randomized
// policies, the same random stream) and require identical decisions;
// bench/policy_exec and Table 2 time them beside the bytecode tiers.
//
// mirror               bytecode twin
//   RoundRobinPolicy   RoundRobinPolicyAsm
//   HashPolicy         HashPolicyAsm
//   ScanAvoidPolicy    ScanAvoidPolicyAsm
//   SitaPolicy         SitaPolicyAsm
//   TokenPolicy        TokenPolicyAsm (next = nullptr), or
//                      TokenRoundRobinPolicyAsm (next = RoundRobinPolicy)
//   LeastLoadedPolicy  LeastLoadedPolicyAsm
//   PowerOfTwoPolicy   PowerOfTwoPolicyAsm
//   ConstIndexPolicy   ConstIndexPolicyAsm
//   MicaHomePolicy     MicaHomePolicyAsm
//   GetPriorityGhostPolicy  GetPriorityThreadPolicyAsm
#ifndef SYRUP_TESTS_ORACLES_NATIVE_POLICIES_H_
#define SYRUP_TESTS_ORACLES_NATIVE_POLICIES_H_

#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/decision.h"
#include "src/core/policy.h"
#include "src/ghost/ghost.h"
#include "src/map/map.h"
#include "src/net/packet.h"

namespace syrup {

class RoundRobinPolicy : public PacketPolicy {
 public:
  explicit RoundRobinPolicy(uint32_t num_executors) : n_(num_executors) {}

  Decision Schedule(const PacketView&) override {
    // Matches Fig. 5a: idx++ then idx % NUM_THREADS (the non-atomic
    // increment whose benign races the paper calls out).
    ++idx_;
    return static_cast<Decision>(idx_ % n_);
  }

  std::string_view name() const override { return "round_robin"; }

 private:
  uint32_t n_;
  uint64_t idx_ = 0;
};

class HashPolicy : public PacketPolicy {
 public:
  explicit HashPolicy(uint32_t num_executors) : n_(num_executors) {}

  Decision Schedule(const PacketView& pkt) override {
    if (pkt.size() < 4) {
      return kPass;
    }
    uint32_t ports;
    std::memcpy(&ports, pkt.start, sizeof(ports));
    // Knuth multiplicative hash over the UDP port pair; the bytecode twin
    // performs the identical arithmetic.
    const uint64_t mixed = (static_cast<uint64_t>(ports) * 2654435761ULL) &
                           0xFFFFFFFFULL;
    return static_cast<Decision>((mixed >> 16) % n_);
  }

  std::string_view name() const override { return "hash"; }

 private:
  uint32_t n_;
};

class ScanAvoidPolicy : public PacketPolicy {
 public:
  // `scan_map` holds, per socket index, the request type its thread is
  // currently serving (userspace half updates it, Fig. 5b). `random`
  // supplies the probe sequence (injected for determinism).
  ScanAvoidPolicy(uint32_t num_executors, std::shared_ptr<Map> scan_map,
                  std::function<uint32_t()> random)
      : n_(num_executors),
        scan_map_(std::move(scan_map)),
        random_(std::move(random)) {}

  Decision Schedule(const PacketView&) override {
    uint32_t cur_idx = 0;
    for (uint32_t i = 0; i < n_; ++i) {
      cur_idx = random_() % n_;
      void* scan = scan_map_->Lookup(&cur_idx);
      if (scan == nullptr) {
        return kPass;
      }
      // Stop searching when a non-SCAN socket is found.
      if (Map::AtomicLoad(scan) == static_cast<uint64_t>(ReqType::kGet)) {
        break;
      }
    }
    return cur_idx;
  }

  std::string_view name() const override { return "scan_avoid"; }

 private:
  uint32_t n_;
  std::shared_ptr<Map> scan_map_;
  std::function<uint32_t()> random_;
};

class SitaPolicy : public PacketPolicy {
 public:
  explicit SitaPolicy(uint32_t num_executors) : n_(num_executors) {}

  Decision Schedule(const PacketView& pkt) override {
    if (pkt.size() < 16) {
      return kPass;
    }
    uint64_t type;
    std::memcpy(&type, pkt.start + 8, sizeof(type));  // first 8B: UDP header
    if (type == static_cast<uint64_t>(ReqType::kScan)) {
      return 0;  // SCANs own socket 0
    }
    ++idx_;
    return static_cast<Decision>((idx_ % (n_ - 1)) + 1);
  }

  std::string_view name() const override { return "sita"; }

 private:
  uint32_t n_;
  uint64_t idx_ = 0;
};

class TokenPolicy : public PacketPolicy {
 public:
  // `token_map` is keyed by user id (u32 -> u64 tokens). Requests from
  // users with zero tokens are dropped; otherwise one token is consumed and
  // the decision is delegated to `next` (nullptr = PASS, the §3.4 form).
  TokenPolicy(std::shared_ptr<Map> token_map,
              std::shared_ptr<PacketPolicy> next = nullptr)
      : token_map_(std::move(token_map)), next_(std::move(next)) {}

  Decision Schedule(const PacketView& pkt) override {
    if (pkt.size() < 20) {
      return Delegate(pkt);
    }
    uint32_t user_id;
    std::memcpy(&user_id, pkt.start + 16, sizeof(user_id));
    void* tokens = token_map_->Lookup(&user_id);
    if (tokens == nullptr) {
      return Delegate(pkt);  // unregistered user: default policy
    }
    if (Map::AtomicLoad(tokens) == 0) {
      return kDrop;
    }
    Map::AtomicFetchAdd(tokens, static_cast<uint64_t>(-1));
    return Delegate(pkt);
  }

  std::string_view name() const override { return "token"; }

 private:
  Decision Delegate(const PacketView& pkt) {
    return next_ != nullptr ? next_->Schedule(pkt) : kPass;
  }

  std::shared_ptr<Map> token_map_;
  std::shared_ptr<PacketPolicy> next_;
};

// Picks the executor with the fewest outstanding requests, read from a
// load register Map maintained by the data plane (e.g. the ToR switch's
// per-server counters). Ties break toward the lowest index.
class LeastLoadedPolicy : public PacketPolicy {
 public:
  LeastLoadedPolicy(uint32_t num_executors, std::shared_ptr<Map> load_map)
      : n_(num_executors), load_(std::move(load_map)) {}

  Decision Schedule(const PacketView&) override {
    uint32_t best = 0;
    uint64_t best_load = ~uint64_t{0};
    // Batched scan: one LookupBatch per ≤32 registers pipelines the hash
    // probes instead of serializing n dependent lookups. Same pointers,
    // same counter accounting, same decisions as the per-key loop.
    for (uint32_t base = 0; base < n_; base += Map::kMaxLookupBatch) {
      const uint32_t count = n_ - base < Map::kMaxLookupBatch
                                 ? n_ - base
                                 : Map::kMaxLookupBatch;
      uint32_t keys[Map::kMaxLookupBatch];
      void* counters[Map::kMaxLookupBatch];
      for (uint32_t i = 0; i < count; ++i) {
        keys[i] = base + i;
      }
      load_->LookupBatch(count, keys, counters);
      for (uint32_t i = 0; i < count; ++i) {
        if (counters[i] == nullptr) {
          return kPass;
        }
        const uint64_t load = Map::AtomicLoad(counters[i]);
        if (load < best_load) {
          best_load = load;
          best = base + i;
        }
      }
    }
    return best;
  }

  std::string_view name() const override { return "least_loaded"; }

 private:
  uint32_t n_;
  std::shared_ptr<Map> load_;
};

// Power-of-two-choices: samples two random executors and takes the less
// loaded — near-JSQ quality at O(1) cost, the classic scalable variant of
// least-loaded (useful when scanning every register per decision is too
// expensive, e.g. in a switch pipeline).
class PowerOfTwoPolicy : public PacketPolicy {
 public:
  PowerOfTwoPolicy(uint32_t num_executors, std::shared_ptr<Map> load_map,
                   std::function<uint32_t()> random)
      : n_(num_executors),
        load_(std::move(load_map)),
        random_(std::move(random)) {}

  Decision Schedule(const PacketView&) override {
    const uint32_t keys[2] = {random_() % n_, random_() % n_};
    void* loads[2];
    load_->LookupBatch(2, keys, loads);
    if (loads[0] == nullptr || loads[1] == nullptr) {
      return kPass;
    }
    return Map::AtomicLoad(loads[1]) < Map::AtomicLoad(loads[0]) ? keys[1]
                                                                 : keys[0];
  }

  std::string_view name() const override { return "power_of_two"; }

 private:
  uint32_t n_;
  std::shared_ptr<Map> load_;
  std::function<uint32_t()> random_;
};

// Returns a fixed executor index. Used e.g. as the per-queue AF_XDP
// redirect in the Syrup HW MICA variant, where each NIC queue has exactly
// one AF_XDP socket.
class ConstIndexPolicy : public PacketPolicy {
 public:
  explicit ConstIndexPolicy(Decision index) : index_(index) {}

  Decision Schedule(const PacketView&) override { return index_; }
  std::string_view name() const override { return "const_index"; }

 private:
  Decision index_;
};

class MicaHomePolicy : public PacketPolicy {
 public:
  explicit MicaHomePolicy(uint32_t num_executors) : n_(num_executors) {}

  Decision Schedule(const PacketView& pkt) override {
    if (pkt.size() < 24) {
      return kPass;
    }
    uint32_t key_hash;
    std::memcpy(&key_hash, pkt.start + 20, sizeof(key_hash));
    return static_cast<Decision>(key_hash % n_);
  }

  std::string_view name() const override { return "mica_home"; }

 private:
  uint32_t n_;
};

// --- ghOSt thread policies (§5.3) -------------------------------------------

// Baseline: first-come-first-served thread placement, no preemption.
class FcfsGhostPolicy : public GhostPolicy {
 public:
  int PickThread(int /*core*/,
                 const std::vector<GhostThreadInfo>& runnable) override {
    return runnable.empty() ? -1 : runnable.front().tid;
  }
};

// The Shinjuku-like policy the paper deploys for the 50/50 GET/SCAN RocksDB
// workload: it "gives strict priority to threads processing GET requests,
// preempting at will threads processing SCAN requests", reading an
// application-populated Map to classify threads. Mirror of
// GetPriorityThreadPolicyAsm run by BytecodeGhostPolicy.
class GetPriorityGhostPolicy : public GhostPolicy {
 public:
  // `thread_type_map`: tid (u32) -> ReqType (u64), kept current by the
  // application's userspace code (the cross-layer Map communication).
  explicit GetPriorityGhostPolicy(std::shared_ptr<Map> thread_type_map)
      : types_(std::move(thread_type_map)) {}

  int PickThread(int /*core*/,
                 const std::vector<GhostThreadInfo>& runnable) override {
    if (runnable.empty()) {
      return -1;
    }
    for (const GhostThreadInfo& info : runnable) {
      if (TypeOf(info.tid) == ReqType::kGet) {
        return info.tid;
      }
    }
    return runnable.front().tid;  // only SCAN threads waiting: FCFS
  }

  bool ShouldPreempt(const GhostThreadInfo& candidate,
                     int running_tid) override {
    return TypeOf(candidate.tid) == ReqType::kGet &&
           TypeOf(running_tid) == ReqType::kScan;
  }

 private:
  ReqType TypeOf(int tid) {
    uint32_t key = static_cast<uint32_t>(tid);
    void* value = types_->Lookup(&key);
    if (value == nullptr) {
      return ReqType::kGet;  // unclassified threads treated as short
    }
    return static_cast<ReqType>(Map::AtomicLoad(value));
  }

  std::shared_ptr<Map> types_;
};

}  // namespace syrup

#endif  // SYRUP_TESTS_ORACLES_NATIVE_POLICIES_H_
