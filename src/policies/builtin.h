// The scheduling policies evaluated in the paper, in two interchangeable
// forms:
//
//   * native C++ PacketPolicy implementations (simulation fast path), and
//   * bytecode policy files (the *Asm() generators), deployed through
//     syrupd's assemble→verify→attach pipeline like real untrusted code.
//
// Tests assert the two forms make identical decisions on identical inputs.
//
// Paper provenance:
//   RoundRobinPolicy  - Fig. 5a   (§2.1 GET-only and §5.2 mixed workloads)
//   HashPolicy        - §3.3      (the portable hash example; also MICA)
//   ScanAvoidPolicy   - Fig. 5c   (+ userspace half, Fig. 5b, in the apps)
//   SitaPolicy        - Fig. 5d   (Size Interval Task Assignment)
//   TokenPolicy       - §3.4/§5.2.2 (ReFlex-style SLO tokens)
//   MicaHomePolicy    - §5.4      (key-hash home-core steering)
#ifndef SYRUP_SRC_POLICIES_BUILTIN_H_
#define SYRUP_SRC_POLICIES_BUILTIN_H_

#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "src/common/decision.h"
#include "src/core/policy.h"
#include "src/map/map.h"
#include "src/net/packet.h"

namespace syrup {

// --- Round Robin (Fig. 5a) -------------------------------------------------

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

std::string RoundRobinPolicyAsm(uint32_t num_executors);

// --- Hash (§3.3) -------------------------------------------------------------

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

std::string HashPolicyAsm(uint32_t num_executors);

// --- SCAN Avoid, kernel half (Fig. 5c) ---------------------------------------

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

std::string ScanAvoidPolicyAsm(uint32_t num_executors);

// --- SITA (Fig. 5d) ----------------------------------------------------------

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

std::string SitaPolicyAsm(uint32_t num_executors);

// --- Token-based QoS (§3.4, §5.2.2) ------------------------------------------

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

std::string TokenPolicyAsm();

// --- Least loaded (RackSched-style, §6.1 / §7) --------------------------------

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

// Bytecode twin; `load_map_path` is the pin the switch/daemon exposes.
std::string LeastLoadedPolicyAsm(uint32_t num_executors,
                                 const std::string& load_map_path);

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

std::string PowerOfTwoPolicyAsm(uint32_t num_executors,
                                const std::string& load_map_path);

// --- Constant executor -------------------------------------------------------

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

std::string ConstIndexPolicyAsm(Decision index);

// --- MICA home-core steering (§5.4) ------------------------------------------

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

std::string MicaHomePolicyAsm(uint32_t num_executors);

// --- Variable-offset header parse (RackSched-style L4 steering) --------------

// Steers on a key that sits *after* a variable-length option area: byte 5
// carries the option length (masked to [0, 31]), and the 4-byte steering
// key is read at pkt[len + 4], modulo the executor count (PASS for packets
// under 40 bytes). The range-tracking verifier proves the access from the
// mask plus the 40-byte bounds guard; a constant-only verifier has to
// reject it (the offset is not a compile-time constant).
std::string VarHeaderPolicyAsm(uint32_t num_executors);

// --- GET-priority thread scheduling (§5.3) -----------------------------------

// Bytecode twin of GetPriorityGhostPolicy for the Thread Scheduler hook
// (deployed via Syrupd::DeployThreadPolicyFile, executed through the ghOSt
// shim). The program classifies a thread: r1 = tid, returns its ReqType
// (1 = GET, 2 = SCAN) from the application-populated map at
// `thread_type_map_path`, defaulting unclassified threads to GET exactly
// like the native policy.
std::string GetPriorityThreadPolicyAsm(
    const std::string& thread_type_map_path);

}  // namespace syrup

#endif  // SYRUP_SRC_POLICIES_BUILTIN_H_
