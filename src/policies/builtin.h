// The scheduling policies evaluated in the paper, as policy files: each
// generator returns VM assembly that syrupd (or a daemon-less host) loads
// through bpf::Load like any untrusted program. These programs are the only
// policy form outside tests. Their hand-written C++ mirrors live in
// tests/oracles/native_policies.h, where differential tests check that the
// two make identical decisions on identical inputs.
//
// Paper provenance:
//   RoundRobinPolicyAsm  - Fig. 5a   (§2.1 GET-only and §5.2 mixed workloads)
//   HashPolicyAsm        - §3.3      (the portable hash example; also MICA)
//   ScanAvoidPolicyAsm   - Fig. 5c   (+ userspace half, Fig. 5b, in the apps)
//   SitaPolicyAsm        - Fig. 5d   (Size Interval Task Assignment)
//   TokenPolicyAsm       - §3.4/§5.2.2 (ReFlex-style SLO tokens)
//   MicaHomePolicyAsm    - §5.4      (key-hash home-core steering)
//   GetPriorityThreadPolicyAsm - §5.3 (GET-priority thread scheduling)
#ifndef SYRUP_SRC_POLICIES_BUILTIN_H_
#define SYRUP_SRC_POLICIES_BUILTIN_H_

#include <cstdint>
#include <string>

#include "src/common/decision.h"

namespace syrup {

// --- Round Robin (Fig. 5a) -------------------------------------------------

// idx++ then idx % n, idx in the one-slot array map `rr_state`.
std::string RoundRobinPolicyAsm(uint32_t num_executors);

// --- Hash (§3.3) -------------------------------------------------------------

// Knuth multiplicative hash of the UDP port pair, modulo n.
std::string HashPolicyAsm(uint32_t num_executors);

// --- SCAN Avoid, kernel half (Fig. 5c) ---------------------------------------

// Probes up to n random sockets in `scan_map` (per socket, the request type
// its thread serves; the userspace half, Fig. 5b, writes it) and takes the
// first serving a GET, else the last probed.
std::string ScanAvoidPolicyAsm(uint32_t num_executors);

// --- SITA (Fig. 5d) ----------------------------------------------------------

// SCANs go to socket 0; GETs round-robin over sockets 1..n-1.
std::string SitaPolicyAsm(uint32_t num_executors);

// --- Token-based QoS (§3.4, §5.2.2) ------------------------------------------

// §3.4's example verbatim: the user id keys `token_map` (u32 -> u64
// tokens); an empty bucket DROPs, otherwise one token is consumed and the
// packet PASSes, as do unregistered users.
std::string TokenPolicyAsm();

// Fig. 7's socket policy: TokenPolicyAsm with round robin (as in
// RoundRobinPolicyAsm) in place of every PASS. An empty bucket DROPs
// without advancing the round robin.
std::string TokenRoundRobinPolicyAsm(uint32_t num_executors);

// --- Least loaded (RackSched-style, §6.1 / §7) --------------------------------

// Picks the executor with the fewest outstanding requests in the load
// registers at the extern pin `load_map_path` (e.g. the ToR switch's
// per-server counters), ties toward the lowest index. Above 32 executors
// the verifier rejects it.
std::string LeastLoadedPolicyAsm(uint32_t num_executors,
                                 const std::string& load_map_path);

// Power-of-two-choices: samples two random executors and takes the less
// loaded — near-JSQ quality at O(1) cost.
std::string PowerOfTwoPolicyAsm(uint32_t num_executors,
                                const std::string& load_map_path);

// --- Constant executor -------------------------------------------------------

// Returns a fixed decision (e.g. the per-queue AF_XDP redirect of the Syrup
// HW MICA variant).
std::string ConstIndexPolicyAsm(Decision index);

// --- MICA home-core steering (§5.4) ------------------------------------------

// The request's key hash, modulo n.
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

// The Thread Scheduler hook's classifier (Syrupd::DeployThreadPolicyFile):
// r1 = tid, returns its ReqType (1 = GET, 2 = SCAN) from the map at
// `thread_type_map_path`, GET for an unclassified thread.
std::string GetPriorityThreadPolicyAsm(
    const std::string& thread_type_map_path);

}  // namespace syrup

#endif  // SYRUP_SRC_POLICIES_BUILTIN_H_
