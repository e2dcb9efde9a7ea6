// Policy execution abstractions.
//
// A packet policy is the paper's `schedule(pkt_start, pkt_end)` matching
// function. Two kinds are supported and interchangeable:
//
//   * BytecodePacketPolicy — untrusted policy-file programs, verified by
//     the src/bpf VM and run as their attach-time compiled artifact
//     (src/bpf/compiler.h), with machine code when the native tier
//     published some.
//   * native C++ implementations of PacketPolicy — trusted mirrors used in
//     simulation hot loops; tests assert decision-for-decision equivalence
//     with their bytecode twins.
//
// BytecodeGhostPolicy is the same idea for the Thread Scheduler hook: a
// verified `.ctx thread` program classifies threads (r1 = tid) into strict
// priority classes, and the ghOSt shim turns those classes into
// pick/preempt decisions.
#ifndef SYRUP_SRC_CORE_POLICY_H_
#define SYRUP_SRC_CORE_POLICY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/bpf/compiler.h"
#include "src/bpf/program.h"
#include "src/common/decision.h"
#include "src/common/status.h"
#include "src/ghost/ghost.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"

namespace syrup {

// Metric cells a bytecode policy accounts into. Standalone construction
// (tests, the playground) uses detached cells; syrupd deployments resolve
// them from its MetricsRegistry keyed {app, hook, "policy.*"} so redeploys
// keep accumulating into the same series.
struct PolicyMetrics {
  std::shared_ptr<obs::Counter> invocations;
  std::shared_ptr<obs::Counter> insns;
  std::shared_ptr<obs::Counter> helper_calls;
  std::shared_ptr<obs::Counter> runtime_faults;

  static PolicyMetrics Detached() {
    PolicyMetrics m;
    m.invocations = std::make_shared<obs::Counter>();
    m.insns = std::make_shared<obs::Counter>();
    m.helper_calls = std::make_shared<obs::Counter>();
    m.runtime_faults = std::make_shared<obs::Counter>();
    return m;
  }

  static PolicyMetrics InRegistry(obs::MetricsRegistry& registry,
                                  std::string_view app,
                                  std::string_view hook) {
    PolicyMetrics m;
    m.invocations = registry.GetCounter(app, hook, "policy.invocations");
    m.insns = registry.GetCounter(app, hook, "policy.insns");
    m.helper_calls = registry.GetCounter(app, hook, "policy.helper_calls");
    m.runtime_faults = registry.GetCounter(app, hook, "policy.runtime_faults");
    return m;
  }
};

class PacketPolicy {
 public:
  virtual ~PacketPolicy() = default;

  // The matching function: selects an executor index, kPass, or kDrop.
  virtual Decision Schedule(const PacketView& pkt) = 0;

  virtual std::string_view name() const = 0;
};

// Runs a verified bytecode program as a packet policy: every decision runs
// its compiled artifact (syrupd's attach-time cache), which must be
// non-null.
class BytecodePacketPolicy : public PacketPolicy {
 public:
  BytecodePacketPolicy(std::shared_ptr<const bpf::CompiledProgram> compiled,
                       bpf::ExecEnv env,
                       PolicyMetrics metrics = PolicyMetrics::Detached())
      : compiled_(std::move(compiled)),
        exec_(std::move(env)),
        metrics_(std::move(metrics)) {}

  Decision Schedule(const PacketView& pkt) override {
    auto result = exec_.Run(*compiled_, reinterpret_cast<uint64_t>(pkt.start),
                            reinterpret_cast<uint64_t>(pkt.end),
                            /*args_are_packet=*/true);
    if (!result.ok()) {
      // A verified program should never fault at runtime; treat a fault as
      // PASS so a buggy policy degrades to the system default rather than
      // taking down the datapath.
      metrics_.runtime_faults->Inc();
      return kPass;
    }
    metrics_.invocations->Inc();
    metrics_.insns->Inc(result->insns_executed);
    metrics_.helper_calls->Inc(result->helper_calls);
    return static_cast<Decision>(result->r0);
  }

  std::string_view name() const override { return compiled_->name; }

  // The tier decisions actually run on (native degrades to compiled when
  // the JIT fell back), not the tier that was requested.
  bpf::ExecMode exec_mode() const {
    return bpf::EffectiveExecMode(*compiled_);
  }

  uint64_t invocations() const { return metrics_.invocations->value; }
  uint64_t insns_executed() const { return metrics_.insns->value; }
  uint64_t helper_calls() const { return metrics_.helper_calls->value; }
  uint64_t runtime_faults() const { return metrics_.runtime_faults->value; }

  // Mean compiled instructions per decision. Folding makes this fewer than
  // the source instructions the same decisions execute (Table 2's
  // Instructions column counts those with the interpreter oracle).
  double MeanInsnsPerDecision() const {
    const uint64_t n = invocations();
    return n == 0 ? 0.0
                  : static_cast<double>(insns_executed()) /
                        static_cast<double>(n);
  }

 private:
  std::shared_ptr<const bpf::CompiledProgram> compiled_;
  bpf::CompiledExecutor exec_;
  PolicyMetrics metrics_;
};

// Runs a verified `.ctx thread` program as a ghOSt thread policy.
//
// Convention: the program is a classifier, r1 = tid, r2 = 0, returning the
// thread's strict priority class (smaller = more urgent; ReqType values in
// the paper's workloads: 1 = GET, 2 = SCAN). The shim picks the first
// runnable thread of the smallest class and preempts whenever a runnable
// thread's class is strictly smaller than the running thread's — with a
// two-class map this is exactly GetPriorityGhostPolicy.
//
// `pure` is the verifier's AnalysisFacts::pure. A pure classifier's class
// for a tid cannot change within one agent pass (GhostPolicy::BeginPass),
// so it runs at most once per thread per pass; an impure one runs on every
// query.
class BytecodeGhostPolicy : public GhostPolicy {
 public:
  // `compiled` must be non-null, as for BytecodePacketPolicy.
  BytecodeGhostPolicy(std::shared_ptr<const bpf::CompiledProgram> compiled,
                      bpf::ExecEnv env,
                      PolicyMetrics metrics = PolicyMetrics::Detached(),
                      bool pure = false)
      : compiled_(std::move(compiled)),
        exec_(std::move(env)),
        metrics_(std::move(metrics)),
        memoize_(pure) {}

  int PickThread(int /*core*/,
                 const std::vector<GhostThreadInfo>& runnable) override {
    if (runnable.empty()) {
      return -1;
    }
    int best_tid = runnable.front().tid;
    uint64_t best_class = ClassOf(best_tid);
    for (size_t i = 1; i < runnable.size(); ++i) {
      const uint64_t c = ClassOf(runnable[i].tid);
      if (c < best_class) {
        best_class = c;
        best_tid = runnable[i].tid;
      }
    }
    return best_tid;
  }

  bool ShouldPreempt(const GhostThreadInfo& candidate,
                     int running_tid) override {
    return ClassOf(candidate.tid) < ClassOf(running_tid);
  }

  void BeginPass() override { ++pass_; }

  std::string_view name() const { return compiled_->name; }

  // Classifies one thread. Faults degrade to class 1 (the "urgent" default
  // for unclassified threads), mirroring the native policy's missing-map-
  // entry behavior, and are never memoized. Before the first BeginPass
  // nothing is memoized either.
  uint64_t ClassOf(int tid) {
    ClassMemo* memo = MemoFor(tid);
    if (memo != nullptr && memo->pass == pass_) {
      return memo->klass;
    }
    const auto arg1 = static_cast<uint64_t>(static_cast<uint32_t>(tid));
    auto result = exec_.Run(*compiled_, arg1, 0, /*args_are_packet=*/false);
    if (!result.ok()) {
      metrics_.runtime_faults->Inc();
      return 1;
    }
    metrics_.invocations->Inc();
    metrics_.insns->Inc(result->insns_executed);
    metrics_.helper_calls->Inc(result->helper_calls);
    if (memo != nullptr) {
      *memo = ClassMemo{pass_, result->r0};
    }
    return result->r0;
  }

  // Effective tier, same contract as BytecodePacketPolicy::exec_mode().
  bpf::ExecMode exec_mode() const {
    return bpf::EffectiveExecMode(*compiled_);
  }

 private:
  struct ClassMemo {
    uint64_t pass = 0;  // pass the class was computed in; 0 = never
    uint64_t klass = 0;
  };
  // Machine tids are dense from 1; a larger tid is classified unmemoized.
  static constexpr int kMaxMemoTid = 1 << 16;

  ClassMemo* MemoFor(int tid) {
    if (!memoize_ || pass_ == 0 || tid < 0 || tid >= kMaxMemoTid) {
      return nullptr;
    }
    const auto slot = static_cast<size_t>(tid);
    if (slot >= memo_.size()) {
      memo_.resize(slot + 1);
    }
    return &memo_[slot];
  }

  std::shared_ptr<const bpf::CompiledProgram> compiled_;
  bpf::CompiledExecutor exec_;
  PolicyMetrics metrics_;
  bool memoize_ = false;
  uint64_t pass_ = 0;
  std::vector<ClassMemo> memo_;  // indexed by tid
};

}  // namespace syrup

#endif  // SYRUP_SRC_CORE_POLICY_H_
