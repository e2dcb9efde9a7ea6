// syrupd: the system-wide Syrup daemon (paper §3.5, §4.3).
//
// Applications never attach policies to hooks themselves; they hand syrupd
// a policy file (or a pre-built native policy) and a target hook. The
// daemon:
//   * compiles/assembles the policy and creates or opens its maps (pinning
//     declared maps under /syrup/<app>/<map>, owned by the app's uid),
//   * runs the verifier before anything touches a hook,
//   * installs a per-hook dispatcher that matches each packet's destination
//     port to the owning application's policy — the PROG_ARRAY tail-call
//     design — so a policy only ever sees its own application's inputs,
//   * for the thread hook, launches the ghOSt-style agent bound to the
//     app's machine.
#ifndef SYRUP_SRC_CORE_SYRUPD_H_
#define SYRUP_SRC_CORE_SYRUPD_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/bpf/assembler.h"
#include "src/bpf/compiler.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/core/hook.h"
#include "src/core/policy.h"
#include "src/ghost/ghost.h"
#include "src/map/registry.h"
#include "src/net/stack.h"
#include "src/sim/simulator.h"

namespace syrup {

using AppId = uint32_t;

// One attached policy, as reported by ListDeployments (observability for
// operators and the paper's "resource manager" to act on).
struct DeploymentInfo {
  AppId app = 0;
  std::string app_name;
  Hook hook = Hook::kSocketSelect;
  uint16_t port = 0;
  std::string policy_name;
};

// Point-in-time copy of one hook's dispatcher counters (read through
// `dispatch_stats()`; the live cells live in the metrics registry under
// {"syrupd", <hook>, ...}).
struct DispatchStats {
  uint64_t dispatched = 0;  // packets matched to an app policy
  uint64_t no_policy = 0;   // packets passed through (no matching port)
};

// Read only by bench/e2e's host copy, which still passes one to
// Syrupd::set_flow_cache_config and keeps one in its experiment configs.
// It holds no settings: the flow-decision cache is retired (DESIGN.md).
struct FlowCacheConfig {};

// One map and every deployed bytecode program touching it, as operator
// labels ("app/hook/policy"). `atomics` is the subset of writers mutating
// in place with lock xadd.
struct MapInterferenceRow {
  std::string map;  // pin path when pinned, else the map spec's name
  std::vector<std::string> readers;
  std::vector<std::string> writers;
  std::vector<std::string> atomics;
};

// One cross-program interference or hygiene finding from
// AnalyzeDeployments. Severities: write-write sharing across applications
// is an error (unsynchronized last-writer-wins across trust domains);
// dead-telemetry / stale-input are warnings (userspace readers and writers
// are invisible to this analysis, so either may be intentional); a
// thread program's impurities are informational: they make the agent
// re-run it on every query.
struct InterferenceFinding {
  enum class Level { kError, kWarning, kInfo };
  Level level = Level::kInfo;
  std::string category;  // write-write | dead-telemetry | stale-input |
                         // unmemoized
  std::string map;       // subject map; "" for per-program findings
  std::string detail;
};

std::string_view InterferenceLevelName(InterferenceFinding::Level level);

// Deployment-wide map-interference report (the `syrupctl analyze` surface).
struct DeploymentAnalysis {
  std::vector<MapInterferenceRow> rows;        // sorted by map name
  std::vector<InterferenceFinding> findings;   // errors first

  bool HasErrors() const;
  std::string ToJson() const;
};

class Syrupd {
 public:
  // `stack` may be null for API-only use (no packet hooks available then).
  Syrupd(Simulator& sim, HostStack* stack, uint64_t seed = 1);

  Syrupd(const Syrupd&) = delete;
  Syrupd& operator=(const Syrupd&) = delete;

  // --- Application lifecycle ---------------------------------------------

  // Registers an application (port must be unclaimed: ports are the
  // isolation key, each belongs to exactly one app).
  StatusOr<AppId> RegisterApp(const std::string& name, Uid uid,
                              uint16_t port);
  Status AddPort(AppId app, uint16_t port);

  // --- Policy deployment (syr_deploy_policy) ------------------------------

  // Deploys an untrusted policy file (VM assembly). Assembles, resolves
  // maps, verifies, then attaches. Returns the program id ("prog fd").
  StatusOr<int> DeployPolicyFile(AppId app, std::string_view policy_source,
                                 Hook hook);

  // Deploys a trusted native policy object (simulation fast path).
  StatusOr<int> DeployNativePolicy(AppId app,
                                   std::shared_ptr<PacketPolicy> policy,
                                   Hook hook);

  // Deploys a thread-scheduling policy: starts a ghOSt agent managing
  // `machine`. One thread policy per machine.
  Status DeployThreadPolicy(AppId app, GhostPolicy* policy, Machine& machine,
                            GhostConfig config = {});

  // Deploys an untrusted thread-scheduling policy file (`.ctx thread`
  // assembly; the program classifies threads by priority class, see
  // BytecodeGhostPolicy). Assembles, resolves maps, verifies, compiles per
  // the active exec mode, then starts the ghOSt agent. Returns the prog id.
  // A machine that already has a thread policy is refused with
  // ALREADY_EXISTS before any of that work.
  StatusOr<int> DeployThreadPolicyFile(AppId app,
                                       std::string_view policy_source,
                                       Machine& machine,
                                       GhostConfig config = {});

  // --- Execution tier ------------------------------------------------------

  // How subsequent bytecode deployments execute (already-attached policies
  // keep their tier). Every deployment translates its verified program to
  // the pre-decoded form once at attach time; kNative (default kCompiled)
  // also lowers that form to machine code where the JIT can.
  void set_exec_mode(bpf::ExecMode mode) { exec_mode_ = mode; }
  bpf::ExecMode exec_mode() const { return exec_mode_; }

  // --- Cost budgets --------------------------------------------------------

  // A bytecode deployment whose worst case (at the tier it will run on)
  // exceeds the hook's DefaultHookBudgetNs is rejected, naming the hottest
  // path. Setting this admits it with a logged warning and
  // policy.over_budget = 1, for later deployments (attached ones are not
  // re-checked).
  void set_admit_over_budget(bool admit) { admit_over_budget_ = admit; }

  // --- Dispatch ------------------------------------------------------------

  // The one dispatch entry point: routes a burst of inputs arriving at
  // `hook` to their owning applications' policies and writes one Decision
  // per input, in order — exactly what dispatching the packets one at a
  // time does. The stack's single-packet hooks wrap this with a batch of
  // one.
  void DispatchBatch(Hook hook, std::span<const PacketView> pkts,
                     std::span<Decision> out);

  // Bursts are chunked to this many packets; each chunk pins the map
  // reclamation epoch once.
  static constexpr size_t kMaxDispatchBatch = 64;

  // Read only by bench/e2e's host copy, which still calls it: a no-op.
  void set_flow_cache_config(const FlowCacheConfig&) {}

  // Detaches the app's policy from `hook`; traffic reverts to the default.
  // With `only_prog_id` >= 0 the detach is conditional: it only removes
  // the deployment if it is still the one identified by that prog id, so a
  // stale PolicyHandle going out of scope never tears down a newer
  // deployment at the same hook.
  Status RemovePolicy(AppId app, Hook hook, int only_prog_id = -1);

  // --- Map API (syr_map_*) -------------------------------------------------

  // Creates a map and pins it at `pin_path` owned by the app. Returns an fd.
  StatusOr<int> MapCreate(AppId app, const MapSpec& spec,
                          const std::string& pin_path, PinMode mode = {});
  // Opens an existing pinned map, enforcing permissions. Returns an fd.
  StatusOr<int> MapOpen(AppId app, const std::string& path,
                        MapAccess access = MapAccess::kWrite);
  Status MapClose(int fd);
  StatusOr<uint64_t> MapLookupElem(int fd, uint32_t key);
  // Rejected with PermissionDenied when `fd` was opened read-only.
  Status MapUpdateElem(int fd, uint32_t key, uint64_t value);
  // Direct handle for in-process (policy/application) fast paths.
  std::shared_ptr<Map> MapByFd(int fd) const;
  // Access mode `fd` was opened with (kWrite when unknown fd: callers
  // should check fd validity through MapByFd first).
  MapAccess MapFdAccess(int fd) const;

  MapRegistry& registry() { return registry_; }

  // --- Observability (the syrstat surface) --------------------------------

  // The registry every component of this daemon accounts into.
  obs::MetricsRegistry& metrics() { return metrics_; }

  // One coherent snapshot of everything: stack counters, per-hook dispatch
  // and decision counts, per-app policy VM counters, per-map op counts and
  // runtime gauges (map.{occupancy,max_probe_len,tombstones,epoch_lag},
  // refreshed here), and the ghOSt agent. Serializable with
  // Snapshot::ToJson().
  obs::Snapshot StatsSnapshot() const {
    RefreshMapGauges();
    return metrics_.TakeSnapshot();
  }

  DispatchStats dispatch_stats(Hook hook) const {
    const HookCells& cells = hook_cells_[HookIndex(hook)];
    return DispatchStats{cells.dispatched->value, cells.no_policy->value};
  }
  const GhostScheduler* ghost_scheduler() const { return ghost_.get(); }

  // The policy attached for `port` at `hook` (nullptr when none) — the
  // object syrupd's dispatcher invokes, shared so callers (Table 2) can
  // drive it directly.
  std::shared_ptr<PacketPolicy> PolicyAt(Hook hook, uint16_t port) const;

  // Looks up a deployed bytecode program's source form by id (Table 2
  // counts its instructions with the interpreter oracle).
  const bpf::Program* ProgramById(uint64_t prog_id) const;

  // The attach-time compiled artifact for a program id: non-null for every
  // deployed bytecode program, nullptr for an unknown id.
  const bpf::CompiledProgram* CompiledById(uint64_t prog_id) const;

  // Enumerates every attached packet policy (hook, port, owner, name).
  std::vector<DeploymentInfo> ListDeployments() const;

  // The verifier's analysis facts for a deployed bytecode program (nullptr
  // for native policies or unknown ids). Valid until the daemon dies.
  const bpf::AnalysisFacts* FactsById(uint64_t prog_id) const;

  // Deployment-wide map-interference report across every attached bytecode
  // policy (packet hooks and the thread hook): who reads/writes each map,
  // cross-application write-write sharing, dead telemetry (written but
  // never read), stale inputs (read but never written), and the
  // impurities that keep a thread classifier from being memoized per agent
  // pass. Userspace map users (syr_map_* fds) are outside the verifier's
  // view and are not counted.
  DeploymentAnalysis AnalyzeDeployments() const;

  // Execution environment handed to bytecode policies (simulated time,
  // deterministic randomness, tail-call resolution).
  bpf::ExecEnv MakeExecEnv();

 private:
  struct AppState {
    std::string name;
    Uid uid = 0;
    std::vector<uint16_t> ports;
  };

  struct FdEntry {
    AppId app;
    std::shared_ptr<Map> map;
    MapAccess access = MapAccess::kWrite;
  };

  // One deployed policy behind a port: the per-app dispatched cell is
  // resolved once at attach time so the packet path bumps a pointer.
  // `policy_raw` is the hot-path observer into `policy` — dispatch never
  // touches the shared_ptr control block; the entry keeps it alive, and
  // policies cannot attach or detach from inside a dispatch.
  struct PortEntry {
    std::shared_ptr<PacketPolicy> policy;
    PacketPolicy* policy_raw = nullptr;
    int prog_id = -1;
    std::shared_ptr<obs::Counter> app_dispatched;
  };

  // Per-hook dispatcher counters under {"syrupd", <hook>, ...}.
  struct HookCells {
    std::shared_ptr<obs::Counter> dispatched;
    std::shared_ptr<obs::Counter> no_policy;
    std::shared_ptr<obs::Counter> decision_steer;
    std::shared_ptr<obs::Counter> decision_pass;
    std::shared_ptr<obs::Counter> decision_drop;
  };

  Status AttachPolicy(AppId app, std::shared_ptr<PacketPolicy> policy,
                      Hook hook, int prog_id);
  // Translates a just-verified program per the active exec mode. `facts`
  // (from the caller's Verify call) lets the compiler drop
  // verifier-proven-dead code and decided branches.
  StatusOr<std::shared_ptr<const bpf::CompiledProgram>> CompileForCurrentMode(
      const bpf::Program& program, bpf::ProgramContext context,
      const bpf::AnalysisFacts* facts);
  // Budget gate for a just-verified, compiled deployment: rejects (or
  // admits with a warning, per set_admit_over_budget) a worst-case path at
  // the effective tier over the hook budget, or one the cost analysis could
  // not bound. Only an admitted deploy publishes its verifier.* and policy.*
  // gauges (policy.exec_mode is EffectiveExecMode, the tier that runs).
  Status AdmitDeployment(const std::string& app_name, Hook hook,
                         const bpf::Program& prog,
                         const bpf::VerifierStats& vstats,
                         uint64_t compile_ns, const bpf::CostFacts& cost,
                         const bpf::CompiledProgram& compiled);
  Status InstallStackHook(Hook hook);
  void MaybeUninstallStackHook(Hook hook);
  // Batch-of-1 wrapper around DispatchBatch (the single-packet hooks).
  Decision Dispatch(Hook hook, const PacketView& pkt);
  // One ≤kMaxDispatchBatch chunk of a DispatchBatch call.
  void DispatchChunk(Hook hook, std::span<const PacketView> pkts,
                     std::span<Decision> out);
  StatusOr<std::vector<std::shared_ptr<Map>>> ResolveMapSlots(
      AppId app, const std::vector<bpf::MapSlot>& slots);
  // ALREADY_EXISTS once a thread policy runs: one ghOSt agent per machine.
  Status CheckThreadHookFree() const;

  // Per-map runtime gauge row: registered once per distinct map on
  // MapCreate/MapOpen, refreshed from Map::RuntimeStats() on every
  // StatsSnapshot(). weak_ptr so a tracked map's lifetime stays owned by
  // its fds/registry pins; expired rows are pruned during refresh (their
  // gauges keep the last observed value in the registry).
  struct MapGaugeEntry {
    std::weak_ptr<Map> map;
    std::shared_ptr<obs::Gauge> occupancy;
    std::shared_ptr<obs::Gauge> max_probe_len;
    std::shared_ptr<obs::Gauge> tombstones;
    std::shared_ptr<obs::Gauge> epoch_lag;
  };
  void TrackMapGauges(const std::shared_ptr<Map>& map,
                      std::string_view app_name, const std::string& map_name);
  void RefreshMapGauges() const;

  Simulator& sim_;
  HostStack* stack_;
  MapRegistry registry_;
  obs::MetricsRegistry metrics_;
  Rng rng_;

  std::map<AppId, AppState> apps_;
  AppId next_app_id_ = 1;

  // hook -> (dst port -> deployment). Policies are shared_ptr so a packet
  // in flight can't outlive its policy on removal.
  std::map<uint16_t, PortEntry> dispatch_[kNumHooks];
  HookCells hook_cells_[kNumHooks];

  std::map<uint64_t, std::shared_ptr<const bpf::Program>> programs_;
  // Per-prog-id compiled cache: filled at attach time for every bytecode
  // deployment, consulted by tail calls (ExecEnv::resolve_compiled).
  std::map<uint64_t, std::shared_ptr<const bpf::CompiledProgram>> compiled_;
  uint64_t next_prog_id_ = 1;
  bpf::ExecMode exec_mode_ = bpf::ExecMode::kCompiled;
  bool admit_over_budget_ = false;
  // Verifier facts per deployed bytecode program, retained for the
  // deployment interference analysis (read/write/atomic map sets,
  // impurities, cost summary).
  std::map<uint64_t, bpf::AnalysisFacts> facts_;

  std::map<int, FdEntry> fds_;
  int next_fd_ = 3;

  // mutable: RefreshMapGauges() prunes expired rows from the const
  // StatsSnapshot() path.
  mutable std::vector<MapGaugeEntry> map_gauges_;

  std::unique_ptr<GhostScheduler> ghost_;
  // Keeps a DeployThreadPolicyFile bytecode policy alive for the agent,
  // which holds it by reference.
  std::shared_ptr<BytecodeGhostPolicy> owned_thread_policy_;
  AppId ghost_owner_ = 0;
  // Prog id of the bytecode thread policy (-1: none, or a native one),
  // so AnalyzeDeployments can include the thread hook.
  int64_t thread_prog_id_ = -1;
};

}  // namespace syrup

#endif  // SYRUP_SRC_CORE_SYRUPD_H_
