#include "src/core/syrupd.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "src/bpf/jit.h"
#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/map/epoch.h"

namespace syrup {

namespace {

std::string FormatNs(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ns);
  return buf;
}

// policy.budget_warn is raised for a still-admissible program whose worst
// case exceeds this fraction of the hook budget.
constexpr double kBudgetWarnFraction = 0.8;

void JsonEscapeTo(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void JsonStringListTo(std::ostream& os, const std::vector<std::string>& v) {
  os << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    os << '"';
    JsonEscapeTo(os, v[i]);
    os << '"';
  }
  os << ']';
}

}  // namespace

std::string_view InterferenceLevelName(InterferenceFinding::Level level) {
  switch (level) {
    case InterferenceFinding::Level::kError: return "error";
    case InterferenceFinding::Level::kWarning: return "warning";
    case InterferenceFinding::Level::kInfo: return "info";
  }
  return "?";
}

bool DeploymentAnalysis::HasErrors() const {
  return std::any_of(findings.begin(), findings.end(),
                     [](const InterferenceFinding& f) {
                       return f.level == InterferenceFinding::Level::kError;
                     });
}

std::string DeploymentAnalysis::ToJson() const {
  std::ostringstream os;
  os << "{\"maps\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) os << ',';
    const MapInterferenceRow& row = rows[i];
    os << "{\"map\":\"";
    JsonEscapeTo(os, row.map);
    os << "\",\"readers\":";
    JsonStringListTo(os, row.readers);
    os << ",\"writers\":";
    JsonStringListTo(os, row.writers);
    os << ",\"atomics\":";
    JsonStringListTo(os, row.atomics);
    os << '}';
  }
  os << "],\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) os << ',';
    const InterferenceFinding& f = findings[i];
    os << "{\"level\":\"" << InterferenceLevelName(f.level)
       << "\",\"category\":\"";
    JsonEscapeTo(os, f.category);
    os << "\",\"map\":\"";
    JsonEscapeTo(os, f.map);
    os << "\",\"detail\":\"";
    JsonEscapeTo(os, f.detail);
    os << "\"}";
  }
  os << "]}";
  return os.str();
}

Syrupd::Syrupd(Simulator& sim, HostStack* stack, uint64_t seed)
    : sim_(sim), stack_(stack), rng_(seed) {
  // Eagerly resolve the per-hook dispatcher cells so the packet path only
  // ever bumps pointers.
  for (size_t i = 0; i < kNumHooks; ++i) {
    const std::string_view hook = HookName(HookFromIndex(i));
    hook_cells_[i].dispatched = metrics_.GetCounter("syrupd", hook,
                                                    "dispatched");
    hook_cells_[i].no_policy = metrics_.GetCounter("syrupd", hook,
                                                   "no_policy");
    hook_cells_[i].decision_steer =
        metrics_.GetCounter("syrupd", hook, "decision_steer");
    hook_cells_[i].decision_pass =
        metrics_.GetCounter("syrupd", hook, "decision_pass");
    hook_cells_[i].decision_drop =
        metrics_.GetCounter("syrupd", hook, "decision_drop");
  }
  if (stack_ != nullptr) {
    stack_->BindMetrics(metrics_);
  }
}

StatusOr<AppId> Syrupd::RegisterApp(const std::string& name, Uid uid,
                                    uint16_t port) {
  for (const auto& [id, app] : apps_) {
    if (std::find(app.ports.begin(), app.ports.end(), port) !=
        app.ports.end()) {
      return AlreadyExistsError("port " + std::to_string(port) +
                                " already owned by app " + app.name);
    }
  }
  const AppId id = next_app_id_++;
  apps_[id] = AppState{name, uid, {port}};
  return id;
}

Status Syrupd::AddPort(AppId app, uint16_t port) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    return NotFoundError("unknown app");
  }
  for (const auto& [id, other] : apps_) {
    if (std::find(other.ports.begin(), other.ports.end(), port) !=
        other.ports.end()) {
      return AlreadyExistsError("port already owned");
    }
  }
  it->second.ports.push_back(port);
  return OkStatus();
}

bpf::ExecEnv Syrupd::MakeExecEnv() {
  bpf::ExecEnv env;
  env.random_u32 = [this]() { return static_cast<uint32_t>(rng_.Next()); };
  env.ktime_ns = [this]() { return sim_.Now(); };
  // Tail calls resolve against the attach-time cache, which holds every
  // deployed bytecode program.
  env.resolve_compiled = [this](uint64_t prog_id) {
    return CompiledById(prog_id);
  };
  return env;
}

namespace {

// What the budget gate decided about a loaded program, for the commit to
// publish.
struct BudgetVerdict {
  bpf::ExecMode tier = bpf::ExecMode::kCompiled;  // the tier that runs
  double wcet_ns = 0;
  bool over = false;
  bool warn = false;
};

// The budget gate: rejects (or admits with a warning, per `admit_over`) a
// worst-case path at the effective tier over the hook budget, or one the
// cost analysis could not bound. Writes nothing but the log.
StatusOr<BudgetVerdict> CheckBudget(Hook hook,
                                    const bpf::LoadedProgram& loaded,
                                    bool admit_over) {
  const std::string_view hook_name = HookName(hook);
  const std::string& name = loaded.program->name;
  const bpf::CostFacts& cost = loaded.facts.cost;
  BudgetVerdict verdict;
  verdict.tier = bpf::EffectiveExecMode(*loaded.compiled);
  const double budget = DefaultHookBudgetNs(hook);
  verdict.wcet_ns =
      cost.bounded ? cost.wcet_ns[static_cast<size_t>(verdict.tier)] : 0.0;
  verdict.over = !cost.bounded || verdict.wcet_ns > budget;
  verdict.warn = cost.bounded && !verdict.over &&
                 verdict.wcet_ns > budget * kBudgetWarnFraction;
  if (verdict.warn) {
    SYRUP_LOG(Warning) << "policy '" << name << "' at " << hook_name
                       << " uses " << FormatNs(verdict.wcet_ns) << " of "
                       << FormatNs(budget) << " ns budget worst case ("
                       << FormatNs(100.0 * verdict.wcet_ns / budget)
                       << "%); consider a cheaper policy or a looser hook";
  }
  if (verdict.over) {
    std::string what;
    if (!cost.bounded) {
      what = "policy '" + name + "' rejected at hook " +
             std::string(hook_name) +
             ": the cost analysis could not bound its worst-case path, so "
             "the " + FormatNs(budget) + " ns hook budget cannot be proven";
    } else {
      what = "policy '" + name + "' rejected at hook " +
             std::string(hook_name) + ": worst-case path costs " +
             FormatNs(verdict.wcet_ns) + " ns at the " +
             std::string(bpf::ExecModeName(verdict.tier)) + " tier, over the " +
             FormatNs(budget) + " ns budget; hottest path: " +
             bpf::FormatPath(cost.hottest_path) +
             " (run `syrupctl cost` for the disassembly)";
    }
    if (!admit_over) {
      return InvalidArgumentError(
          what + "; Syrupd::set_admit_over_budget(true) overrides");
    }
    SYRUP_LOG(Warning) << what
                       << " -- admitted anyway (admit_over_budget set)";
  }
  return verdict;
}

// The admitted deploy's verifier.* and policy.* gauges (policy.exec_mode is
// EffectiveExecMode, the tier that runs).
void PublishDeployGauges(obs::MetricsRegistry& metrics,
                         std::string_view app_name, Hook hook,
                         const bpf::LoadedProgram& loaded,
                         const BudgetVerdict& verdict) {
  const std::string_view hook_name = HookName(hook);
  auto set = [&](std::string_view metric, int64_t value) {
    metrics.GetGauge(app_name, hook_name, metric)->Set(value);
  };
  const bpf::VerifierStats& vstats = loaded.stats;
  const bpf::CostFacts& cost = loaded.facts.cost;
  set("verifier.visited_insns", static_cast<int64_t>(vstats.visited_insns));
  set("verifier.branch_states", static_cast<int64_t>(vstats.branch_states));
  set("verifier.pruned_states", static_cast<int64_t>(vstats.pruned_states));
  set("verifier.verify_ns", static_cast<int64_t>(vstats.verify_ns));
  set("policy.compile_ns", static_cast<int64_t>(loaded.compile_ns));
  set("policy.exec_mode", static_cast<int64_t>(verdict.tier));
  if (loaded.compiled->native != nullptr) {
    const bpf::JitStats& jit = loaded.compiled->native->stats();
    set("policy.jit_ns", static_cast<int64_t>(jit.jit_ns));
    set("policy.jit_code_bytes", static_cast<int64_t>(jit.code_bytes));
  }
  // -1 on the wcet gauges means "no bound": the cost walk gave up
  // (exploration budget), so no wcet exists to report.
  set("policy.wcet_ns", cost.bounded ? std::llround(verdict.wcet_ns) : -1);
  set("policy.wcet_insns",
      cost.bounded ? static_cast<int64_t>(cost.wcet_insns) : -1);
  set("policy.over_budget", verdict.over ? 1 : 0);
  set("policy.budget_warn", verdict.warn ? 1 : 0);
}

std::string PinPath(const std::string& app_name, const std::string& map) {
  return "/syrup/" + app_name + "/" + map;
}

}  // namespace

const bpf::Program* Syrupd::ProgramById(uint64_t prog_id) const {
  auto it = programs_.find(prog_id);
  return it == programs_.end() ? nullptr : it->second.get();
}

const bpf::CompiledProgram* Syrupd::CompiledById(uint64_t prog_id) const {
  auto it = compiled_.find(prog_id);
  return it == compiled_.end() ? nullptr : it->second.get();
}

StatusOr<uint64_t> Syrupd::LoadAndCommit(AppId app, std::string_view source,
                                         Hook hook) {
  const AppState& state = apps_.at(app);
  bpf::LoadOptions options;
  options.context = IsPacketHook(hook) ? bpf::ProgramContext::kPacket
                                       : bpf::ProgramContext::kThread;
  options.mode = exec_mode_;
  options.resolve =
      [this, &state](
          const bpf::MapSlot& slot) -> StatusOr<std::shared_ptr<Map>> {
    if (slot.is_extern) {
      return registry_.Open(slot.path, state.uid, MapAccess::kWrite);
    }
    // Re-deploying a policy reuses its existing pinned maps so state (e.g.
    // token counts) survives policy updates, as with bpffs pins. A slot
    // with no pin yet gets a fresh map, pinned at commit.
    StatusOr<std::shared_ptr<Map>> pinned = registry_.Open(
        PinPath(state.name, slot.name), state.uid, MapAccess::kWrite);
    if (pinned.status().code() == StatusCode::kNotFound) {
      return std::shared_ptr<Map>();
    }
    return pinned;
  };
  SYRUP_ASSIGN_OR_RETURN(bpf::LoadedProgram loaded,
                         bpf::Load(source, options));
  // The budget gate: a program whose verifier-proven worst-case path is
  // too slow for this hook never reaches it (unless overridden).
  SYRUP_ASSIGN_OR_RETURN(const BudgetVerdict verdict,
                         CheckBudget(hook, loaded, admit_over_budget_));

  // Commit: every gate passed, so from here on the deploy leaves a trace.
  for (uint32_t index : loaded.created_maps) {
    const std::shared_ptr<Map>& map = loaded.program->maps[index];
    const std::string& name = map->spec().name;
    map->BindCounters(MapOpCounters::InRegistry(metrics_, state.name, name));
    // The resolver found no pin at this path, so it is still free.
    SYRUP_CHECK_OK(registry_.Pin(PinPath(state.name, name), map, state.uid));
  }
  PublishDeployGauges(metrics_, state.name, hook, loaded, verdict);
  const uint64_t prog_id = next_prog_id_++;
  programs_[prog_id] = std::move(loaded.program);
  compiled_[prog_id] = std::move(loaded.compiled);
  facts_[prog_id] = std::move(loaded.facts);
  return prog_id;
}

StatusOr<int> Syrupd::DeployPolicyFile(AppId app,
                                       std::string_view policy_source,
                                       Hook hook) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    return NotFoundError("unknown app");
  }
  if (!IsPacketHook(hook)) {
    return InvalidArgumentError(
        "thread policies deploy via DeployThreadPolicyFile");
  }
  if (stack_ == nullptr) {
    return FailedPreconditionError("syrupd has no host stack attached");
  }
  SYRUP_ASSIGN_OR_RETURN(const uint64_t prog_id,
                         LoadAndCommit(app, policy_source, hook));
  const AppState& state = it->second;
  auto policy = std::make_shared<BytecodePacketPolicy>(
      compiled_.at(prog_id), MakeExecEnv(),
      PolicyMetrics::InRegistry(metrics_, state.name, HookName(hook)));
  // The dispatcher routes by destination port, so installing the policy for
  // each of the app's ports is exactly the paper's "each application's
  // program handles only packets directed to its corresponding port".
  std::shared_ptr<obs::Counter> app_dispatched =
      metrics_.GetCounter(state.name, HookName(hook), "dispatched");
  for (uint16_t port : state.ports) {
    PortEntry entry;
    entry.policy = policy;
    entry.policy_raw = policy.get();
    entry.prog_id = static_cast<int>(prog_id);
    entry.app_dispatched = app_dispatched;
    dispatch_[HookIndex(hook)][port] = std::move(entry);
    SYRUP_TRACE(sim_.Now(), "syrupd",
                "deploy app=" << state.name << " policy=" << policy->name()
                              << " hook=" << HookName(hook)
                              << " port=" << port);
  }
  InstallStackHook(hook);
  return static_cast<int>(prog_id);
}

Status Syrupd::RemovePolicy(AppId app, Hook hook, int only_prog_id) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    return NotFoundError("unknown app");
  }
  bool removed = false;
  for (uint16_t port : it->second.ports) {
    auto& table = dispatch_[HookIndex(hook)];
    auto entry = table.find(port);
    if (entry == table.end()) {
      continue;
    }
    if (only_prog_id >= 0 && entry->second.prog_id != only_prog_id) {
      continue;  // a newer deployment replaced this one; leave it alone
    }
    table.erase(entry);
    removed = true;
  }
  if (!removed) {
    return NotFoundError("no policy deployed at hook");
  }
  MaybeUninstallStackHook(hook);
  return OkStatus();
}

StatusOr<int> Syrupd::DeployThreadPolicyFile(AppId app,
                                             std::string_view policy_source,
                                             Machine& machine,
                                             GhostConfig config) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    return NotFoundError("unknown app");
  }
  if (ghost_ != nullptr) {
    return AlreadyExistsError("machine already has a thread policy (app " +
                              std::to_string(ghost_owner_) + ")");
  }
  SYRUP_ASSIGN_OR_RETURN(
      const uint64_t prog_id,
      LoadAndCommit(app, policy_source, Hook::kThreadScheduler));
  const std::string& app_name = it->second.name;
  owned_thread_policy_ = std::make_shared<BytecodeGhostPolicy>(
      compiled_.at(prog_id), MakeExecEnv(),
      PolicyMetrics::InRegistry(metrics_, app_name,
                                HookName(Hook::kThreadScheduler)),
      facts_.at(prog_id).pure);
  ghost_ = std::make_unique<GhostScheduler>(machine, *owned_thread_policy_,
                                            config);
  ghost_->BindMetrics(metrics_, app_name);
  ghost_owner_ = app;
  machine.SetScheduler(ghost_.get());
  thread_prog_id_ = static_cast<int64_t>(prog_id);
  return static_cast<int>(prog_id);
}

void Syrupd::InstallStackHook(Hook hook) {
  auto dispatcher = [this, hook](const PacketView& pkt) {
    return Dispatch(hook, pkt);
  };
  auto batch_dispatcher = [this, hook](std::span<const PacketView> pkts,
                                       std::span<Decision> out) {
    DispatchBatch(hook, pkts, out);
  };
  StackHooks& hooks = stack_->hooks();
  StackBatchHooks& batch = stack_->batch_hooks();
  switch (hook) {
    case Hook::kXdpOffload:
      hooks.xdp_offload = dispatcher;
      batch.xdp_offload = batch_dispatcher;
      break;
    case Hook::kXdpDrv:
      hooks.xdp_drv = dispatcher;
      batch.xdp_drv = batch_dispatcher;
      break;
    case Hook::kXdpSkb:
      hooks.xdp_skb = dispatcher;
      batch.xdp_skb = batch_dispatcher;
      break;
    case Hook::kCpuRedirect:
      hooks.cpu_redirect = dispatcher;
      batch.cpu_redirect = batch_dispatcher;
      break;
    case Hook::kSocketSelect:
      hooks.socket_select = dispatcher;
      batch.socket_select = batch_dispatcher;
      break;
    case Hook::kThreadScheduler:
      SYRUP_CHECK(false) << "not a stack hook";
  }
}

void Syrupd::MaybeUninstallStackHook(Hook hook) {
  if (stack_ == nullptr || !dispatch_[HookIndex(hook)].empty()) {
    return;
  }
  StackHooks& hooks = stack_->hooks();
  StackBatchHooks& batch = stack_->batch_hooks();
  switch (hook) {
    case Hook::kXdpOffload:
      hooks.xdp_offload = nullptr;
      batch.xdp_offload = nullptr;
      break;
    case Hook::kXdpDrv:
      hooks.xdp_drv = nullptr;
      batch.xdp_drv = nullptr;
      break;
    case Hook::kXdpSkb:
      hooks.xdp_skb = nullptr;
      batch.xdp_skb = nullptr;
      break;
    case Hook::kCpuRedirect:
      hooks.cpu_redirect = nullptr;
      batch.cpu_redirect = nullptr;
      break;
    case Hook::kSocketSelect:
      hooks.socket_select = nullptr;
      batch.socket_select = nullptr;
      break;
    case Hook::kThreadScheduler: break;
  }
}

Decision Syrupd::Dispatch(Hook hook, const PacketView& pkt) {
  Decision d = kPass;
  DispatchBatch(hook, std::span<const PacketView>(&pkt, 1),
                std::span<Decision>(&d, 1));
  return d;
}

void Syrupd::DispatchBatch(Hook hook, std::span<const PacketView> pkts,
                           std::span<Decision> out) {
  SYRUP_CHECK_EQ(pkts.size(), out.size());
  for (size_t offset = 0; offset < pkts.size();
       offset += kMaxDispatchBatch) {
    const size_t n = std::min(kMaxDispatchBatch, pkts.size() - offset);
    DispatchChunk(hook, pkts.subspan(offset, n), out.subspan(offset, n));
  }
}

void Syrupd::DispatchChunk(Hook hook, std::span<const PacketView> pkts,
                           std::span<Decision> out) {
  // Pin the reclamation epoch once per chunk: every lock-free map lookup a
  // policy performs below reads slot and slab memory that writers may only
  // recycle after this guard drops. One pin per ≤64-packet chunk keeps the
  // epoch-advance rate bounded by batch rate, not packet rate.
  epoch::ReadGuard epoch_guard;
  const size_t hook_index = HookIndex(hook);
  const auto& table = dispatch_[hook_index];
  HookCells& cells = hook_cells_[hook_index];
  uint16_t last_port = 0;
  const PortEntry* last_entry = nullptr;
  bool have_last = false;
  for (size_t i = 0; i < pkts.size(); ++i) {
    const uint16_t port = pkts[i].DstPort();
    if (!have_last || port != last_port) {
      // Bursts are usually one flow's port, so most packets skip the find.
      // Policies cannot attach or detach from inside a policy, so the
      // table, and the memoized entry, are stable for the whole chunk.
      auto it = table.find(port);
      last_entry = it == table.end() ? nullptr : &it->second;
      last_port = port;
      have_last = true;
    }
    const PortEntry* entry = last_entry;
    if (entry == nullptr) {
      cells.no_policy->value += 1;
      out[i] = kPass;
      continue;
    }
    cells.dispatched->value += 1;
    entry->app_dispatched->value += 1;
    const Decision d = entry->policy_raw->Schedule(pkts[i]);
    if (d == kPass) {
      cells.decision_pass->value += 1;
    } else if (d == kDrop) {
      cells.decision_drop->value += 1;
    } else {
      cells.decision_steer->value += 1;
    }
    out[i] = d;
  }
}

std::shared_ptr<PacketPolicy> Syrupd::PolicyAt(Hook hook,
                                               uint16_t port) const {
  const auto& table = dispatch_[HookIndex(hook)];
  auto it = table.find(port);
  return it == table.end() ? nullptr : it->second.policy;
}

std::vector<DeploymentInfo> Syrupd::ListDeployments() const {
  std::vector<DeploymentInfo> out;
  for (size_t hook_index = 0; hook_index < kNumHooks; ++hook_index) {
    for (const auto& [port, entry] : dispatch_[hook_index]) {
      DeploymentInfo info;
      info.hook = HookFromIndex(hook_index);
      info.port = port;
      info.policy_name = std::string(entry.policy->name());
      for (const auto& [id, app] : apps_) {
        if (std::find(app.ports.begin(), app.ports.end(), port) !=
            app.ports.end()) {
          info.app = id;
          info.app_name = app.name;
          break;
        }
      }
      out.push_back(std::move(info));
    }
  }
  return out;
}

const bpf::AnalysisFacts* Syrupd::FactsById(uint64_t prog_id) const {
  auto it = facts_.find(prog_id);
  return it == facts_.end() ? nullptr : &it->second;
}

DeploymentAnalysis Syrupd::AnalyzeDeployments() const {
  // One record per deployed program: a prog id behind several ports is one
  // deployment.
  struct ProgRec {
    std::string label;  // app/hook/policy
    const bpf::Program* prog = nullptr;
    const bpf::AnalysisFacts* facts = nullptr;
    bool packet = true;  // false for the thread-hook program
  };
  std::map<uint64_t, ProgRec> recs;
  for (size_t hook_index = 0; hook_index < kNumHooks; ++hook_index) {
    for (const auto& [port, entry] : dispatch_[hook_index]) {
      const uint64_t id = static_cast<uint64_t>(entry.prog_id);
      auto fit = facts_.find(id);
      auto pit = programs_.find(id);
      if (fit == facts_.end() || pit == programs_.end() ||
          recs.count(id) != 0) {
        continue;
      }
      std::string app = "?";
      for (const auto& [app_id, state] : apps_) {
        if (std::find(state.ports.begin(), state.ports.end(), port) !=
            state.ports.end()) {
          app = state.name;
          break;
        }
      }
      ProgRec rec;
      rec.label = app + "/" +
                  std::string(HookName(HookFromIndex(hook_index))) + "/" +
                  pit->second->name;
      rec.prog = pit->second.get();
      rec.facts = &fit->second;
      recs.emplace(id, std::move(rec));
    }
  }
  if (thread_prog_id_ >= 0) {
    const uint64_t id = static_cast<uint64_t>(thread_prog_id_);
    auto fit = facts_.find(id);
    auto pit = programs_.find(id);
    auto ait = apps_.find(ghost_owner_);
    if (fit != facts_.end() && pit != programs_.end() &&
        recs.count(id) == 0) {
      ProgRec rec;
      rec.label = (ait != apps_.end() ? ait->second.name : "?") + "/" +
                  std::string(HookName(Hook::kThreadScheduler)) + "/" +
                  pit->second->name;
      rec.prog = pit->second.get();
      rec.facts = &fit->second;
      rec.packet = false;
      recs.emplace(id, std::move(rec));
    }
  }

  // Fold every program's read/write/atomic sets into per-map rows, keyed
  // by map identity (two programs binding the same pinned map share a row).
  std::map<const Map*, MapInterferenceRow> by_map;
  auto row_for = [&](const Map* map) -> MapInterferenceRow& {
    auto it = by_map.find(map);
    if (it == by_map.end()) {
      MapInterferenceRow row;
      row.map = registry_.PathOf(map);
      if (row.map.empty()) {
        row.map = map->spec().name;
      }
      if (row.map.empty()) {
        row.map = "map#" + std::to_string(by_map.size());
      }
      it = by_map.emplace(map, std::move(row)).first;
    }
    return it->second;
  };
  auto add_unique = [](std::vector<std::string>& v, const std::string& s) {
    if (std::find(v.begin(), v.end(), s) == v.end()) {
      v.push_back(s);
    }
  };
  for (const auto& [id, rec] : recs) {
    const auto& maps = rec.prog->maps;
    auto fold = [&](const std::vector<int32_t>& indices,
                    std::vector<std::string> MapInterferenceRow::*field) {
      for (int32_t idx : indices) {
        if (idx >= 0 && static_cast<size_t>(idx) < maps.size()) {
          add_unique(row_for(maps[idx].get()).*field, rec.label);
        }
      }
    };
    fold(rec.facts->read_maps, &MapInterferenceRow::readers);
    fold(rec.facts->write_maps, &MapInterferenceRow::writers);
    fold(rec.facts->atomic_maps, &MapInterferenceRow::atomics);
  }

  DeploymentAnalysis out;
  out.rows.reserve(by_map.size());
  for (auto& [map, row] : by_map) {
    out.rows.push_back(std::move(row));
  }
  std::sort(out.rows.begin(), out.rows.end(),
            [](const MapInterferenceRow& a, const MapInterferenceRow& b) {
              return a.map < b.map;
            });

  auto join = [](const std::vector<std::string>& v) {
    std::string s;
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s += ", ";
      s += v[i];
    }
    return s;
  };
  auto app_of = [](const std::string& label) {
    return label.substr(0, label.find('/'));
  };
  for (const MapInterferenceRow& row : out.rows) {
    if (row.writers.size() >= 2) {
      std::set<std::string> apps;
      for (const std::string& w : row.writers) {
        apps.insert(app_of(w));
      }
      InterferenceFinding f;
      f.category = "write-write";
      f.map = row.map;
      if (apps.size() >= 2) {
        f.level = InterferenceFinding::Level::kError;
        f.detail = "written by programs of " +
                   std::to_string(apps.size()) +
                   " different applications (" + join(row.writers) +
                   "): unsynchronized cross-application writes are "
                   "last-writer-wins across trust domains";
      } else {
        f.level = InterferenceFinding::Level::kWarning;
        f.detail = "written by " + std::to_string(row.writers.size()) +
                   " programs of one application (" + join(row.writers) +
                   "); writes interleave across hooks";
      }
      out.findings.push_back(std::move(f));
    }
    if (!row.writers.empty() && row.readers.empty()) {
      out.findings.push_back(InterferenceFinding{
          InterferenceFinding::Level::kWarning, "dead-telemetry", row.map,
          "written by " + join(row.writers) +
              " but read by no deployed program (userspace readers are "
              "invisible to this analysis)"});
    }
    if (!row.readers.empty() && row.writers.empty()) {
      out.findings.push_back(InterferenceFinding{
          InterferenceFinding::Level::kWarning, "stale-input", row.map,
          "read by " + join(row.readers) +
              " but written by no deployed program (userspace writers are "
              "invisible to this analysis)"});
    }
  }
  // A pure thread classifier is memoized per agent pass; an impure one
  // pays a VM run on every agent query.
  for (const auto& [id, rec] : recs) {
    if (rec.packet || rec.facts->impurities.empty()) {
      continue;
    }
    std::string detail =
        rec.label + " runs its classifier on every agent query: ";
    for (size_t i = 0; i < rec.facts->impurities.size(); ++i) {
      const bpf::Impurity& impurity = rec.facts->impurities[i];
      detail += (i == 0 ? "" : "; ") + std::string("insn ") +
                std::to_string(impurity.pc) + ": " + impurity.reason;
    }
    out.findings.push_back(InterferenceFinding{
        InterferenceFinding::Level::kInfo, "unmemoized", "",
        std::move(detail)});
  }
  std::stable_sort(out.findings.begin(), out.findings.end(),
                   [](const InterferenceFinding& a,
                      const InterferenceFinding& b) {
                     return static_cast<int>(a.level) <
                            static_cast<int>(b.level);
                   });
  return out;
}

StatusOr<int> Syrupd::MapCreate(AppId app, const MapSpec& spec,
                                const std::string& pin_path, PinMode mode) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    return NotFoundError("unknown app");
  }
  SYRUP_ASSIGN_OR_RETURN(std::shared_ptr<Map> map, CreateMap(spec));
  const std::string map_name = spec.name.empty() ? pin_path : spec.name;
  map->BindCounters(
      MapOpCounters::InRegistry(metrics_, it->second.name, map_name));
  TrackMapGauges(map, it->second.name, map_name);
  SYRUP_RETURN_IF_ERROR(registry_.Pin(pin_path, map, it->second.uid, mode));
  const int fd = next_fd_++;
  fds_[fd] = FdEntry{app, std::move(map), MapAccess::kWrite};
  return fd;
}

StatusOr<int> Syrupd::MapOpen(AppId app, const std::string& path,
                              MapAccess access) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    return NotFoundError("unknown app");
  }
  SYRUP_ASSIGN_OR_RETURN(std::shared_ptr<Map> map,
                         registry_.Open(path, it->second.uid, access));
  // First binding wins: a map pinned by its owning app already accounts
  // there; an unbound (externally created) map lands under the opener.
  const std::string map_name =
      map->spec().name.empty() ? path : map->spec().name;
  map->BindCounters(
      MapOpCounters::InRegistry(metrics_, it->second.name, map_name));
  TrackMapGauges(map, it->second.name, map_name);
  const int fd = next_fd_++;
  fds_[fd] = FdEntry{app, std::move(map), access};
  return fd;
}

void Syrupd::TrackMapGauges(const std::shared_ptr<Map>& map,
                            std::string_view app_name,
                            const std::string& map_name) {
  for (const MapGaugeEntry& entry : map_gauges_) {
    if (entry.map.lock() == map) {
      return;  // already tracked (re-opened pinned map)
    }
  }
  MapGaugeEntry entry;
  entry.map = map;
  entry.occupancy = metrics_.GetGauge(app_name, "map", map_name + ".occupancy");
  entry.max_probe_len =
      metrics_.GetGauge(app_name, "map", map_name + ".max_probe_len");
  entry.tombstones =
      metrics_.GetGauge(app_name, "map", map_name + ".tombstones");
  entry.epoch_lag = metrics_.GetGauge(app_name, "map", map_name + ".epoch_lag");
  map_gauges_.push_back(std::move(entry));
}

void Syrupd::RefreshMapGauges() const {
  std::erase_if(map_gauges_, [](const MapGaugeEntry& entry) {
    std::shared_ptr<Map> map = entry.map.lock();
    if (map == nullptr) {
      return true;  // map died; drop the row, gauges keep their last value
    }
    const MapRuntimeStats stats = map->RuntimeStats();
    entry.occupancy->Set(static_cast<int64_t>(stats.occupancy));
    entry.max_probe_len->Set(static_cast<int64_t>(stats.max_probe_len));
    entry.tombstones->Set(static_cast<int64_t>(stats.tombstones));
    entry.epoch_lag->Set(static_cast<int64_t>(stats.epoch_lag));
    return false;
  });
}

Status Syrupd::MapClose(int fd) {
  return fds_.erase(fd) > 0 ? OkStatus() : NotFoundError("bad map fd");
}

StatusOr<uint64_t> Syrupd::MapLookupElem(int fd, uint32_t key) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return NotFoundError("bad map fd");
  }
  return it->second.map->LookupU64(key);
}

Status Syrupd::MapUpdateElem(int fd, uint32_t key, uint64_t value) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return NotFoundError("bad map fd");
  }
  if (it->second.access == MapAccess::kRead) {
    return PermissionDeniedError("map fd is read-only");
  }
  return it->second.map->UpdateU64(key, value);
}

MapAccess Syrupd::MapFdAccess(int fd) const {
  auto it = fds_.find(fd);
  return it == fds_.end() ? MapAccess::kWrite : it->second.access;
}

std::shared_ptr<Map> Syrupd::MapByFd(int fd) const {
  auto it = fds_.find(fd);
  return it == fds_.end() ? nullptr : it->second.map;
}

}  // namespace syrup
