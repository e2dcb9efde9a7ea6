#include "src/core/syrupd.h"

#include <algorithm>
#include <chrono>
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

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string FormatNs(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ns);
  return buf;
}

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
  env.resolve_program = [this](uint64_t prog_id) {
    return ProgramById(prog_id);
  };
  // Compiled tail calls resolve against the attach-time cache; a target
  // loaded before the daemon switched to a compiled mode (so never
  // compiled) is compiled on first use, keeping tail-call chains on one
  // tier.
  env.resolve_compiled = [this](uint64_t prog_id) {
    const bpf::CompiledProgram* compiled = CompiledById(prog_id);
    if (compiled != nullptr) {
      return compiled;
    }
    auto it = programs_.find(prog_id);
    if (it == programs_.end() || exec_mode_ == bpf::ExecMode::kInterpret) {
      return static_cast<const bpf::CompiledProgram*>(nullptr);
    }
    auto entry = CompileForCurrentMode(*it->second, bpf::ProgramContext::kPacket);
    if (!entry.ok()) {
      return static_cast<const bpf::CompiledProgram*>(nullptr);
    }
    compiled_[prog_id] = std::move(entry).value();
    return static_cast<const bpf::CompiledProgram*>(
        compiled_[prog_id].get());
  };
  return env;
}

StatusOr<std::shared_ptr<const bpf::CompiledProgram>>
Syrupd::CompileForCurrentMode(const bpf::Program& program,
                              bpf::ProgramContext context,
                              const bpf::AnalysisFacts* facts) {
  bpf::CompileOptions options;
  // The deploy pipeline verified the program right before this call.
  options.assume_verified = true;
  options.facts = facts;
  SYRUP_ASSIGN_OR_RETURN(bpf::CompiledProgram compiled,
                         bpf::Compile(program, context, options));
  if (exec_mode_ == bpf::ExecMode::kNative) {
    // Machine-code lowering is best effort: an unsupported host or program
    // (or SYRUP_JIT_DISABLE) leaves `native` null and the artifact runs on
    // the compiled tier. EmitExecTierMetrics reports whichever happened.
    auto native = bpf::JitCompile(compiled);
    if (native.ok()) {
      compiled.native = std::move(native).value();
    }
  }
  return std::make_shared<const bpf::CompiledProgram>(std::move(compiled));
}

void Syrupd::EmitExecTierMetrics(const std::string& app_name,
                                 std::string_view hook_name,
                                 const bpf::CompiledProgram* compiled) {
  metrics_.GetGauge(app_name, hook_name, "policy.exec_mode")
      ->Set(static_cast<int64_t>(bpf::EffectiveExecMode(compiled)));
  if (compiled != nullptr && compiled->native != nullptr) {
    const bpf::JitStats& jit = compiled->native->stats();
    metrics_.GetGauge(app_name, hook_name, "policy.jit_ns")
        ->Set(static_cast<int64_t>(jit.jit_ns));
    metrics_.GetGauge(app_name, hook_name, "policy.jit_code_bytes")
        ->Set(static_cast<int64_t>(jit.code_bytes));
  }
}

void Syrupd::EmitVerifierMetrics(const std::string& app_name,
                                 std::string_view hook_name,
                                 const bpf::VerifierStats& stats) {
  metrics_.GetGauge(app_name, hook_name, "verifier.visited_insns")
      ->Set(static_cast<int64_t>(stats.visited_insns));
  metrics_.GetGauge(app_name, hook_name, "verifier.branch_states")
      ->Set(static_cast<int64_t>(stats.branch_states));
  metrics_.GetGauge(app_name, hook_name, "verifier.pruned_states")
      ->Set(static_cast<int64_t>(stats.pruned_states));
  metrics_.GetGauge(app_name, hook_name, "verifier.verify_ns")
      ->Set(static_cast<int64_t>(stats.verify_ns));
}

Status Syrupd::EnforceCostBudget(const std::string& app_name, Hook hook,
                                 const bpf::Program& prog,
                                 const bpf::AnalysisFacts& facts,
                                 const bpf::CompiledProgram* compiled) {
  const std::string_view hook_name = HookName(hook);
  const bpf::ExecMode tier = bpf::EffectiveExecMode(compiled);
  const bpf::CostFacts& cost = facts.cost;
  const double wcet_ns =
      cost.bounded ? cost.wcet_ns[static_cast<size_t>(tier)] : 0.0;
  // -1 on the gauges means "no bound": the cost pass was disabled or gave
  // up (exploration budget), so no wcet exists to report.
  metrics_.GetGauge(app_name, hook_name, "policy.wcet_ns")
      ->Set(cost.bounded ? std::llround(wcet_ns) : -1);
  metrics_.GetGauge(app_name, hook_name, "policy.wcet_insns")
      ->Set(cost.bounded ? static_cast<int64_t>(cost.wcet_insns) : -1);

  const double budget = cost_budget_config_.BudgetFor(hook);
  const bool over = !cost.bounded || wcet_ns > budget;
  metrics_.GetGauge(app_name, hook_name, "policy.over_budget")
      ->Set(over ? 1 : 0);
  const bool warn = cost.bounded && !over &&
                    wcet_ns > budget * cost_budget_config_.warn_fraction;
  metrics_.GetGauge(app_name, hook_name, "policy.budget_warn")
      ->Set(warn ? 1 : 0);
  if (!cost_budget_config_.enforce) {
    return OkStatus();
  }
  if (warn) {
    SYRUP_LOG(Warning) << "policy '" << prog.name << "' at " << hook_name
                       << " uses " << FormatNs(wcet_ns) << " of "
                       << FormatNs(budget) << " ns budget worst case ("
                       << FormatNs(100.0 * wcet_ns / budget)
                       << "%); consider a cheaper policy or a looser hook";
  }
  if (!over) {
    return OkStatus();
  }
  std::string what;
  if (!cost.bounded) {
    what = "policy '" + prog.name +
           "' rejected at hook " + std::string(hook_name) +
           ": the cost analysis could not bound its worst-case path, so "
           "the " + FormatNs(budget) + " ns hook budget cannot be proven";
  } else {
    what = "policy '" + prog.name + "' rejected at hook " +
           std::string(hook_name) + ": worst-case path costs " +
           FormatNs(wcet_ns) + " ns at the " +
           std::string(bpf::ExecModeName(tier)) + " tier, over the " +
           FormatNs(budget) + " ns budget; hottest path: " +
           bpf::FormatPath(cost.hottest_path) +
           " (run `syrupctl cost` for the disassembly)";
  }
  if (cost_budget_config_.admit_over_budget) {
    SYRUP_LOG(Warning) << what
                       << " -- admitted anyway (admit_over_budget set)";
    return OkStatus();
  }
  return InvalidArgumentError(
      what + "; set CostBudgetConfig.admit_over_budget to override");
}

const bpf::Program* Syrupd::ProgramById(uint64_t prog_id) const {
  auto it = programs_.find(prog_id);
  return it == programs_.end() ? nullptr : it->second.get();
}

const bpf::CompiledProgram* Syrupd::CompiledById(uint64_t prog_id) const {
  auto it = compiled_.find(prog_id);
  return it == compiled_.end() ? nullptr : it->second.get();
}

StatusOr<std::vector<std::shared_ptr<Map>>> Syrupd::ResolveMapSlots(
    AppId app, const std::vector<bpf::MapSlot>& slots) {
  const AppState& state = apps_.at(app);
  std::vector<std::shared_ptr<Map>> maps;
  maps.reserve(slots.size());
  for (const bpf::MapSlot& slot : slots) {
    if (slot.is_extern) {
      SYRUP_ASSIGN_OR_RETURN(
          std::shared_ptr<Map> map,
          registry_.Open(slot.path, state.uid, MapAccess::kWrite));
      maps.push_back(std::move(map));
      continue;
    }
    const std::string pin_path = "/syrup/" + state.name + "/" + slot.name;
    // Re-deploying a policy reuses its existing pinned maps so state (e.g.
    // token counts) survives policy updates, as with bpffs pins.
    auto existing = registry_.Open(pin_path, state.uid, MapAccess::kWrite);
    if (existing.ok()) {
      maps.push_back(std::move(existing).value());
      continue;
    }
    SYRUP_ASSIGN_OR_RETURN(std::shared_ptr<Map> map, CreateMap(slot.spec));
    map->BindCounters(
        MapOpCounters::InRegistry(metrics_, state.name, slot.name));
    SYRUP_RETURN_IF_ERROR(registry_.Pin(pin_path, map, state.uid));
    maps.push_back(std::move(map));
  }
  return maps;
}

StatusOr<int> Syrupd::DeployPolicyFile(AppId app,
                                       std::string_view policy_source,
                                       Hook hook) {
  if (apps_.find(app) == apps_.end()) {
    return NotFoundError("unknown app");
  }
  if (!IsPacketHook(hook)) {
    return InvalidArgumentError(
        "thread policies deploy via DeployThreadPolicy");
  }

  SYRUP_ASSIGN_OR_RETURN(bpf::AssembledProgram assembled,
                         bpf::Assemble(policy_source));
  if (assembled.context != bpf::ProgramContext::kPacket) {
    return InvalidArgumentError("packet hook requires .ctx packet");
  }
  SYRUP_ASSIGN_OR_RETURN(std::vector<std::shared_ptr<Map>> maps,
                         ResolveMapSlots(app, assembled.map_slots));

  auto program = std::make_shared<bpf::Program>();
  program->name = assembled.name;
  program->insns = std::move(assembled.insns);
  program->maps = std::move(maps);

  // The verifier gate: unverifiable programs never reach a hook. The
  // exploration stats become per-program gauges and the analysis facts
  // feed the compile below.
  bpf::VerifierStats vstats;
  bpf::AnalysisFacts vfacts;
  SYRUP_RETURN_IF_ERROR(bpf::Verify(*program, bpf::ProgramContext::kPacket,
                                    {}, &vstats, &vfacts));

  // Compile once at attach time; every dispatch then runs the pre-decoded
  // form. Interpret mode (ablation) skips this and keeps the artifact out
  // of the tail-call cache.
  const std::string& app_name = apps_.at(app).name;
  EmitVerifierMetrics(app_name, HookName(hook), vstats);
  std::shared_ptr<const bpf::CompiledProgram> compiled;
  if (exec_mode_ != bpf::ExecMode::kInterpret) {
    const uint64_t t0 = WallNowNs();
    SYRUP_ASSIGN_OR_RETURN(
        compiled,
        CompileForCurrentMode(*program, bpf::ProgramContext::kPacket,
                              &vfacts));
    metrics_.GetGauge(app_name, HookName(hook), "policy.compile_ns")
        ->Set(static_cast<int64_t>(WallNowNs() - t0));
  }
  EmitExecTierMetrics(app_name, HookName(hook), compiled.get());
  // The budget gate: a program whose verifier-proven worst-case path is
  // too slow for this hook never reaches it (unless overridden).
  SYRUP_RETURN_IF_ERROR(
      EnforceCostBudget(app_name, hook, *program, vfacts, compiled.get()));

  const uint64_t prog_id = next_prog_id_++;
  programs_[prog_id] = program;
  if (compiled != nullptr) {
    compiled_[prog_id] = compiled;
  }
  facts_[prog_id] = vfacts;

  auto policy = std::make_shared<BytecodePacketPolicy>(
      program, MakeExecEnv(),
      PolicyMetrics::InRegistry(metrics_, app_name, HookName(hook)),
      compiled);
  SYRUP_RETURN_IF_ERROR(AttachPolicy(app, std::move(policy), hook,
                                     static_cast<int>(prog_id)));
  return static_cast<int>(prog_id);
}

StatusOr<int> Syrupd::DeployNativePolicy(AppId app,
                                         std::shared_ptr<PacketPolicy> policy,
                                         Hook hook) {
  const int prog_id = static_cast<int>(next_prog_id_++);
  SYRUP_RETURN_IF_ERROR(AttachPolicy(app, std::move(policy), hook, prog_id));
  return prog_id;
}

Status Syrupd::AttachPolicy(AppId app, std::shared_ptr<PacketPolicy> policy,
                            Hook hook, int prog_id) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    return NotFoundError("unknown app");
  }
  if (!IsPacketHook(hook)) {
    return InvalidArgumentError("not a packet hook");
  }
  if (policy == nullptr) {
    return InvalidArgumentError("null policy");
  }
  // The dispatcher routes by destination port, so installing the policy for
  // each of the app's ports is exactly the paper's "each application's
  // program handles only packets directed to its corresponding port".
  std::shared_ptr<obs::Counter> app_dispatched =
      metrics_.GetCounter(it->second.name, HookName(hook), "dispatched");
  for (uint16_t port : it->second.ports) {
    PortEntry entry;
    entry.policy = policy;
    entry.policy_raw = policy.get();
    entry.prog_id = prog_id;
    entry.app_dispatched = app_dispatched;
    dispatch_[HookIndex(hook)][port] = std::move(entry);
    SYRUP_TRACE(sim_.Now(), "syrupd",
                "deploy app=" << it->second.name << " policy="
                              << policy->name() << " hook="
                              << HookName(hook) << " port=" << port);
  }
  SYRUP_RETURN_IF_ERROR(InstallStackHook(hook));
  return OkStatus();
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

Status Syrupd::DeployThreadPolicy(AppId app, GhostPolicy* policy,
                                  Machine& machine, GhostConfig config) {
  if (apps_.find(app) == apps_.end()) {
    return NotFoundError("unknown app");
  }
  if (policy == nullptr) {
    return InvalidArgumentError("null thread policy");
  }
  SYRUP_RETURN_IF_ERROR(CheckThreadHookFree());
  ghost_ = std::make_unique<GhostScheduler>(machine, *policy, config);
  ghost_->BindMetrics(metrics_, apps_.at(app).name);
  ghost_owner_ = app;
  machine.SetScheduler(ghost_.get());
  return OkStatus();
}

Status Syrupd::CheckThreadHookFree() const {
  if (ghost_ != nullptr) {
    return AlreadyExistsError("machine already has a thread policy (app " +
                              std::to_string(ghost_owner_) + ")");
  }
  return OkStatus();
}

StatusOr<int> Syrupd::DeployThreadPolicyFile(AppId app,
                                             std::string_view policy_source,
                                             Machine& machine,
                                             GhostConfig config) {
  if (apps_.find(app) == apps_.end()) {
    return NotFoundError("unknown app");
  }
  // Rejected before any work that leaves a trace: pinned maps, a prog id,
  // or the live deployment's verifier and cost gauges.
  SYRUP_RETURN_IF_ERROR(CheckThreadHookFree());
  SYRUP_ASSIGN_OR_RETURN(bpf::AssembledProgram assembled,
                         bpf::Assemble(policy_source));
  if (assembled.context != bpf::ProgramContext::kThread) {
    return InvalidArgumentError("thread hook requires .ctx thread");
  }
  SYRUP_ASSIGN_OR_RETURN(std::vector<std::shared_ptr<Map>> maps,
                         ResolveMapSlots(app, assembled.map_slots));

  auto program = std::make_shared<bpf::Program>();
  program->name = assembled.name;
  program->insns = std::move(assembled.insns);
  program->maps = std::move(maps);

  bpf::VerifierStats vstats;
  bpf::AnalysisFacts vfacts;
  SYRUP_RETURN_IF_ERROR(bpf::Verify(*program, bpf::ProgramContext::kThread,
                                    {}, &vstats, &vfacts));

  const std::string& app_name = apps_.at(app).name;
  const std::string_view hook_name = HookName(Hook::kThreadScheduler);
  EmitVerifierMetrics(app_name, hook_name, vstats);
  std::shared_ptr<const bpf::CompiledProgram> compiled;
  if (exec_mode_ != bpf::ExecMode::kInterpret) {
    const uint64_t t0 = WallNowNs();
    SYRUP_ASSIGN_OR_RETURN(
        compiled,
        CompileForCurrentMode(*program, bpf::ProgramContext::kThread,
                              &vfacts));
    metrics_.GetGauge(app_name, hook_name, "policy.compile_ns")
        ->Set(static_cast<int64_t>(WallNowNs() - t0));
  }
  EmitExecTierMetrics(app_name, hook_name, compiled.get());
  SYRUP_RETURN_IF_ERROR(EnforceCostBudget(app_name, Hook::kThreadScheduler,
                                          *program, vfacts,
                                          compiled.get()));

  const uint64_t prog_id = next_prog_id_++;
  programs_[prog_id] = program;
  if (compiled != nullptr) {
    compiled_[prog_id] = compiled;
  }
  facts_[prog_id] = vfacts;

  auto policy = std::make_shared<BytecodeGhostPolicy>(
      program, MakeExecEnv(),
      PolicyMetrics::InRegistry(metrics_, app_name, hook_name), compiled,
      vfacts.pure);
  SYRUP_RETURN_IF_ERROR(
      DeployThreadPolicy(app, policy.get(), machine, config));
  owned_thread_policy_ = std::move(policy);
  thread_prog_id_ = static_cast<int64_t>(prog_id);
  return static_cast<int>(prog_id);
}

Status Syrupd::InstallStackHook(Hook hook) {
  if (stack_ == nullptr) {
    return FailedPreconditionError("syrupd has no host stack attached");
  }
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
      return InvalidArgumentError("not a stack hook");
  }
  return OkStatus();
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
  // One record per deployed bytecode program: a prog id behind several
  // ports is one deployment, and native policies (no verifier facts) are
  // outside the analysis.
  struct ProgRec {
    std::string label;  // app/hook/policy
    const bpf::Program* prog = nullptr;
    const bpf::AnalysisFacts* facts = nullptr;
    bool packet = true;  // false for the thread-hook program
  };
  std::map<uint64_t, ProgRec> recs;
  for (size_t hook_index = 0; hook_index < kNumHooks; ++hook_index) {
    for (const auto& [port, entry] : dispatch_[hook_index]) {
      if (entry.prog_id < 0) {
        continue;
      }
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
