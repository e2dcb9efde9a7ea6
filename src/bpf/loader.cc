#include "src/bpf/loader.h"

#include <chrono>
#include <string>
#include <utility>

#include "src/bpf/jit.h"

namespace syrup::bpf {
namespace {

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StatusOr<LoadedProgram> Load(std::string_view source,
                             const LoadOptions& options) {
  SYRUP_ASSIGN_OR_RETURN(AssembledProgram assembled, Assemble(source));
  if (assembled.context != options.context) {
    return InvalidArgumentError(options.context == ProgramContext::kPacket
                                    ? "packet hook requires .ctx packet"
                                    : "thread hook requires .ctx thread");
  }

  LoadedProgram out;
  auto program = std::make_shared<Program>();
  program->name = std::move(assembled.name);
  program->insns = std::move(assembled.insns);
  program->maps.reserve(assembled.map_slots.size());
  for (const MapSlot& slot : assembled.map_slots) {
    std::shared_ptr<Map> map;
    if (options.resolve) {
      SYRUP_ASSIGN_OR_RETURN(map, options.resolve(slot));
    }
    if (map == nullptr) {
      if (slot.is_extern) {
        return NotFoundError("extern map '" + slot.name + "' (" + slot.path +
                             ") is not bound to a map");
      }
      SYRUP_ASSIGN_OR_RETURN(map, CreateMap(slot.spec));
      out.created_maps.push_back(
          static_cast<uint32_t>(program->maps.size()));
    }
    program->maps.push_back(std::move(map));
  }

  // The verifier gate: an unverifiable program never runs. Its facts let
  // the compiler drop verifier-proven-dead code and decided branches.
  SYRUP_RETURN_IF_ERROR(Verify(*program, options.context, {}, &out.stats,
                               &out.facts));

  const uint64_t t0 = WallNowNs();
  CompileOptions compile_options;
  compile_options.assume_verified = true;  // just verified above
  compile_options.facts = &out.facts;
  SYRUP_ASSIGN_OR_RETURN(CompiledProgram compiled,
                         Compile(*program, options.context, compile_options));
  if (options.mode == ExecMode::kNative) {
    // Machine-code lowering is best effort: an unsupported host or program
    // (or SYRUP_JIT_DISABLE) leaves `native` null, and the artifact runs on
    // the compiled tier (EffectiveExecMode reports which).
    auto native = JitCompile(compiled);
    if (native.ok()) {
      compiled.native = std::move(native).value();
    }
  }
  out.compile_ns = WallNowNs() - t0;
  out.compiled = std::make_shared<const CompiledProgram>(std::move(compiled));
  out.program = std::move(program);
  return out;
}

}  // namespace syrup::bpf
