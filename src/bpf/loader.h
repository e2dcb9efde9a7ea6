// The one load pipeline for policy text: assemble → map resolution →
// verify → compile, with machine code (best effort) on the native tier.
// Syrupd's packet and thread deploys build their programs here, and so do
// the hosts that run policies without a daemon (the ToR switch's tenant
// programs, the storage IoScheduler).
//
// Loading leaves no visible state behind: a declared map the caller's
// resolver does not supply is created fresh and unpinned, and nothing is
// registered anywhere. A caller that publishes the result (syrupd pins the
// fresh maps and spends a prog id) does so after Load returns, so a
// rejected load, at any stage, frees everything it made.
#ifndef SYRUP_SRC_BPF_LOADER_H_
#define SYRUP_SRC_BPF_LOADER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/bpf/assembler.h"
#include "src/bpf/compiler.h"
#include "src/bpf/cost_model.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/common/status.h"
#include "src/map/map.h"

namespace syrup::bpf {

// Supplies the map behind one slot: an existing map, or nullptr to have
// the loader create a fresh one from a declared slot's spec. An extern slot
// must be supplied. An error fails the load.
using MapResolver =
    std::function<StatusOr<std::shared_ptr<Map>>(const MapSlot& slot)>;

struct LoadOptions {
  // The context the program must declare (`.ctx`), and verify under.
  ProgramContext context = ProgramContext::kPacket;
  // kNative also lowers the compiled form to machine code where the JIT
  // can; elsewhere the artifact runs on the compiled tier.
  ExecMode mode = ExecMode::kCompiled;
  // Unset: every declared slot gets a fresh map, and an extern slot fails.
  MapResolver resolve;
};

struct LoadedProgram {
  std::shared_ptr<const Program> program;  // maps resolved
  std::shared_ptr<const CompiledProgram> compiled;
  VerifierStats stats;
  AnalysisFacts facts;
  uint64_t compile_ns = 0;  // wall time of the compile (and JIT) step
  // Indices into program->maps of the maps the loader created. Each one's
  // spec().name is its slot's name.
  std::vector<uint32_t> created_maps;
};

// Runs the pipeline on untrusted policy text. Rejections (assembler, map
// spec, extern resolution, verifier, compiler) come back as a Status.
StatusOr<LoadedProgram> Load(std::string_view source,
                             const LoadOptions& options);

}  // namespace syrup::bpf

#endif  // SYRUP_SRC_BPF_LOADER_H_
