// Policy playground: assemble, verify, and dry-run a Syrup policy file.
//
// Usage:
//   ./build/examples/policy_playground            # run the built-in demo
//   ./build/examples/policy_playground policy.s   # try your own policy
//
// The tool shows exactly what syrupd does before a policy reaches a hook —
// including the verifier rejecting unsafe programs with a precise reason —
// then executes accepted policies against a batch of sample packets.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/bpf/assembler.h"
#include "src/bpf/compiler.h"
#include "src/bpf/verifier.h"
#include "src/common/decision.h"
#include "src/common/rng.h"
#include "src/map/map.h"
#include "src/net/packet.h"

namespace {

constexpr char kDemoPolicy[] = R"(
; Demo: steer SCANs (type 2) to socket 0, spread GETs over sockets 1-5.
.name demo_sita
.ctx packet
.map state array 4 8 1
  mov r3, r1
  add r3, 16
  jgt r3, r2, pass
  ldxdw r4, [r1+8]
  jne r4, 2, get
  mov r0, 0
  exit
get:
  mov r6, 0
  stxw [r10-4], r6
  ldmapfd r1, state
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jeq r0, 0, pass
  ldxdw r6, [r0+0]
  add r6, 1
  stxdw [r0+0], r6
  mod r6, 5
  add r6, 1
  mov r0, r6
  exit
pass:
  mov r0, PASS
  exit
)";

// A broken policy, to demo the verifier: reads packet bytes with no bounds
// check (this is what an exploit attempt or an honest bug looks like).
constexpr char kBrokenPolicy[] = R"(
.name oops_no_bounds_check
.ctx packet
  ldxdw r0, [r1+8]
  exit
)";

void TryPolicy(const std::string& source) {
  using namespace syrup;
  auto assembled = bpf::Assemble(source);
  if (!assembled.ok()) {
    std::printf("  assembler: %s\n", assembled.status().ToString().c_str());
    return;
  }
  std::printf("  assembled '%s': %zu instructions, %zu map(s)\n",
              assembled->name.c_str(), assembled->insns.size(),
              assembled->map_slots.size());

  auto program = std::make_shared<bpf::Program>();
  program->name = assembled->name;
  program->insns = assembled->insns;
  for (const bpf::MapSlot& slot : assembled->map_slots) {
    MapSpec spec = slot.spec;
    if (slot.is_extern) {
      std::printf("  (extern map '%s' bound to a fresh map for the dry "
                  "run)\n", slot.name.c_str());
      spec = MapSpec{};
      spec.type = MapType::kHash;
      spec.max_entries = 1024;
    }
    auto map = CreateMap(spec);
    if (!map.ok()) {
      std::printf("  map spec: %s\n", map.status().ToString().c_str());
      return;
    }
    program->maps.push_back(std::move(map).value());
  }

  bpf::VerifierStats stats;
  bpf::AnalysisFacts facts;
  const Status verdict =
      bpf::Verify(*program, bpf::ProgramContext::kPacket, {}, &stats, &facts);
  if (!verdict.ok()) {
    std::printf("  REJECTED by verifier:\n    %s\n",
                verdict.ToString().c_str());
    return;
  }
  std::printf("  verified OK (%llu abstract instructions explored)\n",
              static_cast<unsigned long long>(stats.visited_insns));

  // Compile it as syrupd's attach step does, then dry-run the compiled
  // tier against sample packets.
  bpf::CompileOptions options;
  options.assume_verified = true;
  options.facts = &facts;
  auto compiled =
      bpf::Compile(*program, bpf::ProgramContext::kPacket, options);
  if (!compiled.ok()) {
    std::printf("  compile: %s\n", compiled.status().ToString().c_str());
    return;
  }
  Rng rng(1);
  bpf::ExecEnv env;
  env.random_u32 = [&rng]() { return static_cast<uint32_t>(rng.Next()); };
  env.ktime_ns = []() { return 0u; };
  bpf::CompiledExecutor exec(env);
  std::printf("  dry run (compiled tier, %zu insns after folding):\n",
              compiled->stats.output_insns);
  for (int i = 0; i < 8; ++i) {
    Packet pkt;
    pkt.tuple.src_port = static_cast<uint16_t>(20'000 + i);
    pkt.tuple.dst_port = 9000;
    const ReqType type = i % 4 == 3 ? ReqType::kScan : ReqType::kGet;
    pkt.SetHeader(type, 1, static_cast<uint32_t>(rng.Next()), i, 0);
    auto result = exec.Run(
        *compiled, reinterpret_cast<uint64_t>(pkt.wire.data()),
        reinterpret_cast<uint64_t>(pkt.wire.data() + kWireSize), true);
    if (!result.ok()) {
      std::printf("    pkt %d: runtime fault: %s\n", i,
                  result.status().ToString().c_str());
      continue;
    }
    const auto decision = static_cast<uint32_t>(result->r0);
    std::string text = decision == syrup::kPass   ? "PASS"
                       : decision == syrup::kDrop ? "DROP"
                                           : std::to_string(decision);
    std::printf("    pkt %d (%-4s) -> executor %s   [%llu insns]\n", i,
                type == ReqType::kScan ? "SCAN" : "GET", text.c_str(),
                static_cast<unsigned long long>(result->insns_executed));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    std::printf("policy file %s:\n", argv[1]);
    TryPolicy(buffer.str());
    return 0;
  }
  std::printf("1) a correct policy (SITA-style):\n");
  TryPolicy(kDemoPolicy);
  std::printf("\n2) a broken policy (missing bounds check):\n");
  TryPolicy(kBrokenPolicy);
  std::printf("\ntip: pass a policy file path to try your own.\n");
  return 0;
}
