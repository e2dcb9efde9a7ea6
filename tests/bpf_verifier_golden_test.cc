// Pins what the verifier concludes, independent of how it explores: for
// every builtin policy generator at several sizes and every shipped example
// policy, the Verify verdict and first-error text, the exploration stats,
// the analysis facts (visited, edges, purity, map sets, impurities), the
// cost facts (hex floats, so doubles compare bit for bit) and VerifyAll's
// diagnostics. tests/goldens/verifier_facts.txt holds the expected text.
//
// On a mismatch the test writes what it computed to
// verifier_facts.actual.txt in its working directory and names the first
// line that differs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/bpf/assembler.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/map/map.h"
#include "src/policies/builtin.h"

namespace syrup::bpf {
namespace {

struct Case {
  std::string label;
  std::string source;
};

std::vector<Case> Cases() {
  constexpr char kPin[] = "/syrup/golden/map";
  std::vector<Case> cases;
  for (uint32_t n : {4u, 6u, 32u, 36u}) {
    const std::string at = "(" + std::to_string(n) + ")";
    cases.push_back({"RoundRobinPolicyAsm" + at, RoundRobinPolicyAsm(n)});
    cases.push_back({"HashPolicyAsm" + at, HashPolicyAsm(n)});
    cases.push_back({"ScanAvoidPolicyAsm" + at, ScanAvoidPolicyAsm(n)});
    cases.push_back({"SitaPolicyAsm" + at, SitaPolicyAsm(n)});
    cases.push_back(
        {"LeastLoadedPolicyAsm" + at, LeastLoadedPolicyAsm(n, kPin)});
    cases.push_back(
        {"PowerOfTwoPolicyAsm" + at, PowerOfTwoPolicyAsm(n, kPin)});
    cases.push_back({"MicaHomePolicyAsm" + at, MicaHomePolicyAsm(n)});
    cases.push_back({"VarHeaderPolicyAsm" + at, VarHeaderPolicyAsm(n)});
  }
  cases.push_back({"TokenPolicyAsm()", TokenPolicyAsm()});
  cases.push_back({"ConstIndexPolicyAsm(0)", ConstIndexPolicyAsm(0)});
  cases.push_back(
      {"GetPriorityThreadPolicyAsm", GetPriorityThreadPolicyAsm(kPin)});
  // The cheap edge reaches `join` first, so the expensive one is pruned
  // there by a state that does not cost-dominate it: the cost facts need
  // a cost walk of their own.
  cases.push_back({"cheap_edge_first", R"(
.name cheap_edge_first
.ctx packet
  call get_prandom_u32
  jne r0, 0, expensive
  ja join
expensive:
  mov r1, 1
  mov r1, 2
join:
  mov r0, 0
  exit
)"});

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(SYRUP_SOURCE_DIR) + "/examples/policies")) {
    if (entry.path().extension() == ".s") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    cases.push_back({file.filename().string(), buffer.str()});
  }
  return cases;
}

// Materializes map slots the way `syrupctl lint`/`cost` do: an extern map
// (bound at deploy time) becomes a 1024-entry hash map.
Program Build(const AssembledProgram& assembled) {
  Program prog;
  prog.name = assembled.name;
  prog.insns = assembled.insns;
  for (const MapSlot& slot : assembled.map_slots) {
    MapSpec spec = slot.spec;
    if (slot.is_extern) {
      spec = MapSpec{};
      spec.type = MapType::kHash;
      spec.max_entries = 1024;
    }
    prog.maps.push_back(CreateMap(spec).value());
  }
  return prog;
}

std::string Hex(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", d);
  return buf;
}

void DumpStats(std::ostream& out, const VerifierStats& stats) {
  out << "  stats visited=" << stats.visited_insns
      << " branch=" << stats.branch_states
      << " pruned=" << stats.pruned_states << "\n";
}

void DumpMaps(std::ostream& out, const char* label,
              const std::vector<int32_t>& maps) {
  out << "  " << label;
  for (int32_t m : maps) out << " " << m;
  out << "\n";
}

void DumpFacts(std::ostream& out, const AnalysisFacts& facts) {
  out << "  visited ";
  for (uint8_t v : facts.visited) out << static_cast<int>(v);
  out << "\n  edges ";
  for (uint8_t e : facts.edges) out << static_cast<int>(e);
  out << "\n  pure " << facts.pure << "\n";
  DumpMaps(out, "read_maps", facts.read_maps);
  DumpMaps(out, "write_maps", facts.write_maps);
  DumpMaps(out, "atomic_maps", facts.atomic_maps);
  for (const Impurity& impurity : facts.impurities) {
    out << "  impurity " << impurity.pc << " " << impurity.reason << "\n";
  }
  const CostFacts& cost = facts.cost;
  out << "  cost bounded=" << cost.bounded
      << " tail_call=" << cost.has_tail_call
      << " wcet_insns=" << cost.wcet_insns
      << " best_insns=" << cost.best_insns;
  for (size_t t = 0; t < kNumExecModes; ++t) {
    out << " wcet_ns[" << t << "]=" << Hex(cost.wcet_ns[t]) << " best_ns["
        << t << "]=" << Hex(cost.best_ns[t]);
  }
  out << "\n  hottest_path";
  for (uint32_t pc : cost.hottest_path) out << " " << pc;
  out << "\n";
}

std::string Dump(const Case& c) {
  std::ostringstream out;
  out << "== " << c.label << "\n";
  auto assembled = Assemble(c.source);
  if (!assembled.ok()) {
    out << "  assemble " << assembled.status() << "\n";
    return out.str();
  }
  const Program prog = Build(*assembled);
  out << "  context "
      << (assembled->context == ProgramContext::kPacket ? "packet" : "thread")
      << " insns=" << prog.insns.size() << "\n";

  VerifierStats stats;
  AnalysisFacts facts;
  const Status status =
      Verify(prog, assembled->context, {}, &stats, &facts);
  out << "verify " << (status.ok() ? "OK" : status.ToString()) << "\n";
  DumpStats(out, stats);
  if (status.ok()) DumpFacts(out, facts);

  const VerifyReport report = VerifyAll(prog, assembled->context);
  out << "verify_all " << (report.ok() ? "OK" : "REJECTED") << "\n";
  DumpStats(out, report.stats);
  for (const Diagnostic& d : report.diagnostics) {
    out << "  " << FormatDiagnostic(d, report.program) << "\n";
  }
  if (report.ok()) DumpFacts(out, report.facts);
  return out.str();
}

TEST(VerifierGolden, AnswersMatchTheRecordedFacts) {
  std::string actual;
  for (const Case& c : Cases()) actual += Dump(c);

  const std::string golden_path =
      std::string(SYRUP_SOURCE_DIR) + "/tests/goldens/verifier_facts.txt";
  std::ifstream in(golden_path);
  std::stringstream golden;
  golden << in.rdbuf();
  if (actual == golden.str()) return;

  std::ofstream("verifier_facts.actual.txt") << actual;
  std::istringstream a(actual);
  std::istringstream g(golden.str());
  std::string al;
  std::string gl;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, al));
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    if (!more_a && !more_g) break;
    if (!more_a || !more_g || al != gl) {
      ADD_FAILURE() << golden_path << " line " << line << " differs\n"
                    << "  expected: " << (more_g ? gl : "<end of file>")
                    << "\n  actual:   " << (more_a ? al : "<end of file>")
                    << "\n(full output in verifier_facts.actual.txt)";
      return;
    }
  }
}

}  // namespace
}  // namespace syrup::bpf
