// Deploy-path mutation fuzz: a tenant's policy file is untrusted input, so
// no single edit of a real policy may abort, throw or corrupt memory in
// syrupd.
//
// Seeds are the shipping example policies (examples/policies/*.s) and the
// source of every packet-hook builtin. Each mutant is one edit of a seed:
// delete, duplicate or swap a line, set an integer operand to a boundary
// value, or rename a register to one of r0-r11. `.map` lines stay as they
// are: a legal entry count can preallocate up to the 256 MiB map limit on
// every deploy, and the syrupctl_lint_rejects_map_* goldens cover that
// directive. Every mutant goes through Syrupd::DeployPolicyFile at a packet
// hook, which must return OK or an error Status. A mutant that deploys then
// decides 64 packets of random lengths through DispatchBatch on the
// compiled tier, which trusts the verifier and re-checks no access: an
// unsound acceptance shows up as a crash here, or as a sanitizer report in
// the ASan job, which runs this test. A runtime fault is a counted pass:
// the policy fails open to PASS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/syrup_api.h"
#include "src/core/syrupd.h"
#include "src/net/stack.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

constexpr Hook kPacketHooks[] = {Hook::kXdpOffload, Hook::kXdpDrv,
                                 Hook::kXdpSkb, Hook::kCpuRedirect,
                                 Hook::kSocketSelect};
constexpr char kLoadPin[] = "/syrup/fuzz/load";
constexpr uint32_t kUid = 1000;

// About 1.3% of mutants (loop bounds set to 2^31-1, swapped lines that close
// a loop) run the verifier to its exploration budget before it rejects
// them: 36-131 ms each in an optimized build, 0.2-2.8 s under ASan, where
// all 3000 mutants took 50 s. A sanitizer build therefore runs the first
// 200 mutants of the same sequence.
#ifdef __SANITIZE_ADDRESS__
constexpr int kMutants = 200;
#else
constexpr int kMutants = 3000;
#endif

struct Seed {
  std::string name;
  std::vector<std::string> lines;
};

std::vector<std::string> SplitLines(const std::string& source) {
  std::vector<std::string> lines;
  std::istringstream in(source);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::vector<Seed> Seeds() {
  std::vector<Seed> seeds;
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
    seeds.push_back({file.filename().string(), SplitLines(buffer.str())});
  }
  const std::pair<const char*, std::string> builtins[] = {
      {"round_robin", RoundRobinPolicyAsm(4)},
      {"hash", HashPolicyAsm(4)},
      {"scan_avoid", ScanAvoidPolicyAsm(4)},
      {"sita", SitaPolicyAsm(4)},
      {"token", TokenPolicyAsm()},
      {"least_loaded", LeastLoadedPolicyAsm(6, kLoadPin)},
      {"power_of_two", PowerOfTwoPolicyAsm(4, kLoadPin)},
      {"const_index", ConstIndexPolicyAsm(3)},
      {"mica_home", MicaHomePolicyAsm(4)},
      {"var_header", VarHeaderPolicyAsm(4)},
  };
  for (const auto& [name, source] : builtins) {
    seeds.push_back({name, SplitLines(source)});
  }
  return seeds;
}

bool IsMapLine(const std::string& line) {
  std::istringstream in(line);
  std::string directive;
  in >> directive;
  return directive == ".map";
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// One operand a mutation can replace: [begin, end) of lines[line].
struct Token {
  size_t line;
  size_t begin;
  size_t end;
};

// Integer literals and register names in the code part of each line (up to
// a comment). A literal's leading '-' belongs to it unless it follows a
// word, as the offset in `[r10-4]` does.
void FindTokens(const std::vector<std::string>& lines,
                const std::vector<size_t>& editable, std::vector<Token>* ints,
                std::vector<Token>* regs) {
  for (size_t index : editable) {
    const std::string& line = lines[index];
    const size_t code_end = std::min(line.find(';'), line.find('#'));
    const size_t n = std::min(code_end, line.size());
    size_t i = 0;
    while (i < n) {
      const bool starts_word = i == 0 || !IsWordChar(line[i - 1]);
      if (starts_word && std::isdigit(static_cast<unsigned char>(line[i]))) {
        size_t begin = i;
        if (begin > 0 && line[begin - 1] == '-' &&
            (begin == 1 || !IsWordChar(line[begin - 2]))) {
          --begin;
        }
        while (i < n && IsWordChar(line[i])) ++i;  // digits, 0x and hex
        ints->push_back({index, begin, i});
        continue;
      }
      if (starts_word && line[i] == 'r' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(line[i + 1]))) {
        size_t end = i + 1;
        while (end < n && std::isdigit(static_cast<unsigned char>(line[end]))) {
          ++end;
        }
        if (end == n || !IsWordChar(line[end])) {
          regs->push_back({index, i, end});
          i = end;
          continue;
        }
      }
      ++i;
    }
  }
}

// One edit of `lines`, never touching a `.map` line.
std::string Mutate(std::vector<std::string> lines, Rng& rng) {
  static const char* const kBoundaries[] = {
      "0",  "-1",         "31",         "32",
      "63", "64",         "2147483647", "4294967296",
      "9223372036854775807"};
  std::vector<size_t> editable;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!IsMapLine(lines[i])) editable.push_back(i);
  }
  std::vector<Token> ints;
  std::vector<Token> regs;
  FindTokens(lines, editable, &ints, &regs);
  const auto pick = [&rng](const auto& v) -> const auto& {
    return v[rng.NextBounded(v.size())];
  };
  switch (rng.NextBounded(5)) {
    case 0:
      lines.erase(lines.begin() + static_cast<long>(pick(editable)));
      break;
    case 1: {
      const size_t at = pick(editable);
      lines.insert(lines.begin() + static_cast<long>(at), lines[at]);
      break;
    }
    case 2:
      std::swap(lines[pick(editable)], lines[pick(editable)]);
      break;
    case 3:
      if (!ints.empty()) {
        const Token& t = pick(ints);
        lines[t.line].replace(t.begin, t.end - t.begin,
                              kBoundaries[rng.NextBounded(
                                  std::size(kBoundaries))]);
      }
      break;
    default:
      if (!regs.empty()) {
        const Token& t = pick(regs);
        lines[t.line].replace(t.begin, t.end - t.begin,
                              "r" + std::to_string(rng.NextBounded(12)));
      }
      break;
  }
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

TEST(DeployFuzz, MutatedPoliciesNeverCrashSyrupd) {
  Simulator sim;
  HostStack stack(sim, StackConfig{});
  Syrupd syrupd(sim, &stack);
  const std::vector<Seed> seeds = Seeds();
  ASSERT_GE(seeds.size(), 14u);

  // One app per seed, so each seed's declared maps pin under its own
  // name; all share a uid, so each can open the extern load map.
  std::vector<AppId> apps;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < seeds.size(); ++i) {
    ports.push_back(static_cast<uint16_t>(9000 + i));
    apps.push_back(syrupd
                       .RegisterApp("fuzz" + std::to_string(i), kUid,
                                    ports.back())
                       .value());
  }
  SyrupClient owner(syrupd, apps.front());
  MapSpec load_spec;
  load_spec.max_entries = 8;
  load_spec.name = "load";
  MapHandle load = owner.MapCreate(load_spec, kLoadPin).value();
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(load.Update(i, 10 + i).ok());
  }

  constexpr size_t kPackets = 64;
  Rng rng(2024);
  int deployed = 0;
  std::vector<std::vector<uint8_t>> wires(kPackets);
  std::vector<PacketView> views(kPackets);
  std::vector<Decision> out(kPackets);
  for (int m = 0; m < kMutants; ++m) {
    const size_t s = static_cast<size_t>(m) % seeds.size();
    const Hook hook = kPacketHooks[rng.NextBounded(std::size(kPacketHooks))];
    const std::string mutant = Mutate(seeds[s].lines, rng);
    SCOPED_TRACE(seeds[s].name + " mutant " + std::to_string(m) + ":\n" +
                 mutant);
    // Any Status is fine; an abort or an exception fails the test.
    const StatusOr<int> prog_id =
        syrupd.DeployPolicyFile(apps[s], mutant, hook);
    if (!prog_id.ok()) continue;
    ++deployed;
    // Each packet gets a buffer of exactly its length, so a read past its
    // end leaves the allocation (a sanitizer report, not a silent read).
    for (size_t i = 0; i < kPackets; ++i) {
      Packet pkt;
      pkt.tuple.src_port = static_cast<uint16_t>(20'000 + rng.NextBounded(64));
      pkt.tuple.dst_port = ports[s];
      pkt.SetHeader(rng.NextBounded(4) == 0 ? ReqType::kScan : ReqType::kGet,
                    static_cast<uint32_t>(rng.NextBounded(4)),
                    static_cast<uint32_t>(rng.Next()), rng.Next(), 0);
      // Long enough to carry the destination port, so the policy runs.
      const size_t len = 4 + rng.NextBounded(kWireSize - 3);
      wires[i].assign(pkt.wire.begin(), pkt.wire.begin() + len);
      views[i] = PacketView{wires[i].data(), wires[i].data() + len};
    }
    syrupd.DispatchBatch(hook, views, out);
  }

  uint64_t decisions = 0;
  uint64_t faults = 0;
  const obs::Snapshot snap = syrupd.StatsSnapshot();
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (Hook hook : kPacketHooks) {
      const std::string app = "fuzz" + std::to_string(s);
      decisions += snap.CounterValue(app, HookName(hook), "policy.invocations");
      faults +=
          snap.CounterValue(app, HookName(hook), "policy.runtime_faults");
    }
  }
  std::printf("deploy fuzz: %d mutants, %d deployed, %llu decisions, "
              "%llu runtime faults (counted passes)\n",
              kMutants, deployed, static_cast<unsigned long long>(decisions),
              static_cast<unsigned long long>(faults));
  // Neither vacuous nor trivially rejecting.
  EXPECT_GT(deployed, kMutants / 10);
  EXPECT_LT(deployed, kMutants);
  EXPECT_GT(decisions, 0u);
}

}  // namespace
}  // namespace syrup
