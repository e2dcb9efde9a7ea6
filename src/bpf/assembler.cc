#include "src/bpf/assembler.h"

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>

namespace syrup::bpf {
namespace {

// Decision constants mirrored from src/core/decision.h (kept numerically
// identical; a static_assert in core enforces it).
constexpr uint64_t kPassImm = 0xFFFFFFFF;
constexpr uint64_t kDropImm = 0xFFFFFFFE;

struct Token {
  std::string text;
};

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == ';' || c == '#') {
      break;  // comment
    }
    if (c == ',' || c == ' ' || c == '\t') {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
      continue;
    }
    current.push_back(c);
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

bool ParseInt(std::string_view text, int64_t* out) {
  if (text == "PASS") {
    *out = static_cast<int64_t>(kPassImm);
    return true;
  }
  if (text == "DROP") {
    *out = static_cast<int64_t>(kDropImm);
    return true;
  }
  bool negative = false;
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) {
    negative = text[0] == '-';
    text.remove_prefix(1);
  }
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  uint64_t magnitude = 0;
  const auto [ptr, ec] = std::from_chars(
      text.data(), text.data() + text.size(), magnitude, base);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return false;
  }
  *out = negative ? -static_cast<int64_t>(magnitude)
                  : static_cast<int64_t>(magnitude);
  return true;
}

bool ParseReg(std::string_view text, uint8_t* out) {
  if (text.size() < 2 || text[0] != 'r') {
    return false;
  }
  int64_t n;
  if (!ParseInt(text.substr(1), &n) || n < 0 || n >= kNumRegisters) {
    return false;
  }
  *out = static_cast<uint8_t>(n);
  return true;
}

// Parses "[rN+off]" / "[rN-off]" / "[rN]".
bool ParseMem(std::string_view text, uint8_t* reg, int16_t* off) {
  if (text.size() < 4 || text.front() != '[' || text.back() != ']') {
    return false;
  }
  text = text.substr(1, text.size() - 2);
  size_t split = text.find_first_of("+-", 1);
  std::string_view reg_part = text.substr(0, split);
  if (!ParseReg(reg_part, reg)) {
    return false;
  }
  if (split == std::string_view::npos) {
    *off = 0;
    return true;
  }
  int64_t n;
  if (!ParseInt(text.substr(split), &n) || n < INT16_MIN || n > INT16_MAX) {
    return false;
  }
  *off = static_cast<int16_t>(n);
  return true;
}

std::optional<HelperId> HelperByName(std::string_view name) {
  if (name == "map_lookup_elem") return HelperId::kMapLookupElem;
  if (name == "map_update_elem") return HelperId::kMapUpdateElem;
  if (name == "map_delete_elem") return HelperId::kMapDeleteElem;
  if (name == "get_prandom_u32") return HelperId::kGetPrandomU32;
  if (name == "ktime_get_ns") return HelperId::kKtimeGetNs;
  if (name == "tail_call") return HelperId::kTailCall;
  if (name == "map_lookup_batch") return HelperId::kMapLookupBatch;
  return std::nullopt;
}

// dst-src ALU ops where the second operand picks Reg vs Imm flavor.
std::optional<std::pair<Op, Op>> BinAluOps(std::string_view mnemonic) {
  if (mnemonic == "add") return {{Op::kAddReg, Op::kAddImm}};
  if (mnemonic == "sub") return {{Op::kSubReg, Op::kSubImm}};
  if (mnemonic == "mul") return {{Op::kMulReg, Op::kMulImm}};
  if (mnemonic == "div") return {{Op::kDivReg, Op::kDivImm}};
  if (mnemonic == "mod") return {{Op::kModReg, Op::kModImm}};
  if (mnemonic == "or") return {{Op::kOrReg, Op::kOrImm}};
  if (mnemonic == "and") return {{Op::kAndReg, Op::kAndImm}};
  if (mnemonic == "lsh") return {{Op::kLshReg, Op::kLshImm}};
  if (mnemonic == "rsh") return {{Op::kRshReg, Op::kRshImm}};
  if (mnemonic == "arsh") return {{Op::kArshReg, Op::kArshImm}};
  if (mnemonic == "mov") return {{Op::kMovReg, Op::kMovImm}};
  if (mnemonic == "mov32") return {{Op::kMov32Reg, Op::kMov32Imm}};
  return std::nullopt;
}

std::optional<std::pair<Op, Op>> CondJumpOps(std::string_view mnemonic) {
  if (mnemonic == "jeq") return {{Op::kJeqReg, Op::kJeqImm}};
  if (mnemonic == "jne") return {{Op::kJneReg, Op::kJneImm}};
  if (mnemonic == "jgt") return {{Op::kJgtReg, Op::kJgtImm}};
  if (mnemonic == "jge") return {{Op::kJgeReg, Op::kJgeImm}};
  if (mnemonic == "jlt") return {{Op::kJltReg, Op::kJltImm}};
  if (mnemonic == "jle") return {{Op::kJleReg, Op::kJleImm}};
  if (mnemonic == "jsgt") return {{Op::kJsgtReg, Op::kJsgtImm}};
  if (mnemonic == "jsge") return {{Op::kJsgeReg, Op::kJsgeImm}};
  if (mnemonic == "jslt") return {{Op::kJsltReg, Op::kJsltImm}};
  if (mnemonic == "jsle") return {{Op::kJsleReg, Op::kJsleImm}};
  if (mnemonic == "jset") return {{Op::kJsetReg, Op::kJsetImm}};
  return std::nullopt;
}

std::optional<Op> LoadOpByName(std::string_view m) {
  if (m == "ldxb") return Op::kLdxB;
  if (m == "ldxh") return Op::kLdxH;
  if (m == "ldxw") return Op::kLdxW;
  if (m == "ldxdw") return Op::kLdxDW;
  return std::nullopt;
}

std::optional<Op> StoreRegOpByName(std::string_view m) {
  if (m == "stxb") return Op::kStxB;
  if (m == "stxh") return Op::kStxH;
  if (m == "stxw") return Op::kStxW;
  if (m == "stxdw") return Op::kStxDW;
  if (m == "xadddw") return Op::kAtomicAddDW;
  return std::nullopt;
}

std::optional<Op> StoreImmOpByName(std::string_view m) {
  if (m == "stb") return Op::kStB;
  if (m == "sth") return Op::kStH;
  if (m == "stw") return Op::kStW;
  if (m == "stdw") return Op::kStDW;
  return std::nullopt;
}

std::optional<MapType> MapTypeByName(std::string_view name) {
  if (name == "array") return MapType::kArray;
  if (name == "hash") return MapType::kHash;
  if (name == "prog_array") return MapType::kProgArray;
  return std::nullopt;
}

// A not-yet-resolved jump: instruction index + label name.
struct PendingJump {
  size_t insn_index;
  std::string label;
  int line_no;
};

}  // namespace

StatusOr<AssembledProgram> Assemble(std::string_view source) {
  AssembledProgram out;
  out.name = "anonymous";

  std::map<std::string, size_t> labels;        // label -> insn index
  std::map<std::string, size_t> map_indices;   // map name -> slot
  std::vector<PendingJump> pending_jumps;

  int line_no = 0;
  std::istringstream stream{std::string(source)};
  std::string raw_line;

  auto error = [&](const std::string& why) {
    return InvalidArgumentError("asm line " + std::to_string(line_no) + ": " +
                                why);
  };

  while (std::getline(stream, raw_line)) {
    ++line_no;
    std::vector<std::string> tokens = Tokenize(raw_line);
    if (tokens.empty()) {
      continue;
    }

    // Directives.
    if (tokens[0][0] == '.') {
      const std::string& directive = tokens[0];
      if (directive == ".name") {
        if (tokens.size() != 2) {
          return error(".name requires one argument");
        }
        out.name = tokens[1];
      } else if (directive == ".ctx") {
        if (tokens.size() != 2 ||
            (tokens[1] != "packet" && tokens[1] != "thread")) {
          return error(".ctx requires 'packet' or 'thread'");
        }
        out.context = tokens[1] == "packet" ? ProgramContext::kPacket
                                            : ProgramContext::kThread;
      } else if (directive == ".map") {
        if (tokens.size() != 6) {
          return error(".map requires: name type key_size value_size entries");
        }
        MapSlot slot;
        slot.name = tokens[1];
        const auto type = MapTypeByName(tokens[2]);
        if (!type.has_value()) {
          return error("unknown map type '" + tokens[2] + "'");
        }
        slot.spec.type = *type;
        slot.spec.name = slot.name;
        int64_t key_size, value_size, entries;
        if (!ParseInt(tokens[3], &key_size) ||
            !ParseInt(tokens[4], &value_size) ||
            !ParseInt(tokens[5], &entries) || key_size <= 0 ||
            value_size <= 0 || entries <= 0) {
          return error("bad map sizes");
        }
        for (const int64_t size : {key_size, value_size, entries}) {
          if (size > int64_t{UINT32_MAX}) {
            return error("map size " + std::to_string(size) +
                         " does not fit in 32 bits");
          }
        }
        slot.spec.key_size = static_cast<uint32_t>(key_size);
        slot.spec.value_size = static_cast<uint32_t>(value_size);
        slot.spec.max_entries = static_cast<uint32_t>(entries);
        if (!map_indices.emplace(slot.name, out.map_slots.size()).second) {
          return error("duplicate map name '" + slot.name + "'");
        }
        out.map_slots.push_back(std::move(slot));
      } else if (directive == ".extern_map") {
        if (tokens.size() != 3) {
          return error(".extern_map requires: name path");
        }
        MapSlot slot;
        slot.name = tokens[1];
        slot.is_extern = true;
        slot.path = tokens[2];
        if (!map_indices.emplace(slot.name, out.map_slots.size()).second) {
          return error("duplicate map name '" + slot.name + "'");
        }
        out.map_slots.push_back(std::move(slot));
      } else {
        return error("unknown directive '" + directive + "'");
      }
      continue;
    }

    // Labels.
    if (tokens[0].back() == ':') {
      std::string label = tokens[0].substr(0, tokens[0].size() - 1);
      if (label.empty() ||
          !labels.emplace(std::move(label), out.insns.size()).second) {
        return error("bad or duplicate label");
      }
      if (tokens.size() > 1) {
        return error("label must be on its own line");
      }
      continue;
    }

    // Instructions.
    const std::string& mnemonic = tokens[0];
    Insn insn;

    auto parse_jump_target = [&](const std::string& target) -> Status {
      int64_t rel;
      if ((target[0] == '+' || target[0] == '-') && ParseInt(target, &rel)) {
        insn.off = static_cast<int16_t>(rel);
        return OkStatus();
      }
      pending_jumps.push_back(PendingJump{out.insns.size(), target, line_no});
      return OkStatus();
    };

    if (mnemonic == "exit") {
      insn.op = Op::kExit;
    } else if (mnemonic == "call") {
      if (tokens.size() != 2) {
        return error("call requires one argument");
      }
      insn.op = Op::kCall;
      if (auto helper = HelperByName(tokens[1]); helper.has_value()) {
        insn.imm = static_cast<int64_t>(*helper);
      } else {
        int64_t id;
        if (!ParseInt(tokens[1], &id)) {
          return error("unknown helper '" + tokens[1] + "'");
        }
        insn.imm = id;
      }
    } else if (mnemonic == "ja") {
      if (tokens.size() != 2) {
        return error("ja requires a target");
      }
      insn.op = Op::kJa;
      SYRUP_RETURN_IF_ERROR(parse_jump_target(tokens[1]));
    } else if (mnemonic == "ldmapfd") {
      if (tokens.size() != 3 || !ParseReg(tokens[1], &insn.dst)) {
        return error("ldmapfd requires: rD, map_name");
      }
      insn.op = Op::kLdMapFd;
      auto it = map_indices.find(tokens[2]);
      if (it == map_indices.end()) {
        return error("unknown map '" + tokens[2] + "'");
      }
      insn.imm = static_cast<int64_t>(it->second);
    } else if (mnemonic == "neg" || mnemonic == "be16" || mnemonic == "be32" ||
               mnemonic == "be64") {
      if (tokens.size() != 2 || !ParseReg(tokens[1], &insn.dst)) {
        return error(mnemonic + " requires one register");
      }
      insn.op = mnemonic == "neg"    ? Op::kNeg
                : mnemonic == "be16" ? Op::kBe16
                : mnemonic == "be32" ? Op::kBe32
                                     : Op::kBe64;
    } else if (auto alu = BinAluOps(mnemonic); alu.has_value()) {
      if (tokens.size() != 3 || !ParseReg(tokens[1], &insn.dst)) {
        return error(mnemonic + " requires: rD, rS|imm");
      }
      if (ParseReg(tokens[2], &insn.src)) {
        insn.op = alu->first;
      } else if (int64_t imm; ParseInt(tokens[2], &imm)) {
        insn.op = alu->second;
        insn.imm = imm;
      } else {
        return error("bad operand '" + tokens[2] + "'");
      }
    } else if (auto jmp = CondJumpOps(mnemonic); jmp.has_value()) {
      if (tokens.size() != 4 || !ParseReg(tokens[1], &insn.dst)) {
        return error(mnemonic + " requires: rD, rS|imm, target");
      }
      if (ParseReg(tokens[2], &insn.src)) {
        insn.op = jmp->first;
      } else if (int64_t imm; ParseInt(tokens[2], &imm)) {
        insn.op = jmp->second;
        insn.imm = imm;
      } else {
        return error("bad operand '" + tokens[2] + "'");
      }
      SYRUP_RETURN_IF_ERROR(parse_jump_target(tokens[3]));
    } else if (auto load = LoadOpByName(mnemonic); load.has_value()) {
      if (tokens.size() != 3 || !ParseReg(tokens[1], &insn.dst) ||
          !ParseMem(tokens[2], &insn.src, &insn.off)) {
        return error(mnemonic + " requires: rD, [rS+off]");
      }
      insn.op = *load;
    } else if (auto store = StoreRegOpByName(mnemonic); store.has_value()) {
      if (tokens.size() != 3 || !ParseMem(tokens[1], &insn.dst, &insn.off) ||
          !ParseReg(tokens[2], &insn.src)) {
        return error(mnemonic + " requires: [rD+off], rS");
      }
      insn.op = *store;
    } else if (auto store_imm = StoreImmOpByName(mnemonic);
               store_imm.has_value()) {
      int64_t imm;
      if (tokens.size() != 3 || !ParseMem(tokens[1], &insn.dst, &insn.off) ||
          !ParseInt(tokens[2], &imm)) {
        return error(mnemonic + " requires: [rD+off], imm");
      }
      insn.op = *store_imm;
      insn.imm = imm;
    } else {
      return error("unknown mnemonic '" + mnemonic + "'");
    }

    out.insns.push_back(insn);
  }

  // Resolve labels.
  for (const PendingJump& jump : pending_jumps) {
    auto it = labels.find(jump.label);
    if (it == labels.end()) {
      return InvalidArgumentError("asm line " + std::to_string(jump.line_no) +
                                  ": unknown label '" + jump.label + "'");
    }
    const int64_t rel = static_cast<int64_t>(it->second) -
                        (static_cast<int64_t>(jump.insn_index) + 1);
    if (rel < INT16_MIN || rel > INT16_MAX) {
      return InvalidArgumentError("jump to '" + jump.label + "' out of range");
    }
    out.insns[jump.insn_index].off = static_cast<int16_t>(rel);
  }

  if (out.insns.empty()) {
    return InvalidArgumentError("program has no instructions");
  }
  return out;
}

}  // namespace syrup::bpf
