// The decode-per-instruction VM interpreter, kept as a test oracle.
//
// Every deployment runs the compiled tier (src/bpf/compiler.h) or its
// machine-code lowering (src/bpf/jit.h), which trust the verifier and load
// and store with no runtime checks. This interpreter is the reference they
// are checked against: it executes the source instructions one by one and,
// as defense in depth, re-validates every memory access at runtime against
// the known regions (packet, stack, live map values), and accepts only the
// program's own maps as map arguments. An unverified program gets a Status
// from it, never a wild access.
//
// Its jobs, none of them in src/:
//   1. Differential oracle: bpf_compiler_test and bpf_verifier_fuzz_test
//      require the compiled tiers to match it (r0, map side effects,
//      helper and tail-call counts), and dispatch_batch_test runs the
//      literal root-dispatcher program (root_dispatcher.h) on it.
//   2. Soundness probe: a program the verifier wrongly accepts surfaces as
//      a runtime fault here (bpf_verifier_fuzz_test, property_test).
//   3. Source-instruction counts: Table 2's Instructions column and the
//      wcet_insns bound are stated per source instruction, which folding
//      makes the compiled tiers under-count.
//   4. Reference timing in bench/policy_exec and bench/microbench_core.
#ifndef SYRUP_TESTS_ORACLES_INTERPRETER_H_
#define SYRUP_TESTS_ORACLES_INTERPRETER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/bpf/program.h"
#include "src/bpf/vm_runtime.h"
#include "src/common/status.h"
#include "src/map/map.h"

namespace syrup::bpf {

// Resolves a tail-call target: program id -> program (nullptr = miss).
using ProgramResolver = std::function<const Program*(uint64_t prog_id)>;

class Interpreter {
 public:
  // Helpers draw on `env`; tail calls resolve through `resolve_program`.
  // Without a resolver every tail call misses (r0 = -1).
  explicit Interpreter(ExecEnv env, ProgramResolver resolve_program = {})
      : env_(std::move(env)), resolve_program_(std::move(resolve_program)) {}

  // Runs `prog` with r1/r2 preloaded from `arg1`/`arg2`.
  //
  // For packet hooks arg1/arg2 are pkt_start/pkt_end host addresses (the
  // paper's `schedule(void* pkt_start, void* pkt_end)` signature); for the
  // thread hook they are scalars (thread id, message type).
  StatusOr<ExecResult> Run(const Program& prog, uint64_t arg1, uint64_t arg2,
                           bool args_are_packet);

 private:
  // A contiguous byte region the program may touch at runtime.
  struct Region {
    uint64_t base;
    uint64_t size;
    bool writable;

    bool Contains(uint64_t addr, uint64_t bytes) const {
      return addr >= base && bytes <= size && addr - base <= size - bytes;
    }
  };

  ExecEnv env_;
  ProgramResolver resolve_program_;
};

inline StatusOr<ExecResult> Interpreter::Run(const Program& prog_in,
                                             uint64_t arg1, uint64_t arg2,
                                             bool args_are_packet) {
  using internal::ByteSwap;
  using internal::LoadUnaligned;
  using internal::StoreUnaligned;

  ExecResult result;
  const Program* prog = &prog_in;

  alignas(8) std::array<uint8_t, kStackSize> stack{};
  std::array<uint64_t, kNumRegisters> regs{};

  // Regions the program may dereference. Map-value pointers returned by
  // lookups are appended as they materialize.
  std::vector<Region> regions;
  regions.push_back(Region{reinterpret_cast<uint64_t>(stack.data()),
                           stack.size(), /*writable=*/true});
  if (args_are_packet) {
    regions.push_back(Region{arg1, arg2 - arg1, /*writable=*/false});
  }

  auto readable = [&regions](uint64_t addr, int size) {
    for (const Region& r : regions) {
      if (r.Contains(addr, static_cast<uint64_t>(size))) {
        return true;
      }
    }
    return false;
  };
  auto writable = [&regions](uint64_t addr, int size) {
    for (const Region& r : regions) {
      if (r.writable && r.Contains(addr, static_cast<uint64_t>(size))) {
        return true;
      }
    }
    return false;
  };
  // Map helpers and tail_call dereference a map pointer, which only ldmapfd
  // produces. Accept one of the running program's own maps and nothing
  // else: a scalar there would otherwise be called through.
  auto map_arg = [&prog](uint64_t reg) -> Map* {
    for (const auto& map : prog->maps) {
      if (reinterpret_cast<uint64_t>(map.get()) == reg) return map.get();
    }
    return nullptr;
  };

restart:  // tail-call target: rerun with fresh pc but original context args
  regs[1] = arg1;
  regs[2] = arg2;
  regs[10] = reinterpret_cast<uint64_t>(stack.data()) + stack.size();

  size_t pc = 0;
  while (true) {
    if (result.insns_executed++ > kMaxInsns) {
      return ResourceExhaustedError("instruction limit exceeded at runtime");
    }
    if (pc >= prog->insns.size()) {
      return InternalError("program counter out of range");
    }
    const Insn& insn = prog->insns[pc];
    uint64_t& dst = regs[insn.dst];
    const uint64_t src = regs[insn.src];
    const auto imm = static_cast<uint64_t>(insn.imm);
    size_t next = pc + 1;

    switch (insn.op) {
      case Op::kAddReg: dst += src; break;
      case Op::kAddImm: dst += imm; break;
      case Op::kSubReg: dst -= src; break;
      case Op::kSubImm: dst -= imm; break;
      case Op::kMulReg: dst *= src; break;
      case Op::kMulImm: dst *= imm; break;
      case Op::kDivReg: dst = src == 0 ? 0 : dst / src; break;
      case Op::kDivImm: dst = imm == 0 ? 0 : dst / imm; break;
      case Op::kModReg: dst = src == 0 ? 0 : dst % src; break;
      case Op::kModImm: dst = imm == 0 ? 0 : dst % imm; break;
      case Op::kOrReg: dst |= src; break;
      case Op::kOrImm: dst |= imm; break;
      case Op::kAndReg: dst &= src; break;
      case Op::kAndImm: dst &= imm; break;
      case Op::kLshReg: dst <<= (src & 63); break;
      case Op::kLshImm: dst <<= (imm & 63); break;
      case Op::kRshReg: dst >>= (src & 63); break;
      case Op::kRshImm: dst >>= (imm & 63); break;
      case Op::kArshReg:
        dst = static_cast<uint64_t>(static_cast<int64_t>(dst) >> (src & 63));
        break;
      case Op::kArshImm:
        dst = static_cast<uint64_t>(static_cast<int64_t>(dst) >> (imm & 63));
        break;
      case Op::kNeg: dst = ~dst + 1; break;
      case Op::kMovReg: dst = src; break;
      case Op::kMovImm: dst = imm; break;
      case Op::kMov32Reg: dst = static_cast<uint32_t>(src); break;
      case Op::kMov32Imm: dst = static_cast<uint32_t>(imm); break;
      case Op::kBe16: dst = ByteSwap(dst & 0xffff, 16); break;
      case Op::kBe32: dst = ByteSwap(dst & 0xffffffff, 32); break;
      case Op::kBe64: dst = ByteSwap(dst, 64); break;

      case Op::kLdxB: case Op::kLdxH: case Op::kLdxW: case Op::kLdxDW: {
        const int size = MemAccessSize(insn.op);
        const uint64_t addr = src + static_cast<int64_t>(insn.off);
        if (!readable(addr, size)) {
          return OutOfRangeError("runtime load out of bounds: " +
                                 Disassemble(insn));
        }
        dst = LoadUnaligned(addr, size);
        break;
      }
      case Op::kStxB: case Op::kStxH: case Op::kStxW: case Op::kStxDW: {
        const int size = MemAccessSize(insn.op);
        const uint64_t addr = dst + static_cast<int64_t>(insn.off);
        if (!writable(addr, size)) {
          return OutOfRangeError("runtime store out of bounds: " +
                                 Disassemble(insn));
        }
        StoreUnaligned(addr, src, size);
        break;
      }
      case Op::kStB: case Op::kStH: case Op::kStW: case Op::kStDW: {
        const int size = MemAccessSize(insn.op);
        const uint64_t addr = dst + static_cast<int64_t>(insn.off);
        if (!writable(addr, size)) {
          return OutOfRangeError("runtime store out of bounds: " +
                                 Disassemble(insn));
        }
        StoreUnaligned(addr, imm, size);
        break;
      }
      case Op::kAtomicAddDW: {
        const uint64_t addr = dst + static_cast<int64_t>(insn.off);
        if (!writable(addr, 8) || (addr & 7) != 0) {
          return OutOfRangeError("runtime atomic out of bounds/unaligned");
        }
        auto* cell = reinterpret_cast<std::atomic<uint64_t>*>(addr);
        cell->fetch_add(src, std::memory_order_relaxed);
        break;
      }

      case Op::kJa: next = pc + 1 + insn.off; break;
#define SYRUP_COND_JUMP(cond)         \
  if (cond) {                         \
    next = pc + 1 + insn.off;         \
  }                                   \
  break
      case Op::kJeqReg: SYRUP_COND_JUMP(dst == src);
      case Op::kJeqImm: SYRUP_COND_JUMP(dst == imm);
      case Op::kJneReg: SYRUP_COND_JUMP(dst != src);
      case Op::kJneImm: SYRUP_COND_JUMP(dst != imm);
      case Op::kJgtReg: SYRUP_COND_JUMP(dst > src);
      case Op::kJgtImm: SYRUP_COND_JUMP(dst > imm);
      case Op::kJgeReg: SYRUP_COND_JUMP(dst >= src);
      case Op::kJgeImm: SYRUP_COND_JUMP(dst >= imm);
      case Op::kJltReg: SYRUP_COND_JUMP(dst < src);
      case Op::kJltImm: SYRUP_COND_JUMP(dst < imm);
      case Op::kJleReg: SYRUP_COND_JUMP(dst <= src);
      case Op::kJleImm: SYRUP_COND_JUMP(dst <= imm);
      case Op::kJsgtReg:
        SYRUP_COND_JUMP(static_cast<int64_t>(dst) > static_cast<int64_t>(src));
      case Op::kJsgtImm:
        SYRUP_COND_JUMP(static_cast<int64_t>(dst) > insn.imm);
      case Op::kJsgeReg:
        SYRUP_COND_JUMP(static_cast<int64_t>(dst) >=
                        static_cast<int64_t>(src));
      case Op::kJsgeImm:
        SYRUP_COND_JUMP(static_cast<int64_t>(dst) >= insn.imm);
      case Op::kJsltReg:
        SYRUP_COND_JUMP(static_cast<int64_t>(dst) < static_cast<int64_t>(src));
      case Op::kJsltImm:
        SYRUP_COND_JUMP(static_cast<int64_t>(dst) < insn.imm);
      case Op::kJsleReg:
        SYRUP_COND_JUMP(static_cast<int64_t>(dst) <=
                        static_cast<int64_t>(src));
      case Op::kJsleImm:
        SYRUP_COND_JUMP(static_cast<int64_t>(dst) <= insn.imm);
      case Op::kJsetReg: SYRUP_COND_JUMP((dst & src) != 0);
      case Op::kJsetImm: SYRUP_COND_JUMP((dst & imm) != 0);
#undef SYRUP_COND_JUMP

      case Op::kLdMapFd: {
        const auto index = static_cast<size_t>(insn.imm);
        if (index >= prog->maps.size()) {
          return InternalError("ldmapfd index out of range");
        }
        dst = reinterpret_cast<uint64_t>(prog->maps[index].get());
        break;
      }

      case Op::kCall: {
        ++result.helper_calls;
        switch (static_cast<HelperId>(insn.imm)) {
          case HelperId::kMapLookupElem: {
            Map* map = map_arg(regs[1]);
            const uint64_t key = regs[2];
            if (map == nullptr || !readable(key, map->spec().key_size)) {
              return OutOfRangeError("map_lookup: bad map/key");
            }
            void* value = map->Lookup(reinterpret_cast<const void*>(key));
            regs[0] = reinterpret_cast<uint64_t>(value);
            if (value != nullptr) {
              regions.push_back(
                  Region{regs[0], map->spec().value_size, /*writable=*/true});
            }
            break;
          }
          case HelperId::kMapUpdateElem: {
            Map* map = map_arg(regs[1]);
            const uint64_t key = regs[2];
            const uint64_t value = regs[3];
            if (map == nullptr || !readable(key, map->spec().key_size) ||
                !readable(value, map->spec().value_size)) {
              return OutOfRangeError("map_update: bad map/key/value");
            }
            const Status s =
                map->Update(reinterpret_cast<const void*>(key),
                            reinterpret_cast<const void*>(value),
                            UpdateFlag::kAny);
            regs[0] = s.ok() ? 0 : static_cast<uint64_t>(-1);
            break;
          }
          case HelperId::kMapDeleteElem: {
            Map* map = map_arg(regs[1]);
            const uint64_t key = regs[2];
            if (map == nullptr || !readable(key, map->spec().key_size)) {
              return OutOfRangeError("map_delete: bad map/key");
            }
            const Status s =
                map->Delete(reinterpret_cast<const void*>(key));
            regs[0] = s.ok() ? 0 : static_cast<uint64_t>(-1);
            break;
          }
          case HelperId::kMapLookupBatch: {
            Map* map = map_arg(regs[1]);
            const uint64_t keys = regs[2];
            const uint64_t out = regs[3];
            const uint64_t n = regs[4];
            if (map == nullptr || n == 0 || n > Map::kMaxLookupBatch ||
                map->spec().value_size != sizeof(uint64_t) ||
                !readable(keys, n * map->spec().key_size) ||
                !writable(out, n * sizeof(uint64_t))) {
              return OutOfRangeError("map_lookup_batch: bad map/keys/out/n");
            }
            regs[0] = map->LookupBatchU64(
                static_cast<uint32_t>(n),
                reinterpret_cast<const void*>(keys),
                reinterpret_cast<uint64_t*>(out));
            break;
          }
          case HelperId::kGetPrandomU32:
            regs[0] = env_.random_u32 ? env_.random_u32() : 0;
            break;
          case HelperId::kKtimeGetNs:
            regs[0] = env_.ktime_ns ? env_.ktime_ns() : 0;
            break;
          case HelperId::kTailCall: {
            if (resolve_program_ == nullptr) {
              regs[0] = static_cast<uint64_t>(-1);
              break;
            }
            Map* array = map_arg(regs[2]);
            const auto index = static_cast<uint32_t>(regs[3]);
            if (array == nullptr ||
                array->spec().type != MapType::kProgArray) {
              return InvalidArgumentError("tail_call: not a prog array");
            }
            void* slot = array->Lookup(&index);
            const uint64_t prog_id =
                slot == nullptr ? 0 : Map::AtomicLoad(slot);
            const Program* target =
                prog_id == 0 ? nullptr : resolve_program_(prog_id);
            if (target == nullptr) {
              // Miss: falls through, r0 = -1 (caller decides what to do).
              regs[0] = static_cast<uint64_t>(-1);
              break;
            }
            if (++result.tail_calls > kMaxTailCalls) {
              return ResourceExhaustedError("tail call chain too long");
            }
            prog = target;
            goto restart;
          }
          default:
            return InvalidArgumentError("unknown helper id " +
                                        std::to_string(insn.imm));
        }
        // Helper calls clobber the caller-saved argument registers.
        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0;
        break;
      }

      case Op::kExit:
        result.r0 = regs[0];
        return result;

      case Op::kInvalid:
        return InvalidArgumentError("invalid opcode");
    }
    pc = next;
  }
}

}  // namespace syrup::bpf

#endif  // SYRUP_TESTS_ORACLES_INTERPRETER_H_
