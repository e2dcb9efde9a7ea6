// Shared runtime-memory primitives of the compiled tier (src/bpf/compiler.cc)
// and the interpreter it is checked against (tests/oracles/interpreter.h):
// the unaligned load/store and byte-swap helpers whose semantics both
// engines must match exactly.
#ifndef SYRUP_SRC_BPF_VM_RUNTIME_H_
#define SYRUP_SRC_BPF_VM_RUNTIME_H_

#include <cstdint>
#include <cstring>

namespace syrup::bpf::internal {

inline uint64_t LoadUnaligned(uint64_t addr, int size) {
  uint64_t out = 0;
  std::memcpy(&out, reinterpret_cast<const void*>(addr),
              static_cast<size_t>(size));
  return out;
}

inline void StoreUnaligned(uint64_t addr, uint64_t value, int size) {
  std::memcpy(reinterpret_cast<void*>(addr), &value,
              static_cast<size_t>(size));
}

inline uint64_t ByteSwap(uint64_t v, int width) {
  switch (width) {
    case 16:
      return __builtin_bswap16(static_cast<uint16_t>(v));
    case 32:
      return __builtin_bswap32(static_cast<uint32_t>(v));
    case 64:
      return __builtin_bswap64(v);
  }
  return v;
}

}  // namespace syrup::bpf::internal

#endif  // SYRUP_SRC_BPF_VM_RUNTIME_H_
