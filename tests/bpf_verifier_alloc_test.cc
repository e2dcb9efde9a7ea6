// Bounds the heap traffic of one deploy-gate Verify call. Every policy
// deploy and update runs the gate, so what it allocates is paid on every
// one of them. Counts are deterministic (no clock), so the bounds hold on
// any host. The global operator new at the end of this file counts every
// allocation this thread makes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/bpf/assembler.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/map/map.h"
#include "src/policies/builtin.h"

namespace syrup::bpf {

thread_local uint64_t t_heap_allocs = 0;
thread_local uint64_t t_heap_bytes = 0;

namespace {

struct Allocs {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

Program Build(const std::string& source) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status();
  Program prog;
  prog.name = assembled->name;
  prog.insns = assembled->insns;
  for (const MapSlot& slot : assembled->map_slots) {
    prog.maps.push_back(CreateMap(slot.spec).value());
  }
  return prog;
}

// Heap allocations made by one Verify call, filling stats and facts the
// way Syrupd's deploy paths do.
Allocs CountVerify(const Program& prog) {
  VerifierStats stats;
  AnalysisFacts facts;
  const uint64_t count0 = t_heap_allocs;
  const uint64_t bytes0 = t_heap_bytes;
  const Status status =
      Verify(prog, ProgramContext::kPacket, {}, &stats, &facts);
  const Allocs allocs{t_heap_allocs - count0, t_heap_bytes - bytes0};
  EXPECT_TRUE(status.ok()) << status;
  std::printf("%s: %llu allocations, %llu bytes\n", prog.name.c_str(),
              static_cast<unsigned long long>(allocs.count),
              static_cast<unsigned long long>(allocs.bytes));
  return allocs;
}

// fig8's deploy: 36 sockets, 72 branch states, 36 of them pruned.
TEST(VerifierAllocs, ScanAvoid36StaysUnder128KiB) {
  const Program prog = Build(ScanAvoidPolicyAsm(36));
  EXPECT_LE(CountVerify(prog).bytes, 128u * 1024);
}

// The smallest shipped packet policy: one fork, no pruning.
TEST(VerifierAllocs, RoundRobin6StaysUnder5910Bytes) {
  const Program prog = Build(RoundRobinPolicyAsm(6));
  EXPECT_LE(CountVerify(prog).bytes, 5910u);
}

}  // namespace
}  // namespace syrup::bpf

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++syrup::bpf::t_heap_allocs;
  syrup::bpf::t_heap_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
