// Tests for the interpreter oracle (tests/oracles/interpreter.h): VM
// semantics, and every runtime check it keeps on unverified programs.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <utility>

#include "src/bpf/assembler.h"
#include "src/bpf/verifier.h"
#include "src/map/map.h"
#include "src/map/prog_array.h"
#include "tests/oracles/interpreter.h"

namespace syrup::bpf {
namespace {

Program Load(std::string_view source) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status();
  Program prog;
  prog.name = assembled->name;
  prog.insns = assembled->insns;
  for (const MapSlot& slot : assembled->map_slots) {
    EXPECT_FALSE(slot.is_extern);
    prog.maps.push_back(CreateMap(slot.spec).value());
  }
  return prog;
}

ExecEnv TestEnv() {
  ExecEnv env;
  env.random_u32 = []() { return 4u; };  // chosen by fair dice roll
  env.ktime_ns = []() { return 123'456u; };
  return env;
}

// Runs with a scalar context (no packet).
uint64_t RunScalar(const Program& prog, uint64_t a1 = 0, uint64_t a2 = 0) {
  Interpreter interp(TestEnv());
  auto result = interp.Run(prog, a1, a2, /*args_are_packet=*/false);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->r0;
}

uint64_t RunPacket(const Program& prog, const uint8_t* data, size_t len) {
  Interpreter interp(TestEnv());
  auto result = interp.Run(prog, reinterpret_cast<uint64_t>(data),
                           reinterpret_cast<uint64_t>(data + len),
                           /*args_are_packet=*/true);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->r0;
}

TEST(Interpreter, ArithmeticBasics) {
  EXPECT_EQ(RunScalar(Load("mov r0, 7\nadd r0, 5\nexit\n")), 12u);
  EXPECT_EQ(RunScalar(Load("mov r0, 7\nsub r0, 9\nexit\n")),
            static_cast<uint64_t>(-2));
  EXPECT_EQ(RunScalar(Load("mov r0, 6\nmul r0, 7\nexit\n")), 42u);
  EXPECT_EQ(RunScalar(Load("mov r0, 42\ndiv r0, 5\nexit\n")), 8u);
  EXPECT_EQ(RunScalar(Load("mov r0, 42\nmod r0, 5\nexit\n")), 2u);
  EXPECT_EQ(RunScalar(Load("mov r0, 12\nor r0, 3\nexit\n")), 15u);
  EXPECT_EQ(RunScalar(Load("mov r0, 12\nand r0, 10\nexit\n")), 8u);
  EXPECT_EQ(RunScalar(Load("mov r0, 1\nlsh r0, 10\nexit\n")), 1024u);
  EXPECT_EQ(RunScalar(Load("mov r0, 1024\nrsh r0, 3\nexit\n")), 128u);
}

TEST(Interpreter, DivModByZeroFollowEbpfSemantics) {
  EXPECT_EQ(RunScalar(Load("mov r0, 42\ndiv r0, 0\nexit\n")), 0u);
  EXPECT_EQ(RunScalar(Load("mov r0, 42\nmov r1, 0\nmod r0, r1\nexit\n")),
            0u);
}

TEST(Interpreter, SignedOps) {
  EXPECT_EQ(RunScalar(Load("mov r0, -16\narsh r0, 2\nexit\n")),
            static_cast<uint64_t>(-4));
  EXPECT_EQ(RunScalar(Load("mov r0, 5\nneg r0\nexit\n")),
            static_cast<uint64_t>(-5));
}

TEST(Interpreter, Mov32Truncates) {
  EXPECT_EQ(RunScalar(Load("mov r1, -1\nmov32 r0, r1\nexit\n")),
            0xFFFFFFFFu);
}

TEST(Interpreter, ByteSwaps) {
  EXPECT_EQ(RunScalar(Load("mov r0, 0x1234\nbe16 r0\nexit\n")), 0x3412u);
  EXPECT_EQ(RunScalar(Load("mov r0, 0x12345678\nbe32 r0\nexit\n")),
            0x78563412u);
}

TEST(Interpreter, ConditionalJumps) {
  // |a - b| via jge.
  const char* source = R"(
    jge r1, r2, ge
    mov r0, r2
    sub r0, r1
    exit
  ge:
    mov r0, r1
    sub r0, r2
    exit
  )";
  Program prog = Load(source);
  EXPECT_EQ(RunScalar(prog, 10, 3), 7u);
  EXPECT_EQ(RunScalar(prog, 3, 10), 7u);
}

TEST(Interpreter, SignedJumps) {
  const char* source = R"(
    jsgt r1, r2, bigger
    mov r0, 0
    exit
  bigger:
    mov r0, 1
    exit
  )";
  Program prog = Load(source);
  EXPECT_EQ(RunScalar(prog, static_cast<uint64_t>(-1), 1), 0u);  // -1 < 1
  EXPECT_EQ(RunScalar(prog, 5, static_cast<uint64_t>(-3)), 1u);
}

TEST(Interpreter, StackLoadStore) {
  EXPECT_EQ(RunScalar(Load(R"(
    mov r1, 0xABCD
    stxdw [r10-8], r1
    ldxdw r0, [r10-8]
    exit
  )")), 0xABCDu);
  // Narrow store/load roundtrip.
  EXPECT_EQ(RunScalar(Load(R"(
    stb [r10-1], 0x7F
    ldxb r0, [r10-1]
    exit
  )")), 0x7Fu);
}

TEST(Interpreter, LoopComputesSum) {
  // sum 1..10 = 55
  EXPECT_EQ(RunScalar(Load(R"(
    mov r0, 0
    mov r1, 1
  loop:
    jgt r1, 10, done
    add r0, r1
    add r1, 1
    ja loop
  done:
    exit
  )")), 55u);
}

TEST(Interpreter, PacketReads) {
  std::array<uint8_t, 16> data{};
  uint32_t word = 0xDEADBEEF;
  std::memcpy(data.data() + 4, &word, 4);
  Program prog = Load(R"(
    mov r3, r1
    add r3, 8
    jgt r3, r2, out
    ldxw r0, [r1+4]
    exit
  out:
    mov r0, PASS
    exit
  )");
  EXPECT_EQ(RunPacket(prog, data.data(), data.size()), 0xDEADBEEFu);
  // A 6-byte packet fails the 8-byte bounds check and PASSes.
  EXPECT_EQ(RunPacket(prog, data.data(), 6), 0xFFFFFFFFu);
}

TEST(Interpreter, RuntimePacketBoundsEnforced) {
  // Defense in depth: an (unverified) out-of-bounds read faults at runtime.
  Program prog = Load("ldxw r0, [r1+100]\nexit\n");
  std::array<uint8_t, 16> data{};
  Interpreter interp(TestEnv());
  auto result = interp.Run(prog, reinterpret_cast<uint64_t>(data.data()),
                           reinterpret_cast<uint64_t>(data.data() + 16),
                           true);
  EXPECT_FALSE(result.ok());
}

TEST(Interpreter, RuntimeStackBoundsEnforced) {
  Program prog = Load("mov r1, 1\nstxdw [r10+8], r1\nmov r0, 0\nexit\n");
  Interpreter interp(TestEnv());
  EXPECT_FALSE(interp.Run(prog, 0, 0, false).ok());
}

TEST(Interpreter, EveryRuntimeCheckRejectsUnverifiedAccess) {
  // The interpreter oracle is the only engine that re-checks at runtime, so
  // each of its checks gets an unverified program that trips it. Each run
  // must return a Status, never crash (the ASan job also watches these).
  //
  // Most cases first point r1 at array `m` and r2 at a stack key 0.
  const auto map_and_key = [](int value_size) {
    return ".map m array 4 " + std::to_string(value_size) + R"( 1
    mov r6, 0
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
  )";
  };
  const std::pair<const char*, std::string> cases[] = {
      {"load one byte past an 8-byte map value", map_and_key(8) + R"(
    call map_lookup_elem
    jeq r0, 0, out
    ldxb r0, [r0+8]
  out:
    exit
  )"},
      {"store into the read-only packet", R"(
    stb [r1+0], 1
    mov r0, 0
    exit
  )"},
      {"map_lookup_elem with a scalar key", map_and_key(8) + R"(
    mov r2, 5
    call map_lookup_elem
    exit
  )"},
      {"map_delete_elem with a scalar key", map_and_key(8) + R"(
    mov r2, 5
    call map_delete_elem
    exit
  )"},
      {"map_update_elem with the value at the stack top", map_and_key(8) + R"(
    mov r3, r10
    call map_update_elem
    exit
  )"},
      {"map_lookup_batch with n=0", map_and_key(8) + R"(
    add r2, -132
    mov r3, r10
    add r3, -400
    mov r4, 0
    call map_lookup_batch
    exit
  )"},
      {"map_lookup_batch with n=33", map_and_key(8) + R"(
    add r2, -132
    mov r3, r10
    add r3, -400
    mov r4, 33
    call map_lookup_batch
    exit
  )"},
      // A 16-byte value keeps the 8-byte add at offset 1 in bounds.
      {"xadd at a misaligned map-value offset", map_and_key(16) + R"(
    call map_lookup_elem
    jeq r0, 0, out
    mov r1, 1
    xadddw [r0+1], r1
  out:
    mov r0, 0
    exit
  )"},
      {"map helper called through a scalar", map_and_key(8) + R"(
    mov r1, 4096
    call map_lookup_elem
    exit
  )"},
      {"tail_call through a scalar prog array", R"(
    mov r2, 4096
    mov r3, 0
    call tail_call
    exit
  )"},
  };
  std::array<uint8_t, 64> packet{};
  for (const auto& [label, source] : cases) {
    const Program prog = Load(source);
    // A resolver is bound, as the differential tests bind one, so
    // tail_call really reaches its prog-array argument.
    Interpreter interp(TestEnv(),
                       [](uint64_t) -> const Program* { return nullptr; });
    auto result =
        interp.Run(prog, reinterpret_cast<uint64_t>(packet.data()),
                   reinterpret_cast<uint64_t>(packet.data() + packet.size()),
                   /*args_are_packet=*/true);
    EXPECT_FALSE(result.ok()) << label << " ran to r0=" << result->r0;
  }
}

TEST(Interpreter, MapLookupUpdateRoundtrip) {
  Program prog = Load(R"(
    .map m array 4 8 4
    mov r6, 2
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jne r0, 0, have
    mov r0, 0
    exit
  have:
    ldxdw r6, [r0+0]
    add r6, 1
    stxdw [r0+0], r6
    mov r0, r6
    exit
  )");
  ASSERT_TRUE(Verify(prog, ProgramContext::kPacket).ok());
  EXPECT_EQ(RunScalar(prog), 1u);
  EXPECT_EQ(RunScalar(prog), 2u);  // state persists in the map
  EXPECT_EQ(prog.maps[0]->LookupU64(2).value(), 2u);
}

TEST(Interpreter, MapUpdateHelper) {
  Program prog = Load(R"(
    .map m hash 4 8 4
    mov r6, 7
    stxw [r10-4], r6
    mov r7, 99
    stxdw [r10-16], r7
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    mov r3, r10
    add r3, -16
    call map_update_elem
    exit
  )");
  EXPECT_EQ(RunScalar(prog), 0u);
  EXPECT_EQ(prog.maps[0]->LookupU64(7).value(), 99u);
}

TEST(Interpreter, MapDeleteHelper) {
  Program prog = Load(R"(
    .map m hash 4 8 4
    mov r6, 7
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_delete_elem
    exit
  )");
  ASSERT_TRUE(prog.maps[0]->UpdateU64(7, 1).ok());
  EXPECT_EQ(RunScalar(prog), 0u);
  EXPECT_FALSE(prog.maps[0]->LookupU64(7).ok());
  // Deleting again reports failure in r0.
  EXPECT_EQ(RunScalar(prog), static_cast<uint64_t>(-1));
}

TEST(Interpreter, AtomicAddOnMapValue) {
  Program prog = Load(R"(
    .map m array 4 8 1
    mov r6, 0
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, out
    mov r6, -1
    xadddw [r0+0], r6
  out:
    mov r0, 0
    exit
  )");
  ASSERT_TRUE(prog.maps[0]->UpdateU64(0, 10).ok());
  RunScalar(prog);
  EXPECT_EQ(prog.maps[0]->LookupU64(0).value(), 9u);
}

TEST(Interpreter, HelpersRandomAndTime) {
  EXPECT_EQ(RunScalar(Load("call get_prandom_u32\nexit\n")), 4u);
  EXPECT_EQ(RunScalar(Load("call ktime_get_ns\nexit\n")), 123'456u);
}

TEST(Interpreter, HelperClobbersArgRegistersPreservesCallee) {
  EXPECT_EQ(RunScalar(Load(R"(
    mov r6, 55
    mov r1, 99
    call get_prandom_u32
    mov r0, r6        ; r6 survives the call
    exit
  )")), 55u);
  EXPECT_EQ(RunScalar(Load(R"(
    mov r3, 77
    call get_prandom_u32
    mov r0, r3        ; r3 was clobbered to 0
    exit
  )")), 0u);
}

TEST(Interpreter, CountsInstructions) {
  Program prog = Load("mov r0, 1\nadd r0, 1\nexit\n");
  Interpreter interp(TestEnv());
  auto result = interp.Run(prog, 0, 0, false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->insns_executed, 3u);
}

TEST(Interpreter, RunawayProgramKilled) {
  Program prog = Load("mov r0, 0\nloop:\nadd r0, 1\nja loop\n");
  Interpreter interp(TestEnv());
  auto result = interp.Run(prog, 0, 0, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Interpreter, TailCallTransfersExecution) {
  // Target program: returns 77.
  auto target = std::make_shared<Program>(Load("mov r0, 77\nexit\n"));

  Program root = Load(R"(
    .map progs prog_array 4 8 4
    mov r1, 0
    ldmapfd r2, progs
    mov r3, 2
    call tail_call
    mov r0, 11    ; only reached when the slot is empty
    exit
  )");
  auto* prog_array = static_cast<ProgArrayMap*>(root.maps[0].get());

  Interpreter interp(TestEnv(), [&](uint64_t id) -> const Program* {
    return id == 500 ? target.get() : nullptr;
  });

  // Empty slot: falls through.
  auto miss = interp.Run(root, 0, 0, false);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->r0, 11u);
  EXPECT_EQ(miss->tail_calls, 0u);

  // Installed slot: control transfers and never comes back.
  uint32_t key = 2;
  uint64_t prog_id = 500;
  ASSERT_TRUE(prog_array->Update(&key, &prog_id, UpdateFlag::kAny).ok());
  auto hit = interp.Run(root, 0, 0, false);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->r0, 77u);
  EXPECT_EQ(hit->tail_calls, 1u);
}

TEST(Interpreter, TailCallChainBounded) {
  // A program that tail-calls itself forever is cut off at kMaxTailCalls.
  Program self = Load(R"(
    .map progs prog_array 4 8 1
    mov r1, 0
    ldmapfd r2, progs
    mov r3, 0
    call tail_call
    mov r0, 0
    exit
  )");
  auto* prog_array = static_cast<ProgArrayMap*>(self.maps[0].get());
  uint32_t key = 0;
  uint64_t prog_id = 1;
  ASSERT_TRUE(prog_array->Update(&key, &prog_id, UpdateFlag::kAny).ok());
  Interpreter interp(TestEnv(), [&](uint64_t) { return &self; });
  auto result = interp.Run(self, 0, 0, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}


TEST(Interpreter, JsetTestsBits) {
  const char* source = R"(
    jset r1, 0x10, bit_set
    mov r0, 0
    exit
  bit_set:
    mov r0, 1
    exit
  )";
  Program prog = Load(source);
  EXPECT_EQ(RunScalar(prog, 0x30, 0), 1u);
  EXPECT_EQ(RunScalar(prog, 0x0F, 0), 0u);
}

TEST(Interpreter, RegisterFlavorsOfJumps) {
  const char* source = R"(
    jle r1, r2, le
    mov r0, 0
    exit
  le:
    mov r0, 1
    exit
  )";
  Program prog = Load(source);
  EXPECT_EQ(RunScalar(prog, 3, 3), 1u);
  EXPECT_EQ(RunScalar(prog, 4, 3), 0u);
}

TEST(Interpreter, Be64SwapsAllBytes) {
  EXPECT_EQ(RunScalar(Load("mov r0, 0x0102030405060708\nbe64 r0\nexit\n")),
            0x0807060504030201u);
}

TEST(Interpreter, HalfwordStackRoundtrip) {
  EXPECT_EQ(RunScalar(Load(R"(
    sth [r10-2], 0x1234
    ldxh r0, [r10-2]
    exit
  )")), 0x1234u);
}

TEST(Interpreter, ShiftAmountsMasked) {
  // Shift counts wrap at 64, as on x86/eBPF.
  EXPECT_EQ(RunScalar(Load("mov r0, 1\nlsh r0, 65\nexit\n")), 2u);
}

TEST(Interpreter, NegativeJumpOffsetsWork) {
  EXPECT_EQ(RunScalar(Load(R"(
    mov r0, 0
    mov r1, 3
  back:
    add r0, 10
    sub r1, 1
    jgt r1, 0, back
    exit
  )")), 30u);
}

TEST(Interpreter, ArithOnTwoRegisters) {
  const char* source = R"(
    mov r0, r1
    mul r0, r2
    mod r0, 97
    exit
  )";
  Program prog = Load(source);
  EXPECT_EQ(RunScalar(prog, 12, 13), (12u * 13u) % 97u);
}

}  // namespace
}  // namespace syrup::bpf
