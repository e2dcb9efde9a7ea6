#include <gtest/gtest.h>

#include "src/bpf/assembler.h"
#include "src/bpf/insn.h"

namespace syrup::bpf {
namespace {

TEST(Assembler, MinimalProgram) {
  auto result = Assemble(R"(
    mov r0, 0
    exit
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->insns.size(), 2u);
  EXPECT_EQ(result->insns[0].op, Op::kMovImm);
  EXPECT_EQ(result->insns[0].imm, 0);
  EXPECT_EQ(result->insns[1].op, Op::kExit);
  EXPECT_EQ(result->name, "anonymous");
  EXPECT_EQ(result->context, ProgramContext::kPacket);
}

TEST(Assembler, Directives) {
  auto result = Assemble(R"(
    .name my_policy
    .ctx thread
    mov r0, 0
    exit
  )");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->name, "my_policy");
  EXPECT_EQ(result->context, ProgramContext::kThread);
}

TEST(Assembler, RegisterVsImmediateFlavors) {
  auto result = Assemble(R"(
    mov r1, 5
    mov r2, r1
    add r1, r2
    add r1, -3
    exit
  )");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->insns[0].op, Op::kMovImm);
  EXPECT_EQ(result->insns[1].op, Op::kMovReg);
  EXPECT_EQ(result->insns[2].op, Op::kAddReg);
  EXPECT_EQ(result->insns[3].op, Op::kAddImm);
  EXPECT_EQ(result->insns[3].imm, -3);
}

TEST(Assembler, HexAndSymbolicImmediates) {
  auto result = Assemble(R"(
    mov r1, 0xFF
    mov r0, PASS
    mov r2, DROP
    exit
  )");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->insns[0].imm, 0xFF);
  EXPECT_EQ(static_cast<uint32_t>(result->insns[1].imm), 0xFFFFFFFFu);
  EXPECT_EQ(static_cast<uint32_t>(result->insns[2].imm), 0xFFFFFFFEu);
}

TEST(Assembler, MemoryOperands) {
  auto result = Assemble(R"(
    ldxw r3, [r1+8]
    ldxdw r4, [r10-16]
    stxb [r10-1], r3
    stw [r10-8], 77
    xadddw [r10-8], r4
    exit
  )");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->insns[0].op, Op::kLdxW);
  EXPECT_EQ(result->insns[0].off, 8);
  EXPECT_EQ(result->insns[1].off, -16);
  EXPECT_EQ(result->insns[2].op, Op::kStxB);
  EXPECT_EQ(result->insns[3].op, Op::kStW);
  EXPECT_EQ(result->insns[3].imm, 77);
  EXPECT_EQ(result->insns[4].op, Op::kAtomicAddDW);
}

TEST(Assembler, LabelsResolveForwardAndBackward) {
  auto result = Assemble(R"(
  top:
    add r1, 1
    jlt r1, 10, top
    jeq r1, 10, end
    mov r0, 1
  end:
    mov r0, 0
    exit
  )");
  ASSERT_TRUE(result.ok());
  // jlt at index 1 jumps back to 0: off = 0 - 2 = -2.
  EXPECT_EQ(result->insns[1].off, -2);
  // jeq at index 2 jumps to index 4: off = 4 - 3 = 1.
  EXPECT_EQ(result->insns[2].off, 1);
}

TEST(Assembler, NumericJumpOffsets) {
  auto result = Assemble(R"(
    ja +1
    mov r0, 1
    mov r0, 0
    exit
  )");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->insns[0].op, Op::kJa);
  EXPECT_EQ(result->insns[0].off, 1);
}

TEST(Assembler, CallByNameAndNumber) {
  auto result = Assemble(R"(
    call get_prandom_u32
    call 5
    mov r0, 0
    exit
  )");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->insns[0].imm,
            static_cast<int64_t>(HelperId::kGetPrandomU32));
  EXPECT_EQ(result->insns[1].imm, 5);
}

TEST(Assembler, MapDeclarationsAndReferences) {
  auto result = Assemble(R"(
    .map counters array 4 8 16
    .extern_map shared /syrup/app/shared
    ldmapfd r1, counters
    ldmapfd r2, shared
    mov r0, 0
    exit
  )");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->map_slots.size(), 2u);
  EXPECT_EQ(result->map_slots[0].name, "counters");
  EXPECT_FALSE(result->map_slots[0].is_extern);
  EXPECT_EQ(result->map_slots[0].spec.type, MapType::kArray);
  EXPECT_EQ(result->map_slots[0].spec.max_entries, 16u);
  EXPECT_TRUE(result->map_slots[1].is_extern);
  EXPECT_EQ(result->map_slots[1].path, "/syrup/app/shared");
  EXPECT_EQ(result->insns[0].imm, 0);
  EXPECT_EQ(result->insns[1].imm, 1);
}

TEST(Assembler, CommentsAndBlankLines) {
  auto result = Assemble(R"(
    ; full line comment
    # hash comment

    mov r0, 0   ; trailing comment
    exit        # another
  )");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->insns.size(), 2u);
}

// --- error cases ----------------------------------------------------------------

TEST(AssemblerErrors, UnknownMnemonic) {
  auto result = Assemble("frobnicate r1, r2\nexit\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown mnemonic"),
            std::string::npos);
}

TEST(AssemblerErrors, ErrorNamesLineNumber) {
  auto result = Assemble("mov r0, 0\nbogus\nexit\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(AssemblerErrors, UnknownLabel) {
  auto result = Assemble("jeq r1, 0, nowhere\nexit\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown label"),
            std::string::npos);
}

TEST(AssemblerErrors, DuplicateLabel) {
  EXPECT_FALSE(Assemble("a:\na:\nexit\n").ok());
}

TEST(AssemblerErrors, DuplicateMapName) {
  EXPECT_FALSE(Assemble(".map m array 4 8 1\n.map m array 4 8 1\nexit\n").ok());
}

TEST(AssemblerErrors, UnknownMapReference) {
  EXPECT_FALSE(Assemble("ldmapfd r1, nosuchmap\nexit\n").ok());
}

TEST(AssemblerErrors, BadRegister) {
  EXPECT_FALSE(Assemble("mov r11, 0\nexit\n").ok());
  EXPECT_FALSE(Assemble("mov rX, 0\nexit\n").ok());
}

TEST(AssemblerErrors, EmptyProgram) {
  EXPECT_FALSE(Assemble("; nothing\n").ok());
}

TEST(AssemblerErrors, BadMapType) {
  EXPECT_FALSE(Assemble(".map m ring 4 8 1\nexit\n").ok());
}

TEST(AssemblerErrors, MapSizeMustFitItsField) {
  // Truncated to uint32_t, 99999999999 would be 1,215,752,191 entries.
  auto result = Assemble(".map m array 4 8 99999999999\nexit\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "line 1: map size 99999999999 does not fit in 32 bits"),
            std::string::npos)
      << result.status();
  EXPECT_FALSE(Assemble(".map m hash 4294967296 8 1\nexit\n").ok());
  auto largest = Assemble(".map m array 4 4294967295 1\nexit\n");
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest->map_slots[0].spec.value_size, UINT32_MAX);
}

TEST(AssemblerErrors, BadDirective) {
  EXPECT_FALSE(Assemble(".wat 1\nexit\n").ok());
}

TEST(AssemblerErrors, BadCtx) {
  EXPECT_FALSE(Assemble(".ctx kernel\nexit\n").ok());
}

// --- disassembler round-trip sanity ----------------------------------------------

TEST(Disassemble, ProducesReadableText) {
  auto result = Assemble(R"(
    mov r1, 5
    ldxw r3, [r1+8]
    jeq r3, 0, +1
    mov r0, 0
    exit
  )");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Disassemble(result->insns[0]), "mov r1, 5");
  EXPECT_EQ(Disassemble(result->insns[1]), "ldxw r3, [r1+8]");
  EXPECT_EQ(Disassemble(result->insns[2]), "jeq r3, 0, +1");
  EXPECT_EQ(Disassemble(result->insns[4]), "exit");
}

}  // namespace
}  // namespace syrup::bpf
