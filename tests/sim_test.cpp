// Simulator semantics and timing tests.
#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "experiments/harness.hpp"
#include "isa/assembler.hpp"
#include "sim/core.hpp"
#include "workloads/workload.hpp"

namespace warp::sim {
namespace {

using isa::CpuConfig;

struct Fixture {
  Memory instr{1 << 14};
  Memory data{1 << 16};
  Core core;
  explicit Fixture(CpuConfig cfg = CpuConfig::full()) : core(instr, data, cfg) {}

  StopReason run(const std::string& source) {
    auto prog = isa::assemble(source, core.config());
    EXPECT_TRUE(prog.is_ok()) << prog.message();
    core.load_program(prog.value());
    return core.run(1'000'000);
  }
};

TEST(Sim, ArithmeticBasics) {
  Fixture f;
  EXPECT_EQ(f.run(R"(
    li r2, 7
    li r3, 5
    add r4, r2, r3
    sub r5, r2, r3
    mul r6, r2, r3
    halt
  )"), StopReason::kHalted);
  EXPECT_EQ(f.core.reg(4), 12u);
  EXPECT_EQ(f.core.reg(5), 2u);
  EXPECT_EQ(f.core.reg(6), 35u);
}

TEST(Sim, RegisterZeroIsHardwired) {
  Fixture f;
  f.run("addi r0, r0, 55\nadd r2, r0, r0\nhalt\n");
  EXPECT_EQ(f.core.reg(0), 0u);
  EXPECT_EQ(f.core.reg(2), 0u);
}

TEST(Sim, ShiftsAndLogic) {
  Fixture f;
  f.run(R"(
    li r2, 0xF0
    bslli r3, r2, 4
    bsrli r4, r2, 4
    li r5, -16
    bsrai r6, r5, 2
    andi r7, r2, 0x3C
    ori r8, r2, 0x0F
    xori r9, r2, 0xFF
    sext8 r10, r2
    halt
  )");
  EXPECT_EQ(f.core.reg(3), 0xF00u);
  EXPECT_EQ(f.core.reg(4), 0xFu);
  EXPECT_EQ(f.core.reg(6), static_cast<std::uint32_t>(-4));
  EXPECT_EQ(f.core.reg(7), 0x30u);
  EXPECT_EQ(f.core.reg(8), 0xFFu);
  EXPECT_EQ(f.core.reg(9), 0x0Fu);
  EXPECT_EQ(f.core.reg(10), static_cast<std::uint32_t>(-16));
}

TEST(Sim, CompareSemantics) {
  Fixture f;
  f.run(R"(
    li r2, -3
    li r3, 4
    cmp r4, r2, r3
    cmp r5, r3, r2
    cmp r6, r3, r3
    cmpu r7, r2, r3
    halt
  )");
  EXPECT_EQ(f.core.reg(4), static_cast<std::uint32_t>(-1));  // -3 < 4
  EXPECT_EQ(f.core.reg(5), 1u);
  EXPECT_EQ(f.core.reg(6), 0u);
  EXPECT_EQ(f.core.reg(7), 1u);  // unsigned: 0xFFFFFFFD > 4
}

TEST(Sim, MemoryAccessSizes) {
  Fixture f;
  f.run(R"(
    li r2, 0x100
    li r3, 0x11223344
    swi r3, r2, 0
    lwi r4, r2, 0
    lbui r5, r2, 0
    lbui r6, r2, 3
    lhui r7, r2, 0
    li r8, 0xAB
    sbi r8, r2, 1
    lwi r9, r2, 0
    halt
  )");
  EXPECT_EQ(f.core.reg(4), 0x11223344u);
  EXPECT_EQ(f.core.reg(5), 0x44u);
  EXPECT_EQ(f.core.reg(6), 0x11u);
  EXPECT_EQ(f.core.reg(7), 0x3344u);
  EXPECT_EQ(f.core.reg(9), 0x1122AB44u);
}

TEST(Sim, LoopExecutesExactTripCount) {
  Fixture f;
  f.run(R"(
    li r2, 10
    li r3, 0
  loop:
    addi r3, r3, 2
    addi r2, r2, -1
    bne r2, loop
    halt
  )");
  EXPECT_EQ(f.core.reg(3), 20u);
  EXPECT_EQ(f.core.stats().taken_branches, 9u);
  EXPECT_EQ(f.core.stats().not_taken_branches, 1u);
}

TEST(Sim, CallAndReturn) {
  Fixture f;
  f.run(R"(
    li r5, 21
    call double_it
    mv r6, r3
    halt
  double_it:
    add r3, r5, r5
    ret
  )");
  EXPECT_EQ(f.core.reg(6), 42u);
}

TEST(Sim, ImmPrefixFormsFullConstant) {
  Fixture f;
  f.run("li r2, 0xCAFEBABE\nhalt\n");
  EXPECT_EQ(f.core.reg(2), 0xCAFEBABEu);
}

TEST(Sim, NegativeLargeConstant) {
  Fixture f;
  f.run("li r2, -100000\nhalt\n");
  EXPECT_EQ(f.core.reg(2), static_cast<std::uint32_t>(-100000));
}

TEST(Sim, CycleAccountingPerClass) {
  Fixture f;
  f.run(R"(
    add r2, r0, r0
    mul r3, r2, r2
    lwi r4, r0, 0
    halt
  )");
  // add(1) + mul(3) + lwi(2) + halt(1) = 7
  EXPECT_EQ(f.core.stats().cycles, 7u);
  EXPECT_EQ(f.core.stats().instructions, 4u);
}

TEST(Sim, MissingMultiplierTraps) {
  Fixture f(CpuConfig::minimal());
  // Hand-encode a mul (the assembler would refuse).
  isa::Instr mul;
  mul.op = isa::Opcode::kMul;
  mul.rd = 2;
  f.instr.write32(0, isa::encode(mul));
  f.core.reset();
  EXPECT_EQ(f.core.run(10), StopReason::kError);
  EXPECT_EQ(f.core.error(), "instruction 'mul' at pc 0x00000000 needs an absent unit");
  // The trapping word is not cached: it traps again on the next execution.
  f.core.reset();
  EXPECT_EQ(f.core.run(10), StopReason::kError);
  EXPECT_EQ(f.core.stats().instructions, 0u);
}

TEST(Sim, SoftwareMultiplyMatchesHardware) {
  // The injected __mulsi3 must agree with the mul instruction, including
  // negatives (product is correct modulo 2^32).
  const std::string body = R"(
    li r20, -1234
    li r21, 5678
    mul_p r22, r20, r21
    halt
  )";
  Fixture hw(CpuConfig::full());
  hw.run(body);
  Fixture sw(CpuConfig::minimal());
  sw.run(body);
  EXPECT_EQ(hw.core.reg(22), sw.core.reg(22));
  EXPECT_EQ(hw.core.reg(22), static_cast<std::uint32_t>(-1234 * 5678));
}

TEST(Sim, DivideOverflowMatchesSoftwareDivide) {
  // INT_MIN / -1 overflows: the divider gives INT_MIN, as MicroBlaze does
  // and as the injected __divsi3 computes.
  const std::string body = R"(
    li r20, 0x80000000
    li r21, -1
    div_p r22, r20, r21
    halt
  )";
  Fixture hw(CpuConfig::full());
  ASSERT_EQ(hw.run(body), StopReason::kHalted) << hw.core.error();
  ASSERT_EQ(hw.core.stats().count(isa::InstrClass::kDiv), 1u);  // a real idiv
  Fixture sw(CpuConfig::minimal());
  ASSERT_EQ(sw.run(body), StopReason::kHalted) << sw.core.error();
  EXPECT_EQ(hw.core.reg(22), sw.core.reg(22));
  EXPECT_EQ(hw.core.reg(22), 0x80000000u);
}

TEST(Sim, SoftwareDivideWorks) {
  Fixture f(CpuConfig::minimal());
  f.run(R"(
    li r20, 1000
    li r21, 7
    div_p r22, r20, r21
    li r20, -1000
    div_p r23, r20, r21
    halt
  )");
  EXPECT_EQ(f.core.reg(22), 142u);
  EXPECT_EQ(f.core.reg(23), static_cast<std::uint32_t>(-142));
}

TEST(Sim, StopsAtInstructionBudget) {
  Fixture f;
  auto prog = isa::assemble("loop: br loop\n", CpuConfig::full());
  f.core.load_program(prog.value());
  EXPECT_EQ(f.core.run(100), StopReason::kMaxInstructions);
}

TEST(Sim, JumpPastTopOfAddressSpaceIsBadPc) {
  // pc + 4 wraps to 0 in 32 bits; the bound must not.
  Fixture f;
  EXPECT_EQ(f.run("li r2, -4\nbrr r2\n"), StopReason::kError);
  EXPECT_EQ(f.core.error(), "bad PC 0xfffffffc");
}

TEST(Sim, MemoryRejectsAccessesThatWrapPastFourGiB) {
  Memory mem(1 << 10);
  for (const std::uint32_t addr : {0xFFFFFFFEu, 0xFFFFFFFFu}) {
    EXPECT_THROW(mem.read8(addr), common::InternalError) << addr;
    EXPECT_THROW(mem.read16(addr), common::InternalError) << addr;
    EXPECT_THROW(mem.read32(addr), common::InternalError) << addr;
    EXPECT_THROW(mem.write8(addr, 1), common::InternalError) << addr;
    EXPECT_THROW(mem.write16(addr, 1), common::InternalError) << addr;
    EXPECT_THROW(mem.write32(addr, 1), common::InternalError) << addr;
  }
}

// The decode table must never outlive the words it was decoded from: any
// write to the instruction Memory reaches the next fetch.
std::uint32_t addi(unsigned rd, unsigned ra, std::int32_t imm) {
  isa::Instr instr;
  instr.op = isa::Opcode::kAddi;
  instr.rd = static_cast<std::uint8_t>(rd);
  instr.ra = static_cast<std::uint8_t>(ra);
  instr.imm = imm;
  return isa::encode(instr);
}

TEST(Sim, Write32ToInstructionMemoryReachesNextRun) {
  Fixture f;
  ASSERT_EQ(f.run("addi r2, r0, 1\nhalt\n"), StopReason::kHalted);
  ASSERT_EQ(f.core.reg(2), 1u);
  f.instr.write32(0, addi(2, 0, 2));
  f.core.reset();
  EXPECT_EQ(f.core.run(10), StopReason::kHalted);
  EXPECT_EQ(f.core.reg(2), 2u);
}

TEST(Sim, LoadWordsToInstructionMemoryReachesNextRun) {
  Fixture f;
  ASSERT_EQ(f.run("addi r2, r0, 1\naddi r3, r0, 1\nhalt\n"), StopReason::kHalted);
  f.instr.load_words(4, {addi(3, 0, 3)});
  f.core.reset();
  EXPECT_EQ(f.core.run(10), StopReason::kHalted);
  EXPECT_EQ(f.core.reg(2), 1u);
  EXPECT_EQ(f.core.reg(3), 3u);
}

TEST(Sim, StoreIntoSharedInstructionMemoryReachesNextFetch) {
  // One Memory as both BRAMs: the loop body rewrites its own first word
  // after executing it once, so the second iteration runs the new word.
  Memory mem(1 << 14);
  Core core(mem, mem, CpuConfig::full());
  auto prog = isa::assemble(R"(
    li r5, 2
    lwi r3, r0, replacement
  slot:
    addi r4, r4, 1
    swi r3, r0, slot
    addi r5, r5, -1
    bne r5, slot
    halt
  replacement:
    addi r4, r4, 100
  )", core.config());
  ASSERT_TRUE(prog.is_ok()) << prog.message();
  core.load_program(prog.value());
  EXPECT_EQ(core.run(100), StopReason::kHalted) << core.error();
  EXPECT_EQ(core.reg(4), 101u);
}

TEST(Sim, BranchHookSeesBackwardBranches) {
  Fixture f;
  unsigned backward = 0;
  f.core.set_branch_hook([&](std::uint32_t pc, std::uint32_t target, bool taken) {
    if (taken && target < pc) ++backward;
  });
  f.run(R"(
    li r2, 5
  loop:
    addi r2, r2, -1
    bne r2, loop
    halt
  )");
  EXPECT_EQ(backward, 4u);
}

void hash_core_stats(common::Hasher& h, const CoreStats& s) {
  h.u64(s.cycles).u64(s.idle_cycles).u64(s.instructions);
  h.u64(s.taken_branches).u64(s.not_taken_branches);
  for (const std::uint64_t n : s.per_class) h.u64(n);
}

// The ISS's exact output is pinned: every simulated statistic, the
// profiler's candidates and the final data image of each kernel under the
// three Section-2 configurations (as perfbench's sw_profile runs them). The
// digest was generated before the decode table replaced per-step decoding;
// regenerate it only for a change meant to alter simulated results.
TEST(Sim, SoftwareRunsMatchPinnedDigest) {
  const CpuConfig configs[] = {
      {true, true, false, 85.0},    // full
      {true, false, false, 85.0},   // no_mul
      {false, false, false, 85.0},  // minimal
  };
  common::Hasher h;
  for (const auto& w : workloads::extended_workloads()) {
    for (const CpuConfig& cpu : configs) {
      auto program = isa::assemble(w.source, cpu);
      ASSERT_TRUE(program.is_ok()) << w.name << ": " << program.message();
      warpsys::WarpSystemConfig config = experiments::default_options().system;
      config.cpu = cpu;
      warpsys::WarpSystem system(std::move(program).value(), w.init, config);
      const auto sw = system.run_software();
      ASSERT_TRUE(sw.is_ok()) << w.name << ": " << sw.message();
      h.str(w.name);
      hash_core_stats(h, sw.value().core);
      for (const auto& c : system.loop_profiler().candidates()) {
        h.u32(c.branch_pc).u32(c.target_pc).u64(c.count);
      }
      h.u64(system.data_mem().checksum_words());
    }
  }
  EXPECT_EQ(h.finish().to_string(), "13df49e7c9afdd51:860b3c0fbbfd0421");
}

// Same pin for the warped runs of the default configuration: the patched
// binary's core statistics and the WCLA's.
TEST(Sim, WarpedRunsMatchPinnedDigest) {
  const experiments::HarnessOptions options = experiments::default_options();
  common::Hasher h;
  for (const auto& w : workloads::extended_workloads()) {
    auto program = isa::assemble(w.source, options.cpu);
    ASSERT_TRUE(program.is_ok()) << w.name << ": " << program.message();
    warpsys::WarpSystem system(std::move(program).value(), w.init, options.system);
    ASSERT_TRUE(system.run_software().is_ok()) << w.name;
    const bool partitioned = system.warp().success;
    const auto warped = system.run_warped();
    ASSERT_TRUE(warped.is_ok()) << w.name << ": " << warped.message();
    h.str(w.name).boolean(partitioned);
    hash_core_stats(h, warped.value().core);
    const hwsim::WclaStats& wcla = warped.value().wcla;
    h.u64(wcla.invocations).u64(wcla.wcla_cycles).f64(wcla.busy_ns);
  }
  EXPECT_EQ(h.finish().to_string(), "4f2a6087c4c1a078:dd8c8e0cab6ca868");
}

}  // namespace
}  // namespace warp::sim
