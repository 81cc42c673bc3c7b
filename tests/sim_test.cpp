// Simulator semantics and timing tests.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/strings.hpp"
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

// 16- and 32-bit words are little-endian at every byte alignment, up to
// the last byte, and an access that straddles the end throws and writes
// nothing.
TEST(Sim, MemoryWordsAreLittleEndianAtAnyAlignment) {
  constexpr std::uint32_t kSize = 64;
  Memory mem(kSize);
  for (const std::uint32_t addr : {4u, 5u, 6u, 7u, kSize - 4}) {
    const std::uint32_t value = 0x11223344u + addr * 0x01010101u;
    mem.write32(addr, value);
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(mem.read8(addr + i), (value >> (8 * i)) & 0xFFu) << addr << '+' << i;
    }
    EXPECT_EQ(mem.read32(addr), value) << addr;
    EXPECT_EQ(mem.read16(addr), value & 0xFFFFu) << addr;
    EXPECT_EQ(mem.read16(addr + 2), value >> 16) << addr;
  }
  for (const std::uint32_t addr : {16u, 17u, 18u, 19u, kSize - 2}) {
    const auto value = static_cast<std::uint16_t>(0xA1B2u + addr);
    mem.write8(addr + 2 < kSize ? addr + 2 : addr - 1, 0x5A);  // a neighbour
    mem.write16(addr, value);
    EXPECT_EQ(mem.read8(addr), value & 0xFFu) << addr;
    EXPECT_EQ(mem.read8(addr + 1), value >> 8) << addr;
    EXPECT_EQ(mem.read16(addr), value) << addr;
    EXPECT_EQ(mem.read8(addr + 2 < kSize ? addr + 2 : addr - 1), 0x5Au) << addr;
  }
  for (std::uint32_t i = 0; i < 4; ++i) mem.write8(kSize - 4 + i, static_cast<std::uint8_t>(i + 1));
  EXPECT_EQ(mem.read32(kSize - 4), 0x04030201u);
  const std::uint64_t generation = mem.generation();
  EXPECT_THROW(mem.read32(kSize - 3), common::InternalError);
  EXPECT_THROW(mem.write32(kSize - 3, 0xFFFFFFFFu), common::InternalError);
  EXPECT_THROW(mem.read16(kSize - 1), common::InternalError);
  EXPECT_THROW(mem.write16(kSize - 1, 0xFFFF), common::InternalError);
  EXPECT_EQ(mem.read32(kSize - 4), 0x04030201u);
  EXPECT_EQ(mem.generation(), generation);
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
std::uint32_t encode(isa::Opcode op, unsigned rd, unsigned ra, std::int32_t imm) {
  isa::Instr instr;
  instr.op = op;
  instr.rd = static_cast<std::uint8_t>(rd);
  instr.ra = static_cast<std::uint8_t>(ra);
  instr.imm = imm;
  return isa::encode(instr);
}

std::uint32_t addi(unsigned rd, unsigned ra, std::int32_t imm) {
  return encode(isa::Opcode::kAddi, rd, ra, imm);
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

TEST(Sim, StoreIntoSharedInstructionMemoryReachesSameSuperblock) {
  // The store rewrites the word right after it, inside the superblock that
  // is running: the next instruction must be the new word.
  Memory mem(1 << 14);
  Core core(mem, mem, CpuConfig::full());
  auto prog = isa::assemble(R"(
    lwi r3, r0, replacement
    swi r3, r0, slot
  slot:
    addi r4, r4, 1
    halt
  replacement:
    addi r4, r4, 100
  )", core.config());
  ASSERT_TRUE(prog.is_ok()) << prog.message();
  core.load_program(prog.value());
  EXPECT_EQ(core.run(100), StopReason::kHalted) << core.error();
  EXPECT_EQ(core.reg(4), 100u);
  EXPECT_EQ(core.stats().instructions, 4u);
}

// The hook contract: only taken backward conditional branches, br and brl,
// with the branch pc and its target.
TEST(Sim, BranchHookSeesOnlyTakenBackwardBranches) {
  auto prog = isa::assemble(R"(
    li r2, 2
    br main            ; forward br
  func:
    addi r3, r3, 1
    ret                ; rtsd return
  main:
    beq r2, func       ; backward, not taken
  loop:
    call func          ; backward brl
    addi r2, r2, -1
  back:
    bne r2, loop       ; backward, taken once, then not taken
    halt
  )", CpuConfig::full());
  ASSERT_TRUE(prog.is_ok()) << prog.message();
  const std::uint32_t call = prog.value().label("loop");
  const std::uint32_t func = prog.value().label("func");
  const std::uint32_t back = prog.value().label("back");
  using Event = std::tuple<std::uint32_t, std::uint32_t, bool>;
  const std::vector<Event> expected{{call, func, true}, {back, call, true}, {call, func, true}};
  for (const bool stepped : {false, true}) {
    Fixture f;
    std::vector<Event> events;
    f.core.set_branch_hook([&](std::uint32_t pc, std::uint32_t target, bool taken) {
      events.emplace_back(pc, target, taken);
    });
    f.core.load_program(prog.value());
    if (stepped) {
      while (f.core.step()) {
      }
    } else {
      EXPECT_EQ(f.core.run(1000), StopReason::kHalted) << f.core.error();
    }
    EXPECT_EQ(f.core.reg(3), 2u) << stepped;
    EXPECT_EQ(events, expected) << stepped;
  }
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
const CpuConfig kSection2Configs[] = {
    {true, true, false, 85.0},    // full
    {true, false, false, 85.0},   // no_mul
    {false, false, false, 85.0},  // minimal
};

TEST(Sim, SoftwareRunsMatchPinnedDigest) {
  common::Hasher h;
  for (const auto& w : workloads::extended_workloads()) {
    for (const CpuConfig& cpu : kSection2Configs) {
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

// ---- run() against the step() reference ----------------------------------
//
// run() executes superblocks and charges their counters when it returns or
// throws; step() is the one-instruction reference. Whatever run() leaves
// must equal what a loop of step() leaves, at every budget.

// Every CoreStats field, the stop state, pc and all 32 registers, as text
// so that a mismatch prints both sides.
std::string core_state(const Core& core) {
  const CoreStats& s = core.stats();
  std::string out = common::format(
      "pc=%08x halted=%d cycles=%llu idle=%llu instructions=%llu taken=%llu not_taken=%llu "
      "classes=",
      core.pc(), core.halted() ? 1 : 0, static_cast<unsigned long long>(s.cycles),
      static_cast<unsigned long long>(s.idle_cycles),
      static_cast<unsigned long long>(s.instructions),
      static_cast<unsigned long long>(s.taken_branches),
      static_cast<unsigned long long>(s.not_taken_branches));
  for (const std::uint64_t n : s.per_class) {
    out += common::format("%llu,", static_cast<unsigned long long>(n));
  }
  out += " regs=";
  for (unsigned r = 0; r < isa::kNumRegisters; ++r) out += common::format("%x,", core.reg(r));
  return out;
}

// The same, compared without formatting: the lockstep check runs it after
// every call.
bool same_state(const Core& a, const Core& b) {
  if (a.stats() != b.stats() || a.pc() != b.pc() || a.halted() != b.halted()) return false;
  for (unsigned r = 0; r < isa::kNumRegisters; ++r) {
    if (a.reg(r) != b.reg(r)) return false;
  }
  return true;
}

std::string candidates_of(const profiler::Profiler& profiler) {
  std::string out;
  for (const auto& c : profiler.candidates()) {
    out += common::format("%x>%x:%llu ", c.branch_pc, c.target_pc,
                          static_cast<unsigned long long>(c.count));
  }
  return out;
}

// The current binary of `system` from reset, as WarpSystem::run_internal
// runs it, but one step() at a time. Like run_internal, a warped run
// (`profile` false) steps with the profiler detached; a profiled one feeds
// the profiler the constructor attached, so it must be the system's first.
void step_run(warpsys::WarpSystem& system, const workloads::Workload& w, bool profile) {
  w.init(system.data_mem());
  if (!profile) system.core().set_profiler(nullptr);
  system.core().reset();
  system.core().clear_stats();
  system.wcla().clear_stats();
  while (system.core().step()) {
  }
  system.data_mem().settle();
}

void expect_same_run(warpsys::WarpSystem& by_run, warpsys::WarpSystem& by_step,
                     const std::string& name, const char* phase) {
  EXPECT_EQ(core_state(by_run.core()), core_state(by_step.core())) << name << ' ' << phase;
  EXPECT_EQ(candidates_of(by_run.loop_profiler()), candidates_of(by_step.loop_profiler()))
      << name << ' ' << phase;
  EXPECT_EQ(by_run.data_mem().checksum_words(), by_step.data_mem().checksum_words())
      << name << ' ' << phase;
}

/// Two cores on separate copies of one image with their own profilers:
/// `run_core` runs, `step_core` steps. With `shared`, each core's
/// instruction Memory is its data Memory too.
struct Twin {
  Memory instr_a, data_a, instr_b, data_b;
  Core run_core, step_core;
  profiler::Profiler run_profiler, step_profiler;

  Twin(const std::vector<std::uint32_t>& words, CpuConfig cpu,
       const std::function<void(Memory&)>& init, std::size_t instr_bytes = 1 << 16,
       bool shared = false)
      : instr_a(instr_bytes),
        data_a(1 << 20),
        instr_b(instr_bytes),
        data_b(1 << 20),
        run_core(instr_a, shared ? instr_a : data_a, cpu),
        step_core(instr_b, shared ? instr_b : data_b, cpu) {
    instr_a.load_words(0, words);
    instr_b.load_words(0, words);
    if (init) {
      init(run_core.data_mem());
      init(step_core.data_mem());
    }
    run_core.set_profiler(&run_profiler);
    step_core.set_profiler(&step_profiler);
  }
};

const std::uint64_t kBudgets[] = {1, 2, 3, 5, 7, 13, 64, 1000};

// Repeats run(budget) on one core and `budget` step() calls on the other
// until halt, an error or a throw, comparing the two after every call.
void expect_lockstep(Twin& t, std::uint64_t budget, const std::string& what) {
  SCOPED_TRACE(what);
  SCOPED_TRACE(budget);
  for (int call = 0;; ++call) {
    ASSERT_LT(call, 10'000'000);
    std::string run_threw;
    std::string step_threw;
    try {
      t.run_core.run(budget);
    } catch (const common::InternalError& e) {
      run_threw = e.what();
    }
    try {
      for (std::uint64_t n = 0; n < budget && t.step_core.step(); ++n) {
      }
    } catch (const common::InternalError& e) {
      step_threw = e.what();
    }
    if (!same_state(t.run_core, t.step_core)) {
      ASSERT_EQ(core_state(t.run_core), core_state(t.step_core)) << "call " << call;
    }
    ASSERT_EQ(t.run_core.error(), t.step_core.error()) << "call " << call;
    ASSERT_EQ(run_threw, step_threw) << "call " << call;
    // The profile is exact whenever run() returns or throws.
    ASSERT_EQ(t.run_profiler.updates(), t.step_profiler.updates()) << "call " << call;
    if (!run_threw.empty()) {
      // The thrower left the IMM latch as step() does: the retry throws
      // again, or runs on, the same way on both cores.
      bool run_again = true;
      bool step_again = true;
      try {
        t.run_core.step();
      } catch (const common::InternalError&) {
        run_again = false;
      }
      try {
        t.step_core.step();
      } catch (const common::InternalError&) {
        step_again = false;
      }
      EXPECT_EQ(run_again, step_again);
      EXPECT_EQ(core_state(t.run_core), core_state(t.step_core));
      break;
    }
    if (t.run_core.halted()) break;
  }
  t.run_core.data_mem().settle();
  t.step_core.data_mem().settle();
  EXPECT_EQ(candidates_of(t.run_profiler), candidates_of(t.step_profiler));
  EXPECT_EQ(t.run_profiler.updates(), t.step_profiler.updates());
  EXPECT_EQ(t.run_core.data_mem().checksum_words(), t.step_core.data_mem().checksum_words());
}

// The 8 kernels under the three Section-2 configs (software runs), and
// their warped runs under the default config.
TEST(Sim, RunMatchesStepLoop) {
  const experiments::HarnessOptions options = experiments::default_options();
  for (const auto& w : workloads::extended_workloads()) {
    for (const CpuConfig& cpu : kSection2Configs) {
      auto program = isa::assemble(w.source, cpu);
      ASSERT_TRUE(program.is_ok()) << w.name << ": " << program.message();
      warpsys::WarpSystemConfig config = options.system;
      config.cpu = cpu;
      warpsys::WarpSystem by_run(program.value(), w.init, config);
      warpsys::WarpSystem by_step(program.value(), w.init, config);
      ASSERT_TRUE(by_run.run_software().is_ok()) << w.name;
      step_run(by_step, w, /*profile=*/true);
      expect_same_run(by_run, by_step, w.name, "software");
    }
    auto program = isa::assemble(w.source, options.cpu);
    ASSERT_TRUE(program.is_ok()) << w.name << ": " << program.message();
    warpsys::WarpSystem by_run(program.value(), w.init, options.system);
    warpsys::WarpSystem by_step(program.value(), w.init, options.system);
    ASSERT_TRUE(by_run.run_software().is_ok()) << w.name;
    step_run(by_step, w, /*profile=*/true);
    const bool partitioned = by_run.warp().success;
    ASSERT_EQ(by_step.warp().success, partitioned) << w.name;
    ASSERT_TRUE(by_run.run_warped().is_ok()) << w.name;
    step_run(by_step, w, /*profile=*/false);
    expect_same_run(by_run, by_step, w.name, "warped");
  }
}

// run(budget) repeated until halt equals the step loop after every call:
// a superblock never runs past the budget, and each call charges exactly
// what retired. Three kernels cover the barrel-shifter forms (crc, full),
// the runtime multiply __mulsi3 (matmul, no_mul) and the n-step shift
// expansions (brev, minimal).
TEST(Sim, RunMatchesStepLoopAtEveryBudget) {
  const std::pair<const char*, CpuConfig> cases[] = {
      {"crc", kSection2Configs[0]}, {"matmul", kSection2Configs[1]}, {"brev", kSection2Configs[2]}};
  for (const auto& [name, cpu] : cases) {
    const workloads::Workload& w = workloads::workload_by_name(name);
    auto program = isa::assemble(w.source, cpu);
    ASSERT_TRUE(program.is_ok()) << w.name << ": " << program.message();
    for (const std::uint64_t budget : kBudgets) {
      Twin t(program.value().words, cpu, w.init);
      expect_lockstep(t, budget, w.name);
    }
  }
}

std::vector<std::uint32_t> assemble_words(const std::string& source, CpuConfig cpu) {
  auto program = isa::assemble(source, cpu);
  EXPECT_TRUE(program.is_ok()) << program.message();
  return program.is_ok() ? program.value().words : std::vector<std::uint32_t>{};
}

// Hand-written shapes at the superblock edges, each at every budget.
TEST(Sim, RunMatchesStepLoopOnSuperblockEdges) {
  const CpuConfig full = CpuConfig::full();
  const auto no_init = std::function<void(Memory&)>{};

  // Branches into the middle of a superblock: the forward br forms the
  // chain from `mid` first, and the backward bne then enters at `top`,
  // whose superblock links into it.
  const auto middle = assemble_words(R"(
    li r2, 3
    br mid
  top:
    addi r3, r3, 1
  mid:
    addi r3, r3, 10
    addi r2, r2, -1
    bne r2, top
    swi r3, r0, 0x100
    halt
  )", full);
  for (const std::uint64_t budget : kBudgets) {
    Twin t(middle, full, no_init);
    expect_lockstep(t, budget, "branch into the middle");
    EXPECT_EQ(t.run_core.reg(3), 32u);
  }

  // An IMM-prefixed bne whose combined offset is backward although its own
  // 16-bit field is forward (+16): 0xffff0010 = -65520. The bne sits at
  // 0x10000, so it needs a 128 KiB instruction memory; an IMM-prefixed br
  // gets there. Then a jump straight to the word after an IMM, where no
  // superblock may start: the latch is not armed, so the field is +16.
  std::vector<std::uint32_t> far(0x10000 / 4 + 8, encode(isa::Opcode::kHalt, 0, 0, 0));
  far[0x00 / 4] = encode(isa::Opcode::kAddi, 2, 0, 3);           // r2 = 3
  far[0x04 / 4] = encode(isa::Opcode::kBr, 0, 0, 0x0C);          // br 0x10
  far[0x10 / 4] = encode(isa::Opcode::kAddi, 2, 2, -1);          // loop: r2 -= 1
  far[0x14 / 4] = encode(isa::Opcode::kImm, 0, 0, 0);            // imm 0x0000
  far[0x18 / 4] = encode(isa::Opcode::kBr, 0, 0, 0xFFE4);        // br +65508 -> 0xfffc
  far[0xFFFC / 4] = encode(isa::Opcode::kImm, 0, 0, 0xFFFF);     // imm 0xffff
  far[0x10000 / 4] = encode(isa::Opcode::kBne, 0, 2, 0x0010);    // bne r2, loop
  far[0x10004 / 4] = encode(isa::Opcode::kAddi, 4, 0, 0x20);     // r4 = 0x20
  for (const std::uint64_t budget : kBudgets) {
    Twin t(far, full, no_init, 1 << 17);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> seen;
    t.run_core.set_branch_hook([&](std::uint32_t pc, std::uint32_t target, bool) {
      seen.emplace_back(pc, target);
    });
    expect_lockstep(t, budget, "IMM-prefixed backward bne");
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> loops{{0x10000, 0x10},
                                                                     {0x10000, 0x10}};
    EXPECT_EQ(seen, loops) << budget;
    EXPECT_EQ(t.run_core.reg(2), 0u);
  }
  std::vector<std::uint32_t> after_imm{
      encode(isa::Opcode::kBr, 0, 0, 8),        // br 0x08: skips the IMM
      encode(isa::Opcode::kImm, 0, 0, 0x1234),  // imm 0x1234
      encode(isa::Opcode::kAddi, 2, 0, 5),      // r2 = 5, not 0x12340005
      encode(isa::Opcode::kHalt, 0, 0, 0)};
  for (const std::uint64_t budget : kBudgets) {
    Twin t(after_imm, full, no_init);
    expect_lockstep(t, budget, "jump past an IMM");
    EXPECT_EQ(t.run_core.reg(2), 5u);
  }

  // An IMM latch armed at entry: a step() runs the IMM, and the core then
  // resumes at a word that does not follow it, which still takes the latch.
  const std::vector<std::uint32_t> armed{
      encode(isa::Opcode::kImm, 0, 0, 0x0001),  // imm 0x0001
      encode(isa::Opcode::kHalt, 0, 0, 0),
      encode(isa::Opcode::kAddi, 2, 0, 5),      // r2 = 0x00010005
      encode(isa::Opcode::kHalt, 0, 0, 0)};
  for (const std::uint64_t budget : kBudgets) {
    Twin t(armed, full, no_init);
    for (Core* core : {&t.run_core, &t.step_core}) {
      ASSERT_TRUE(core->step());
      core->set_pc(8);
    }
    expect_lockstep(t, budget, "IMM latch armed at entry");
    EXPECT_EQ(t.run_core.reg(2), 0x10005u);
  }

  // A mul on a core without a multiplier, after a not-taken branch in the
  // same superblock: it traps only when it executes, and again after
  // reset(). Assembled for the full core, run on the minimal one.
  const auto trap = assemble_words(R"(
    lwi r2, r0, 0x100
    beq r2, skip
    mul r4, r2, r2
  skip:
    halt
  )", full);
  for (const std::uint32_t flag : {0u, 1u}) {
    const auto init = [flag](Memory& m) { m.write32(0x100, flag); };
    for (const std::uint64_t budget : kBudgets) {
      Twin t(trap, CpuConfig::minimal(), init);
      expect_lockstep(t, budget, common::format("absent unit, flag %u", flag));
      EXPECT_EQ(t.run_core.error().empty(), flag == 0) << budget;
      t.run_core.reset();
      t.step_core.reset();
      expect_lockstep(t, budget, common::format("absent unit after reset, flag %u", flag));
      EXPECT_EQ(t.run_core.error().empty(), flag == 0) << budget;
    }
  }

  // Throws in the middle of a superblock, at its first entry, and in an
  // IMM-prefixed word: stats() after the throw charges exactly what
  // retired before it, and the IMM latch stays armed as step() leaves it.
  const char* const throwing_sources[] = {
      R"(
    li r2, 0x80001000     ; no device there
    addi r3, r0, 5
    addi r3, r3, 1
    lwi r4, r2, 0
    halt
  )",
      R"(
    li r2, 0x100000       ; one past the data BRAM
    addi r3, r0, 5
    addi r3, r3, 1
    swi r3, r2, 0
    halt
  )",
      R"(
    li r2, 0x80001000
    addi r3, r0, 5
    br load
    halt
  load:
    lwi r4, r2, 0
    halt
  )",
  };
  std::vector<std::vector<std::uint32_t>> throws;
  for (const char* source : throwing_sources) throws.push_back(assemble_words(source, full));
  throws.push_back({encode(isa::Opcode::kAddi, 3, 0, 5),
                    encode(isa::Opcode::kImm, 0, 0, 0x8000),   // imm 0x8000
                    encode(isa::Opcode::kLwi, 4, 0, 0),        // lwi r4, r0, 0x80000000
                    encode(isa::Opcode::kHalt, 0, 0, 0)});
  for (std::size_t i = 0; i < std::size(throws); ++i) {
    for (const std::uint64_t budget : kBudgets) {
      Twin t(throws[i], full, no_init);
      expect_lockstep(t, budget, common::format("throw %zu", i));
      EXPECT_FALSE(t.run_core.halted()) << i;
      EXPECT_EQ(t.run_core.reg(3), i < 2 ? 6u : 5u) << i;
    }
  }
}

// Chains: a superblock that ends on a taken branch, a jump or a return
// continues into the superblock at its target. Each shape runs at every
// budget against the step loop, and the branch hook must see the same
// events in the same order.
TEST(Sim, RunMatchesStepLoopAcrossChains) {
  const CpuConfig full = CpuConfig::full();
  const auto no_init = std::function<void(Memory&)>{};
  using Events = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  const auto record = [](Core& core, Events& events) {
    core.set_branch_hook([&events](std::uint32_t pc, std::uint32_t target, bool) {
      events.emplace_back(pc, target);
    });
  };

  // Nested loops: the inner bne and the outer br alternate within one
  // chain. A 2-entry profiler that halves every 3 updates and saturates at
  // 3 shows any lost, extra or reordered event in its candidates.
  const auto nested = assemble_words(R"(
    li r2, 4
  outer:
    beq r2, done
    li r3, 3
  inner:
    addi r4, r4, 1
    addi r3, r3, -1
    bne r3, inner
    addi r2, r2, -1
    br outer
  done:
    swi r4, r0, 0x100
    halt
  )", full);
  profiler::ProfilerConfig tiny;
  tiny.entries = 2;
  tiny.counter_bits = 2;
  tiny.decay_interval = 3;
  for (const std::uint64_t budget : kBudgets) {
    Twin t(nested, full, no_init);
    t.run_profiler = profiler::Profiler(tiny);
    t.step_profiler = profiler::Profiler(tiny);
    Events run_events, step_events;
    record(t.run_core, run_events);
    record(t.step_core, step_events);
    expect_lockstep(t, budget, "nested loops");
    EXPECT_EQ(t.run_core.reg(4), 12u);
    EXPECT_EQ(t.run_profiler.updates(), 12u);  // 8 inner and 4 outer
    EXPECT_EQ(run_events, step_events);
  }

  // A brl call and an rtsd return into formed superblocks. The callee sits
  // right after halt, formed by the first call: nothing runs past halt.
  const auto call = assemble_words(R"(
    li r5, 3
  loop:
    call func
    addi r5, r5, -1
    bne r5, loop
    halt
  func:
    addi r3, r3, 1
    ret
  )", full);
  for (const std::uint64_t budget : kBudgets) {
    Twin t(call, full, no_init);
    Events run_events, step_events;
    record(t.run_core, run_events);
    record(t.step_core, step_events);
    expect_lockstep(t, budget, "call and return");
    EXPECT_TRUE(t.run_core.halted());
    EXPECT_EQ(t.run_core.reg(3), 3u);
    EXPECT_EQ(run_events, step_events);
  }

  // A backward bne onto the word after an imm: the first pass runs the
  // addi with the combined immediate 0x10005, every branch back with 5.
  const std::vector<std::uint32_t> onto_prefixed{
      encode(isa::Opcode::kAddi, 2, 0, 3),          // r2 = 3
      encode(isa::Opcode::kImm, 0, 0, 0x0001),      // imm 0x0001
      encode(isa::Opcode::kAddi, 3, 3, 5),          // again: r3 += 5 (0x10005 after the imm)
      encode(isa::Opcode::kAddi, 2, 2, -1),         // r2 -= 1
      encode(isa::Opcode::kBne, 0, 2, -8),          // bne r2, again
      encode(isa::Opcode::kHalt, 0, 0, 0)};
  for (const std::uint64_t budget : kBudgets) {
    Twin t(onto_prefixed, full, no_init);
    expect_lockstep(t, budget, "branch onto a prefixed word");
    EXPECT_EQ(t.run_core.reg(3), 0x10005u + 2 * 5u);
  }

  // One Memory as both BRAMs: each iteration's store rewrites the first
  // word of the superblock its br jumps to.
  const auto rewrite = assemble_words(R"(
    lwi r6, r0, replacement
    li r2, 3
  loop:
    swi r6, r0, next
    br next
  next:
    addi r4, r4, 1
    addi r2, r2, -1
    bne r2, loop
    halt
  replacement:
    addi r4, r4, 100
  )", full);
  for (const std::uint64_t budget : kBudgets) {
    Twin t(rewrite, full, no_init, 1 << 16, /*shared=*/true);
    expect_lockstep(t, budget, "store into the successor");
    EXPECT_EQ(t.run_core.reg(4), 300u);
  }

  // A branch hook that rewrites the loop's first word at the second loop
  // branch, while the chain would run on into that superblock.
  const auto hooked = assemble_words(R"(
    li r2, 4
  loop:
    addi r4, r4, 1
    addi r2, r2, -1
    bne r2, loop
    halt
  )", full);
  const std::uint32_t replacement = addi(4, 4, 100);
  for (const std::uint64_t budget : kBudgets) {
    Twin t(hooked, full, no_init);
    const std::uint32_t loop = 4;  // after li r2, 4
    int run_events = 0;
    int step_events = 0;
    t.run_core.set_branch_hook([&](std::uint32_t, std::uint32_t, bool) {
      if (++run_events == 2) t.instr_a.write32(loop, replacement);
    });
    t.step_core.set_branch_hook([&](std::uint32_t, std::uint32_t, bool) {
      if (++step_events == 2) t.instr_b.write32(loop, replacement);
    });
    expect_lockstep(t, budget, "hook rewrites the successor");
    EXPECT_EQ(t.run_core.reg(4), 1u + 1u + 100u + 100u);
    EXPECT_EQ(run_events, 3);
  }

  // An unmapped OPB load after four loop branches of one chain: the
  // profile holds all four when the throw leaves run().
  const auto throws = assemble_words(R"(
    li r2, 5
    li r5, 0x80001000     ; no device there
  loop:
    addi r3, r3, 1
    addi r2, r2, -1
    bne r2, loop
    lwi r4, r5, 0
    halt
  )", full);
  for (const std::uint64_t budget : kBudgets) {
    Twin t(throws, full, no_init);
    expect_lockstep(t, budget, "throw after a loop");
    EXPECT_EQ(t.run_core.reg(3), 5u);
    EXPECT_EQ(t.run_profiler.updates(), 4u);
  }
}

// WarpSystem feeds its profiler through the direct sink; a bare Core whose
// branch hook feeds a Profiler must end with the same candidates.
TEST(Sim, DirectProfilerSinkMatchesBranchHook) {
  const warpsys::WarpSystemConfig base = experiments::default_options().system;
  for (const auto& w : workloads::extended_workloads()) {
    for (const CpuConfig& cpu : kSection2Configs) {
      auto program = isa::assemble(w.source, cpu);
      ASSERT_TRUE(program.is_ok()) << w.name << ": " << program.message();
      warpsys::WarpSystemConfig config = base;
      config.cpu = cpu;
      warpsys::WarpSystem system(program.value(), w.init, config);
      ASSERT_TRUE(system.run_software().is_ok()) << w.name;

      Memory instr(config.instr_mem_bytes);
      Memory data(config.data_mem_bytes);
      Core core(instr, data, cpu);
      profiler::Profiler hooked(config.profiler);
      core.set_branch_hook([&](std::uint32_t pc, std::uint32_t target, bool taken) {
        hooked.on_branch(pc, target, taken);
      });
      core.load_program(program.value());
      w.init(data);
      ASSERT_EQ(core.run(config.max_instructions), StopReason::kHalted) << w.name;
      EXPECT_EQ(candidates_of(system.loop_profiler()), candidates_of(hooked)) << w.name;
      EXPECT_EQ(system.loop_profiler().updates(), hooked.updates()) << w.name;
      EXPECT_EQ(core_state(system.core()), core_state(core)) << w.name;
    }
  }
}

}  // namespace
}  // namespace warp::sim
