// End-to-end warp-processing tests: every benchmark must produce bit-exact
// results after warping, with the fabric cross-checked against the dataflow
// graph, and the expected performance/energy relations must hold. The
// warped run must also leave the software run's whole data image on the
// default packed engine, where the WCLA queues short invocations into
// shared lane blocks: across the registered workloads, and across the
// hazards and barriers of that queue on hand-written programs.
#include <gtest/gtest.h>

#include <map>

#include "common/error.hpp"
#include "experiments/harness.hpp"
#include "isa/assembler.hpp"
#include "serve/multiprocessor.hpp"

namespace warp {
namespace {

experiments::HarnessOptions verified_options() {
  auto options = experiments::default_options();
  options.verify_hw = true;  // fabric-vs-DFG cross-check on every HW write
  return options;
}

class BenchmarkWarpTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchmarkWarpTest, WarpsAndStaysBitExact) {
  const auto& workload = workloads::workload_by_name(GetParam());
  const auto result = experiments::run_benchmark(workload, verified_options());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.warped) << result.warp_detail;
  EXPECT_GT(result.warp_speedup, 1.0) << result.warp_detail;
  EXPECT_LT(result.warp_energy_norm, 1.0);
  EXPECT_GT(result.dpm_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkWarpTest,
                         ::testing::Values("brev", "g3fax", "canrdr", "bitmnp", "matmul",
                                           "crc"));

// idct is the heaviest CAD job; keep it in its own test so timing is visible.
// The DFG cross-check runs each of its 96 trip-8 invocations alone, as 8
// checked 1-lane blocks.
TEST(BenchmarkWarp, IdctWarpsAndStaysBitExact) {
  const auto& workload = workloads::workload_by_name("idct");
  const auto result = experiments::run_benchmark(workload, verified_options());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.warped) << result.warp_detail;
  EXPECT_GT(result.warp_speedup, 2.0);
  const hwsim::WclaStats& wcla = result.warp_run.wcla;
  EXPECT_EQ(wcla.invocations, 96u);
  EXPECT_EQ(wcla.runs_by_reason[static_cast<std::size_t>(hwsim::ScalarReason::kVerify)], 96u);
  EXPECT_EQ(wcla.packed_blocks, 768u);
}

TEST(BenchmarkWarp, BrevIsTheHeadlineKernel) {
  // Paper: brev reaches 16.9x and a 94% energy reduction, and its hardware
  // is pure wiring.
  const auto& workload = workloads::workload_by_name("brev");
  const auto result = experiments::run_benchmark(workload, verified_options());
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.warped);
  EXPECT_GT(result.warp_speedup, 10.0);
  EXPECT_LT(result.warp_energy_norm, 0.10);
  EXPECT_EQ(result.outcome.luts, 0u);  // "requiring only wires"
}

TEST(BenchmarkWarp, PaperShapeHolds) {
  const auto options = experiments::default_options();
  const auto results = experiments::run_all_benchmarks(options);
  double warp_sum = 0, arm10_sum = 0, arm11_sum = 0;
  double warp_energy = 0, arm10_energy = 0, arm11_energy = 0, mb_energy = 0;
  unsigned n = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
    ASSERT_TRUE(r.warped) << r.name << ": " << r.warp_detail;
    ++n;
    warp_sum += r.warp_speedup;
    arm10_sum += r.arm[2].speedup_vs_mb;
    arm11_sum += r.arm[3].speedup_vs_mb;
    warp_energy += r.warp_energy_norm;
    arm10_energy += r.arm[2].energy_vs_mb;
    arm11_energy += r.arm[3].energy_vs_mb;
    mb_energy += 1.0;
  }
  ASSERT_EQ(n, 6u);
  // Figure 6 shape: warp average in the 4..8x band (paper 5.8), faster than
  // the ARM10 on average, slower than the ARM11.
  EXPECT_GT(warp_sum / n, 4.0);
  EXPECT_LT(warp_sum / n, 8.0);
  EXPECT_GT(warp_sum, arm10_sum);
  EXPECT_LT(warp_sum, arm11_sum);
  // Figure 7 shape: warp cuts energy by more than half on average; the
  // MicroBlaze alone is the most energy-hungry system; warp beats ARM10/11.
  EXPECT_LT(warp_energy / n, 0.5);
  EXPECT_LT(warp_energy, arm10_energy);
  EXPECT_LT(arm10_energy, arm11_energy);
  EXPECT_LT(arm11_energy, mb_energy);
}

TEST(WarpSystem, FallsBackToSoftwareWhenUnsuitable) {
  // A pointer-chasing loop (data-dependent addresses) cannot be partitioned;
  // the system must keep running correctly in software.
  const char* source = R"(
    li r2, 0x1000
    li r3, 63
  loop:
    lwi r2, r2, 0       ; follow the chain
    addi r3, r3, -1
    bne r3, loop
    li r4, 0x100
    swi r2, r4, 0
    halt
  )";
  auto program = isa::assemble(source, isa::CpuConfig::full());
  ASSERT_TRUE(program.is_ok());
  warpsys::WarpSystemConfig config;
  config.cpu = isa::CpuConfig::full();
  auto init = [](sim::Memory& mem) {
    for (unsigned i = 0; i < 64; ++i) {
      mem.write32(0x1000 + 4 * i, 0x1000 + 4 * ((i + 1) % 64));
    }
  };
  warpsys::WarpSystem system(program.value(), init, config);
  ASSERT_TRUE(system.run_software().is_ok());
  const auto& outcome = system.warp();
  EXPECT_FALSE(outcome.success);
  auto rerun = system.run_warped();
  ASSERT_TRUE(rerun.is_ok());
  EXPECT_EQ(system.data_mem().read32(0x100), 0x1000u + 4u * 63u);
}

TEST(WarpSystem, RunSoftwareAfterWarpIsRefused) {
  // After a successful warp() the binary is patched: a profiled run of it
  // would invoke the WCLA and profile the stub, not the software baseline.
  const experiments::HarnessOptions options = experiments::default_options();
  const auto& idct = workloads::workload_by_name("idct");
  auto program = isa::assemble(idct.source, options.cpu);
  ASSERT_TRUE(program.is_ok()) << program.message();
  warpsys::WarpSystem system(std::move(program).value(), idct.init, options.system);
  ASSERT_TRUE(system.run_software().is_ok());
  ASSERT_TRUE(system.run_software().is_ok());  // profiling twice before warp() is fine
  ASSERT_TRUE(system.warp().success) << system.outcome()->detail;
  EXPECT_FALSE(system.run_software().is_ok());
  EXPECT_EQ(system.wcla().stats().invocations, 0u);
  const auto warped = system.run_warped();
  ASSERT_TRUE(warped.is_ok()) << warped.message();
  EXPECT_EQ(warped.value().wcla.invocations, 96u);
}

TEST(WarpSystem, WarpedRunLeavesProfileUnchanged) {
  // Only the software run feeds the profiler: after a warped run,
  // loop_profiler() still holds the software run's profile, every candidate
  // and every update of it.
  const experiments::HarnessOptions options = experiments::default_options();
  for (const auto& workload : workloads::extended_workloads()) {
    auto program = isa::assemble(workload.source, options.cpu);
    ASSERT_TRUE(program.is_ok()) << workload.name << ": " << program.message();
    warpsys::WarpSystem system(std::move(program).value(), workload.init, options.system);
    ASSERT_TRUE(system.run_software().is_ok()) << workload.name;
    const auto candidates = system.loop_profiler().candidates();
    const std::uint64_t updates = system.loop_profiler().updates();
    ASSERT_TRUE(system.warp().success) << workload.name << ": " << system.outcome()->detail;
    const auto warped = system.run_warped();
    ASSERT_TRUE(warped.is_ok()) << workload.name << ": " << warped.message();
    EXPECT_NE(warped.value().wcla.invocations, 0u) << workload.name;
    EXPECT_EQ(system.loop_profiler().updates(), updates) << workload.name;
    const auto after = system.loop_profiler().candidates();
    ASSERT_EQ(after.size(), candidates.size()) << workload.name;
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].branch_pc, candidates[i].branch_pc) << workload.name << ' ' << i;
      EXPECT_EQ(after[i].target_pc, candidates[i].target_pc) << workload.name << ' ' << i;
      EXPECT_EQ(after[i].count, candidates[i].count) << workload.name << ' ' << i;
    }
  }
}

TEST(WarpSystem, DpmTimeIsSecondsScale) {
  // The on-chip tools must be lean: partitioning time on the 85 MHz DPM
  // should be milliseconds-to-seconds, not hours (the JIT-compilation
  // claim of the warp-processing papers).
  const auto result = experiments::run_benchmark(workloads::workload_by_name("canrdr"),
                                                 experiments::default_options());
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.dpm_seconds, 1e-4);
  EXPECT_LT(result.dpm_seconds, 30.0);
}

TEST(Multiprocessor, SharedDpmRoundRobin) {
  // Figure 4: several processors share one DPM; later processors wait for
  // earlier partitioning jobs, but everyone eventually warps.
  std::vector<std::unique_ptr<warpsys::WarpSystem>> systems;
  std::vector<std::string> names = {"brev", "g3fax", "canrdr"};
  for (const auto& name : names) {
    const auto& w = workloads::workload_by_name(name);
    auto program = isa::assemble(w.source, isa::CpuConfig::full());
    ASSERT_TRUE(program.is_ok());
    warpsys::WarpSystemConfig config;
    config.cpu = isa::CpuConfig::full();
    config.dpm.synth.csd_max_terms = 2;
    systems.push_back(
        std::make_unique<warpsys::WarpSystem>(program.value(), w.init, config));
  }
  const auto entries = serve::run_multiprocessor(systems, names);
  ASSERT_EQ(entries.size(), 3u);
  double previous_wait = -1.0;
  for (const auto& entry : entries) {
    EXPECT_TRUE(entry.warped) << entry.name;
    EXPECT_GT(entry.speedup, 1.0) << entry.name;
    EXPECT_GE(entry.dpm_wait_seconds, previous_wait);
    previous_wait = entry.dpm_wait_seconds;
  }
  // The last processor's wait equals the sum of the earlier jobs.
  EXPECT_NEAR(entries[2].dpm_wait_seconds,
              entries[0].dpm_seconds + entries[1].dpm_seconds,
              1e-9 + 0.01 * entries[2].dpm_wait_seconds);
}

TEST(Sec2Ablation, BarrelShifterAndMultiplierMatter) {
  // Paper Section 2: brev runs ~2.1x slower without barrel shifter +
  // multiplier; matmul ~1.3x slower without the multiplier.
  const auto& brev = workloads::workload_by_name("brev");
  auto full = experiments::run_software_only(brev, isa::CpuConfig{true, true, false, 85.0});
  auto minimal = experiments::run_software_only(brev, isa::CpuConfig{false, false, false, 85.0});
  ASSERT_TRUE(full.is_ok()) << full.message();
  ASSERT_TRUE(minimal.is_ok()) << minimal.message();
  const double brev_ratio = minimal.value() / full.value();
  EXPECT_GT(brev_ratio, 1.5);
  EXPECT_LT(brev_ratio, 3.5);

  const auto& matmul = workloads::workload_by_name("matmul");
  auto with_mul = experiments::run_software_only(matmul, isa::CpuConfig{true, true, false, 85.0});
  auto no_mul = experiments::run_software_only(matmul, isa::CpuConfig{true, false, false, 85.0});
  ASSERT_TRUE(with_mul.is_ok());
  ASSERT_TRUE(no_mul.is_ok()) << no_mul.message();
  EXPECT_GT(no_mul.value() / with_mul.value(), 1.2);
}

// The registered workloads at the default packed engine, each with the
// default DPM and with max_candidates = 4: the warped run must leave the
// software run's whole data image, really invoke the WCLA, run every
// invocation packed, and evaluate the pinned number of lane blocks. idct's
// 96 trip-8 invocations share 3 blocks of 256 lanes (96 blocks when each
// ran alone); every other kernel observes data memory between invocations,
// reads an accumulator after each, or invokes once, so its count is the
// one it had before invocations shared blocks.
TEST(WarpTransparency, WholeDataImageMatchesSoftwareRun) {
  const std::map<std::string, std::uint64_t> expected_blocks = {
      {"brev", 32},  {"g3fax", 284},  {"canrdr", 256}, {"bitmnp", 64},
      {"idct", 3},   {"matmul", 576}, {"crc", 16},     {"fir", 4},
  };
  for (const unsigned max_candidates : {0u, 4u}) {
    experiments::HarnessOptions options = experiments::default_options();
    if (max_candidates != 0) options.system.dpm.max_candidates = max_candidates;
    for (const auto& w : workloads::extended_workloads()) {
      const std::string label = w.name + " max_candidates " + std::to_string(max_candidates);
      auto program = isa::assemble(w.source, options.cpu);
      ASSERT_TRUE(program.is_ok()) << label << ": " << program.message();
      warpsys::WarpSystem system(std::move(program).value(), w.init, options.system);
      ASSERT_TRUE(system.run_software().is_ok()) << label;
      const std::uint64_t software_image = system.data_mem().checksum_words();
      ASSERT_TRUE(system.warp().success) << label << ": " << system.outcome()->detail;
      const auto warped = system.run_warped();
      ASSERT_TRUE(warped.is_ok()) << label << ": " << warped.message();
      EXPECT_EQ(system.data_mem().checksum_words(), software_image) << label;
      const hwsim::WclaStats& wcla = warped.value().wcla;
      EXPECT_GT(wcla.invocations, 0u) << label;
      EXPECT_EQ(wcla.runs_by_reason[static_cast<std::size_t>(hwsim::ScalarReason::kNone)],
                wcla.invocations)
          << label;
      EXPECT_EQ(wcla.packed_blocks, expected_blocks.at(w.name)) << label;
    }
  }
}

// Hand-written programs whose outer loop invokes a short accumulator-free
// inner loop (trip 8, one 64-lane shared block holds 8 invocations). Each
// exercises one hazard or barrier of the WCLA's invocation queue.

/// Profiles, warps and re-runs `source` at the default options, and
/// requires the warped run to invoke the WCLA and leave the software run's
/// whole data image. Returns the warped run's WCLA statistics.
hwsim::WclaStats expect_transparent(const char* source,
                                    const warpsys::WarpSystem::DataInit& init) {
  const experiments::HarnessOptions options = experiments::default_options();
  auto program = isa::assemble(source, options.cpu);
  EXPECT_TRUE(program.is_ok()) << program.message();
  if (!program) return {};
  warpsys::WarpSystem system(std::move(program).value(), init, options.system);
  EXPECT_TRUE(system.run_software().is_ok());
  const std::uint64_t software_image = system.data_mem().checksum_words();
  const auto& outcome = system.warp();
  EXPECT_TRUE(outcome.success) << outcome.detail;
  const auto warped = system.run_warped();
  EXPECT_TRUE(warped.is_ok()) << warped.message();
  if (!warped) return {};
  EXPECT_EQ(system.data_mem().checksum_words(), software_image);
  EXPECT_GT(warped.value().wcla.invocations, 0u);
  EXPECT_FALSE(system.data_mem().has_deferred_work());
  return warped.value().wcla;
}

/// 32 distinct words at 0x1000 (the first invocations' input).
void seed_input(sim::Memory& mem) {
  for (std::uint32_t i = 0; i < 32; ++i) mem.write32(0x1000 + 4 * i, i * 0x9E3779B9u + 7);
}

TEST(InvocationQueue, NextInvocationReadsWhatThePreviousWrote) {
  // Each invocation transforms the 8 words the previous one wrote: its
  // read envelope overlaps the queued write envelope, so none may share a
  // block with its predecessor.
  const auto wcla = expect_transparent(R"(
    li r2, 0x1000
    li r3, 0x1020
    li r7, 16
  outer:
    li r4, 8
  inner:
    lwi r5, r2, 0
    bslli r6, r5, 1
    xori r6, r6, 0x5A5A
    addi r6, r6, 13
    swi r6, r3, 0
    addi r2, r2, 4
    addi r3, r3, 4
    addi r4, r4, -1
    bne r4, inner
    addi r7, r7, -1
    bne r7, outer
    halt
  )", seed_input);
  EXPECT_EQ(wcla.invocations, 16u);
  EXPECT_EQ(wcla.packed_blocks, 16u);
}

TEST(InvocationQueue, SoftwareLoadsAWordTheKernelWrote) {
  // Between invocations the software sums the last word each one wrote:
  // each load must see the queued invocation's write.
  const auto wcla = expect_transparent(R"(
    li r2, 0x1000
    li r3, 0x2000
    li r7, 16
    li r9, 0
  outer:
    li r4, 8
  inner:
    lwi r5, r2, 0
    bslli r6, r5, 2
    xori r6, r6, 0x0F0F
    swi r6, r3, 0
    addi r2, r2, 4
    addi r3, r3, 4
    addi r4, r4, -1
    bne r4, inner
    lwi r8, r3, -4
    add r9, r9, r8
    addi r7, r7, -1
    bne r7, outer
    li r10, 0x3000
    swi r9, r10, 0
    halt
  )", [](sim::Memory& mem) {
    for (std::uint32_t i = 0; i < 128; ++i) mem.write32(0x1000 + 4 * i, i * 0x01000193u + 3);
  });
  EXPECT_EQ(wcla.invocations, 16u);
  EXPECT_EQ(wcla.packed_blocks, 16u);  // each load settles a one-invocation queue
}

TEST(InvocationQueue, SoftwareStoresAWordTheNextInvocationReads) {
  // Each invocation transforms the block the previous one wrote, after the
  // software overwrote that block's first word: the store must land after
  // the queued write and before the next invocation's read.
  const auto wcla = expect_transparent(R"(
    li r2, 0x1000
    li r3, 0x1020
    li r7, 16
  outer:
    li r4, 8
  inner:
    lwi r5, r2, 0
    bslli r6, r5, 1
    xori r6, r6, 0x5A5A
    addi r6, r6, 13
    swi r6, r3, 0
    addi r2, r2, 4
    addi r3, r3, 4
    addi r4, r4, -1
    bne r4, inner
    swi r7, r2, 0
    addi r7, r7, -1
    bne r7, outer
    halt
  )", seed_input);
  EXPECT_EQ(wcla.invocations, 16u);
  EXPECT_EQ(wcla.packed_blocks, 16u);
}

TEST(InvocationQueue, PartialQueueRunsWhenTheCoreHalts) {
  // Five independent trip-8 invocations and no data access after them: 40
  // of the block's 64 lanes are queued at halt, and the run's exit must
  // settle them.
  const auto wcla = expect_transparent(R"(
    li r2, 0x1000
    li r3, 0x2000
    li r7, 5
  outer:
    li r4, 8
  inner:
    lwi r5, r2, 0
    bslli r6, r5, 3
    xori r6, r6, 0x3C3C
    swi r6, r3, 0
    addi r2, r2, 4
    addi r3, r3, 4
    addi r4, r4, -1
    bne r4, inner
    addi r7, r7, -1
    bne r7, outer
    halt
  )", [](sim::Memory& mem) {
    for (std::uint32_t i = 0; i < 40; ++i) mem.write32(0x1000 + 4 * i, i * 0x2545F491u + 1);
  });
  EXPECT_EQ(wcla.invocations, 5u);
  EXPECT_EQ(wcla.packed_blocks, 1u);
}

TEST(InvocationQueue, SharedInstructionMemoryNeverQueues) {
  // One Memory as both BRAMs, as in
  // Sim.StoreIntoSharedInstructionMemoryReachesNextFetch: each invocation
  // copies 8 instruction words over the code right after the loop, which
  // the core executes next without a data access in between. A fetch does
  // not settle, so the WCLA must not queue on a Memory the core fetches
  // from.
  constexpr const char* kSource = R"(
    li r8, 0
    li r7, 4
  outer:
    li r2, 0x2000
    li r3, patch
    li r4, 8
  inner:
    lwi r5, r2, 0
    swi r5, r3, 0
    addi r2, r2, 4
    addi r3, r3, 4
    addi r4, r4, -1
    bne r4, inner
  patch:
    addi r8, r8, 1
    addi r8, r8, 1
    addi r8, r8, 1
    addi r8, r8, 1
    addi r8, r8, 1
    addi r8, r8, 1
    addi r8, r8, 1
    addi r8, r8, 1
    addi r7, r7, -1
    bne r7, outer
    li r10, 0x3000
    swi r8, r10, 0
    halt
  )";
  const experiments::HarnessOptions options = experiments::default_options();
  auto program = isa::assemble(kSource, options.cpu);
  ASSERT_TRUE(program.is_ok()) << program.message();
  auto replacement = isa::assemble("addi r8, r8, 100\nhalt\n", options.cpu);
  ASSERT_TRUE(replacement.is_ok()) << replacement.message();
  const std::uint32_t new_word = replacement.value().words[0];
  const auto init = [new_word](sim::Memory& mem) {
    for (std::uint32_t i = 0; i < 8; ++i) mem.write32(0x2000 + 4 * i, new_word);
  };

  // The partition comes from the usual split-BRAM system.
  warpsys::WarpSystem split(program.value(), init, options.system);
  ASSERT_TRUE(split.run_software().is_ok());
  const warpsys::PartitionOutcome& outcome = split.warp();
  ASSERT_TRUE(outcome.success) << outcome.detail;

  // Software and warped runs on one shared Memory each.
  const auto run_shared = [&](bool warped) {
    auto mem = std::make_unique<sim::Memory>(1 << 16);
    sim::Core core(*mem, *mem, options.cpu);
    core.load_program(program.value());
    init(*mem);
    hwsim::WclaDevice wcla(*mem, options.cpu.clock_mhz);
    if (warped) {
      mem->load_words(outcome.stub_addr, outcome.stub.words);
      mem->write32(outcome.header_pc, outcome.stub.patch_word);
      wcla.configure(outcome.kernel, outcome.config);
      core.add_device(&wcla);
    }
    EXPECT_EQ(core.run(1'000'000), sim::StopReason::kHalted) << core.error();
    EXPECT_EQ(wcla.stats().invocations, warped ? 4u : 0u);
    return mem;
  };
  const auto software = run_shared(false);
  const auto warped = run_shared(true);
  EXPECT_EQ(software->read32(0x3000), 4u * 800u);
  // The whole image but the words the DPM patched.
  for (std::uint32_t addr = 0; addr < software->size(); addr += 4) {
    const bool patched = addr == outcome.header_pc ||
                         (addr >= outcome.stub_addr &&
                          addr < outcome.stub_addr + 4 * outcome.stub.words.size());
    if (!patched) {
      ASSERT_EQ(warped->read32(addr), software->read32(addr)) << addr;
    }
  }
}

TEST(InvocationQueue, ThrowingBlockLeavesNothingQueued) {
  // The output base comes from data memory. With it 64 bytes below the end
  // of the data BRAM, the third of four queued invocations writes past the
  // end: the run throws where the queue runs, and the next run, back in
  // range, must find nothing of it left.
  bool overflow = false;
  const experiments::HarnessOptions options = experiments::default_options();
  const auto mem_bytes = static_cast<std::uint32_t>(options.system.data_mem_bytes);
  const auto init = [&overflow, mem_bytes](sim::Memory& mem) {
    mem.write32(0x100, 0x1000);
    mem.write32(0x104, overflow ? mem_bytes - 64 : 0x2000);
    for (std::uint32_t i = 0; i < 32; ++i) mem.write32(0x1000 + 4 * i, i * 0x27D4EB2Fu + 5);
    // What an overflowing run wrote before it threw.
    for (std::uint32_t addr = mem_bytes - 64; addr < mem_bytes; addr += 4) mem.write32(addr, 0);
  };
  auto program = isa::assemble(R"(
    li r10, 0x100
    lwi r2, r10, 0
    lwi r3, r10, 4
    li r7, 4
  outer:
    li r4, 8
  inner:
    lwi r5, r2, 0
    xori r6, r5, 0x33
    swi r6, r3, 0
    addi r2, r2, 4
    addi r3, r3, 4
    addi r4, r4, -1
    bne r4, inner
    addi r7, r7, -1
    bne r7, outer
    halt
  )", options.cpu);
  ASSERT_TRUE(program.is_ok()) << program.message();
  warpsys::WarpSystem system(std::move(program).value(), init, options.system);
  ASSERT_TRUE(system.run_software().is_ok());
  const std::uint64_t software_image = system.data_mem().checksum_words();
  ASSERT_TRUE(system.warp().success) << system.outcome()->detail;

  overflow = true;
  EXPECT_THROW((void)system.run_warped(), common::InternalError);
  EXPECT_FALSE(system.data_mem().has_deferred_work());

  overflow = false;
  const auto warped = system.run_warped();
  ASSERT_TRUE(warped.is_ok()) << warped.message();
  EXPECT_EQ(system.data_mem().checksum_words(), software_image);
  EXPECT_EQ(warped.value().wcla.invocations, 4u);
  EXPECT_EQ(warped.value().wcla.packed_blocks, 1u);
}

}  // namespace
}  // namespace warp
