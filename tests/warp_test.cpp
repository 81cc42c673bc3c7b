// End-to-end warp-processing tests: every benchmark must produce bit-exact
// results after warping, with the fabric cross-checked against the dataflow
// graph, and the expected performance/energy relations must hold.
#include <gtest/gtest.h>

#include "experiments/harness.hpp"
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
TEST(BenchmarkWarp, IdctWarpsAndStaysBitExact) {
  const auto& workload = workloads::workload_by_name("idct");
  const auto result = experiments::run_benchmark(workload, verified_options());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.warped) << result.warp_detail;
  EXPECT_GT(result.warp_speedup, 2.0);
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

}  // namespace
}  // namespace warp
