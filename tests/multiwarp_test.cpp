// Multiprocessor scale-out tests: the threaded Figure-4 engine (warpd under
// run_multiprocessor) must be a pure host-side optimization. Whatever the
// worker count or host scheduling, the shared-DPM queue is ordered by
// virtual time, so every MultiWarpEntry (waits, speedups, partitions) is
// bit-identical to the serial reference.
#include <gtest/gtest.h>

#include "experiments/harness.hpp"
#include "serve/multiprocessor.hpp"

namespace warp {
namespace {

using serve::MultiWarpOptions;
using warpsys::MultiWarpEntry;

std::vector<MultiWarpEntry> run_mix(const std::vector<std::string>& mix,
                                    const MultiWarpOptions& options) {
  auto built = experiments::build_warp_systems(mix, experiments::default_options());
  EXPECT_TRUE(built.is_ok()) << built.message();
  auto systems = std::move(built).value();
  return serve::run_multiprocessor(systems, mix, options);
}

// Field-by-field comparison so a mismatch names the processor and field.
void expect_identical(const std::vector<MultiWarpEntry>& expected,
                      const std::vector<MultiWarpEntry>& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& e = expected[i];
    const auto& a = actual[i];
    EXPECT_EQ(e.name, a.name) << label << " cpu" << i;
    EXPECT_EQ(e.detail, a.detail) << label << " cpu" << i;
    EXPECT_EQ(e.sw_seconds, a.sw_seconds) << label << " cpu" << i;
    EXPECT_EQ(e.warped_seconds, a.warped_seconds) << label << " cpu" << i;
    EXPECT_EQ(e.speedup, a.speedup) << label << " cpu" << i;
    EXPECT_EQ(e.dpm_seconds, a.dpm_seconds) << label << " cpu" << i;
    EXPECT_EQ(e.dpm_wait_seconds, a.dpm_wait_seconds) << label << " cpu" << i;
    EXPECT_EQ(e.warped, a.warped) << label << " cpu" << i;
    EXPECT_TRUE(e == a) << label << " cpu" << i;
  }
}

TEST(MultiWarpParallel, MatchesSerialAcrossThreadCounts) {
  const std::vector<std::string> mix = {"brev", "g3fax", "canrdr", "bitmnp", "matmul"};
  MultiWarpOptions serial;
  serial.parallel = false;
  const auto reference = run_mix(mix, serial);
  ASSERT_EQ(reference.size(), mix.size());
  for (const auto& entry : reference) EXPECT_TRUE(entry.warped) << entry.name;

  for (const unsigned threads : {1u, 2u, 5u}) {
    MultiWarpOptions parallel;
    parallel.parallel = true;
    parallel.threads = threads;
    expect_identical(reference, run_mix(mix, parallel),
                     "threads=" + std::to_string(threads));
  }
}

TEST(MultiWarpParallel, RepeatedRunsAreDeterministic) {
  const std::vector<std::string> mix = {"brev", "g3fax", "canrdr"};
  MultiWarpOptions parallel;
  parallel.threads = 3;
  const auto first = run_mix(mix, parallel);
  for (int repeat = 0; repeat < 3; ++repeat) {
    expect_identical(first, run_mix(mix, parallel), "repeat " + std::to_string(repeat));
  }
}

TEST(MultiWarpParallel, VirtualTimeOrderBeatsHostCompletionOrder) {
  // cpu0 (matmul) has the longest profiled run of the mix; cpu1 (brev) the
  // shortest. With two workers, cpu1's profile finishes first on the host
  // and files its DPM request first — but round robin serves cpu0 first by
  // virtual time, so cpu1's wait must equal exactly cpu0's job time, and the
  // whole table must match the serial reference. Repeated to give a racy
  // implementation (one charging waits in host arrival order) every chance
  // to fail.
  const std::vector<std::string> mix = {"matmul", "brev"};
  MultiWarpOptions serial;
  serial.parallel = false;
  const auto reference = run_mix(mix, serial);
  ASSERT_EQ(reference.size(), 2u);
  ASSERT_GT(reference[0].sw_seconds, reference[1].sw_seconds);
  EXPECT_EQ(reference[0].dpm_wait_seconds, 0.0);
  EXPECT_EQ(reference[1].dpm_wait_seconds, reference[0].dpm_seconds * 1e9 * 1e-9);

  MultiWarpOptions parallel;
  parallel.threads = 2;
  for (int repeat = 0; repeat < 5; ++repeat) {
    expect_identical(reference, run_mix(mix, parallel), "contention repeat");
  }
}

TEST(MultiWarpParallel, UnsuitableSystemFallsBackIdentically) {
  // A pointer-chasing loop cannot be partitioned; sandwiched between
  // warpable systems it must fall back to software (speedup 1.0) with the
  // same entry in both engines, and its failed DPM job must still occupy
  // the shared queue (its time model charges the attempted flow).
  const char* chase_source = R"(
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
  auto chase_init = [](sim::Memory& mem) {
    for (unsigned i = 0; i < 64; ++i) {
      mem.write32(0x1000 + 4 * i, 0x1000 + 4 * ((i + 1) % 64));
    }
  };
  auto build = [&]() {
    std::vector<std::unique_ptr<warpsys::WarpSystem>> systems;
    for (const char* name : {"brev", "", "g3fax"}) {
      warpsys::WarpSystemConfig config;
      config.cpu = isa::CpuConfig{true, true, false, 85.0};
      config.dpm.synth.csd_max_terms = 2;
      if (*name) {
        const auto& w = workloads::workload_by_name(name);
        auto program = isa::assemble(w.source, config.cpu);
        EXPECT_TRUE(program.is_ok()) << program.message();
        systems.push_back(
            std::make_unique<warpsys::WarpSystem>(program.value(), w.init, config));
      } else {
        auto program = isa::assemble(chase_source, config.cpu);
        EXPECT_TRUE(program.is_ok()) << program.message();
        systems.push_back(
            std::make_unique<warpsys::WarpSystem>(program.value(), chase_init, config));
      }
    }
    return systems;
  };
  const std::vector<std::string> names = {"brev", "chase", "g3fax"};

  MultiWarpOptions serial;
  serial.parallel = false;
  auto serial_systems = build();
  const auto reference = serve::run_multiprocessor(serial_systems, names, serial);
  ASSERT_EQ(reference.size(), 3u);
  EXPECT_TRUE(reference[0].warped);
  EXPECT_FALSE(reference[1].warped);
  EXPECT_EQ(reference[1].speedup, 1.0);
  EXPECT_EQ(reference[1].warped_seconds, reference[1].sw_seconds);
  EXPECT_GT(reference[1].dpm_seconds, 0.0);  // the failed flow is still charged
  EXPECT_TRUE(reference[2].warped);
  // g3fax queues behind brev's and the failed chase job's DPM time.
  EXPECT_GT(reference[2].dpm_wait_seconds, reference[1].dpm_wait_seconds);

  MultiWarpOptions parallel;
  parallel.threads = 16;  // more workers than systems: clamped, not deadlocked
  auto parallel_systems = build();
  expect_identical(reference,
                   serve::run_multiprocessor(parallel_systems, names, parallel),
                   "fallback mix");
}

}  // namespace
}  // namespace warp
