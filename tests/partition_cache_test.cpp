// Artifact-cache determinism tests: the content-addressed stage cache is a
// pure host-side optimization. Cold cache, warm cache and any worker-thread
// count must produce bit-identical MultiWarpEntry tables AND bit-identical
// per-stage virtual times — while replicated kernels actually resolve their
// partitioning stages from the cache.
// Injected stage faults are invisible too: transient schedules converge to
// the fault-free table, an injected failure is never cached, and persistent
// faults land in the software-fallback path.
#include <gtest/gtest.h>

#include "common/fault_injector.hpp"
#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "partition/pipeline.hpp"
#include "serve/multiprocessor.hpp"

namespace warp {
namespace {

using serve::MultiWarpOptions;
using warpsys::MultiWarpEntry;

struct MixRun {
  std::vector<std::unique_ptr<warpsys::WarpSystem>> systems;  // kept for outcomes
  std::vector<MultiWarpEntry> entries;
};

MixRun run_mix(const std::vector<std::string>& mix, const MultiWarpOptions& options) {
  auto built = experiments::build_warp_systems(mix, experiments::default_options());
  EXPECT_TRUE(built.is_ok()) << built.message();
  MixRun run;
  run.systems = std::move(built).value();
  run.entries = serve::run_multiprocessor(run.systems, mix, options);
  return run;
}

// The replicated mix of the cache tests: three unique kernels, six systems.
const std::vector<std::string> kMix = {"brev", "g3fax", "brev", "canrdr", "g3fax", "brev"};
constexpr std::size_t kUnique = 3;

TEST(PartitionCache, ColdAndWarmCacheMatchCacheOffReference) {
  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = run_mix(kMix, serial_off).entries;
  ASSERT_EQ(reference.size(), kMix.size());

  partition::ArtifactCache cache;
  MultiWarpOptions serial_on = serial_off;
  serial_on.cache = &cache;
  EXPECT_EQ(run_mix(kMix, serial_on).entries, reference) << "cold cache";
  const std::uint64_t cold_hits = cache.total_hits();
  const std::size_t cold_size = cache.size();
  EXPECT_GT(cold_hits, 0u) << "replicated kernels must hit within one cold run";
  EXPECT_EQ(run_mix(kMix, serial_on).entries, reference) << "warm cache";
  EXPECT_GT(cache.total_hits(), cold_hits) << "warm run must hit on every system";
  // The cache holds one entry per unique key: the warm pass adds none.
  EXPECT_EQ(cache.size(), cold_size);

  // Stages computed once per unique kernel across both runs.
  const auto stats = cache.stats();
  const auto frontend = stats.find(partition::kStageFrontend);
  ASSERT_NE(frontend, stats.end());
  EXPECT_EQ(frontend->second.misses, kUnique);
}

TEST(PartitionCache, ThreadCountsShareOneCacheBitIdentically) {
  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = run_mix(kMix, serial_off).entries;

  partition::ArtifactCache cache;  // shared across all thread counts
  for (const unsigned threads : {1u, 2u, 6u}) {
    MultiWarpOptions parallel;
    parallel.threads = threads;
    parallel.cache = &cache;
    EXPECT_EQ(run_mix(kMix, parallel).entries, reference)
        << "threads=" << threads;
  }
}

TEST(PartitionCache, PerStageVirtualTimesBitIdentical) {
  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = run_mix(kMix, serial_off);

  partition::ArtifactCache cache;
  MultiWarpOptions serial_on = serial_off;
  serial_on.cache = &cache;
  const auto cached = run_mix(kMix, serial_on);

  ASSERT_EQ(reference.entries, cached.entries);
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    const warpsys::PartitionOutcome* ref = reference.systems[i]->outcome();
    const warpsys::PartitionOutcome* got = cached.systems[i]->outcome();
    ASSERT_NE(ref, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(ref->dpm_cycles, got->dpm_cycles) << "cpu" << i;
    ASSERT_EQ(ref->stage_metrics.size(), got->stage_metrics.size()) << "cpu" << i;
    double total = 0.0;
    for (std::size_t s = 0; s < ref->stage_metrics.size(); ++s) {
      EXPECT_EQ(ref->stage_metrics[s].name, got->stage_metrics[s].name);
      // Bit-identical virtual time per stage, computed or cached.
      EXPECT_EQ(ref->stage_metrics[s].cycles, got->stage_metrics[s].cycles)
          << "cpu" << i << " stage " << ref->stage_metrics[s].name;
      EXPECT_EQ(ref->stage_metrics[s].runs, got->stage_metrics[s].runs);
      total += ref->stage_metrics[s].cycles;
    }
    // The stage metrics are a complete decomposition of the DPM time model
    // (tolerance: summing per-stage totals regroups the flow-order float
    // accumulation, so the last ulp can differ).
    EXPECT_NEAR(total, static_cast<double>(ref->dpm_cycles), 2.0) << "cpu" << i;
    // Without a cache no stage may report a hit; with one, replicas must.
    for (const auto& m : ref->stage_metrics) EXPECT_EQ(m.cache_hits, 0u);
    EXPECT_EQ(ref->cache_hits, 0u);
  }
  // The last brev replica resolves every stage from the cache.
  const warpsys::PartitionOutcome* replica = cached.systems[5]->outcome();
  ASSERT_NE(replica, nullptr);
  EXPECT_GT(replica->cache_hits, 0u);
  EXPECT_EQ(replica->cache_misses, 0u);
}

// The parallel engine runs caller-owned systems: each must end with its own
// partition outcome and the data memory of its own warped run, exactly as
// the serial loop leaves it. Coalescing the three brev replicas onto one
// pipeline run would leave the followers unpartitioned and their memories
// unwritten.
TEST(PartitionCache, ParallelRunWarpsEveryCallerOwnedSystem) {
  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = run_mix(kMix, serial_off);

  partition::ArtifactCache cache;
  MultiWarpOptions parallel_on;
  parallel_on.threads = static_cast<unsigned>(kMix.size());  // all replicas in flight
  parallel_on.cache = &cache;
  const auto parallel = run_mix(kMix, parallel_on);
  ASSERT_EQ(parallel.entries, reference.entries);

  for (std::size_t i = 0; i < kMix.size(); ++i) {
    const warpsys::PartitionOutcome* ref = reference.systems[i]->outcome();
    const warpsys::PartitionOutcome* got = parallel.systems[i]->outcome();
    ASSERT_NE(ref, nullptr);
    ASSERT_NE(got, nullptr) << "cpu" << i << " never reached the DPM";
    EXPECT_EQ(ref->success, got->success) << "cpu" << i;
    EXPECT_EQ(ref->dpm_cycles, got->dpm_cycles) << "cpu" << i;
    ASSERT_EQ(ref->stage_metrics.size(), got->stage_metrics.size()) << "cpu" << i;
    for (std::size_t s = 0; s < ref->stage_metrics.size(); ++s) {
      EXPECT_EQ(ref->stage_metrics[s].cycles, got->stage_metrics[s].cycles)
          << "cpu" << i << " stage " << ref->stage_metrics[s].name;
    }
    const common::Status check =
        workloads::workload_by_name(kMix[i]).check(parallel.systems[i]->data_mem());
    EXPECT_TRUE(check.is_ok()) << "cpu" << i << ": " << check.message();
  }
}

TEST(PartitionCache, FailedPartitionsAreCachedIdentically) {
  // A pointer-chasing loop cannot be partitioned; replicated copies must
  // produce the identical fallback entry from the cached failure artifacts.
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
    for (int copy = 0; copy < 3; ++copy) {
      warpsys::WarpSystemConfig config;
      config.cpu = isa::CpuConfig{true, true, false, 85.0};
      config.dpm.synth.csd_max_terms = 2;
      auto program = isa::assemble(chase_source, config.cpu);
      EXPECT_TRUE(program.is_ok()) << program.message();
      systems.push_back(
          std::make_unique<warpsys::WarpSystem>(program.value(), chase_init, config));
    }
    return systems;
  };
  const std::vector<std::string> names = {"chase0", "chase1", "chase2"};

  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  auto off_systems = build();
  const auto reference = serve::run_multiprocessor(off_systems, names, serial_off);
  ASSERT_EQ(reference.size(), 3u);
  EXPECT_FALSE(reference[0].warped);
  EXPECT_GT(reference[0].dpm_seconds, 0.0);  // the failed flow is still charged

  partition::ArtifactCache cache;
  MultiWarpOptions serial_on = serial_off;
  serial_on.cache = &cache;
  auto on_systems = build();
  EXPECT_EQ(serve::run_multiprocessor(on_systems, names, serial_on), reference);
  EXPECT_GT(cache.total_hits(), 0u) << "replicated failures must hit";
  const warpsys::PartitionOutcome* last = on_systems[2]->outcome();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->cache_misses, 0u) << "third replica recomputed a failing stage";
}

// An injected stage failure comes from the host, not from the kernel, so
// the cache must never replay it. A persistent schedule (no transient cap)
// runs the mix on a cache until some stage that can represent failure ran
// out of retries; a fault-free run on the same cache must then give the
// fault-free, cache-off table.
TEST(PartitionCache, InjectedFailuresAreNeverReplayed) {
  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = run_mix(kMix, serial_off).entries;

  common::FaultConfig persistent;
  persistent.seed = 1;
  persistent.stage_fail_p = 0.5;  // seed 1 exhausts stub and decompile
  persistent.max_consecutive = 0;
  common::FaultInjector fault(persistent);
  partition::ArtifactCache cache;
  MultiWarpOptions faulty = serial_off;
  faulty.cache = &cache;
  faulty.fault = &fault;
  const auto faulted = run_mix(kMix, faulty);
  std::size_t failed_stages = 0;
  for (const auto& system : faulted.systems) {
    const warpsys::PartitionOutcome* outcome = system->outcome();
    ASSERT_NE(outcome, nullptr);
    for (const std::string& line : outcome->attempts) {
      for (const char* stage : {"decompile", "synthesis", "techmap", "pnr", "stub"}) {
        if (line.find(std::string(stage) + ": injected stage fault") != std::string::npos) {
          ++failed_stages;
        }
      }
    }
  }
  ASSERT_GT(failed_stages, 0u) << "the schedule must exhaust a stage that returns a failure";

  MultiWarpOptions clean = serial_off;
  clean.cache = &cache;
  EXPECT_EQ(run_mix(kMix, clean).entries, reference);
}

TEST(FaultInjection, TransientSchedulesAreBitIdentical) {
  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = run_mix(kMix, serial_off).entries;

  std::uint64_t injected = 0;
  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
    common::FaultInjector fault(common::FaultConfig::transient_sweep(seed));
    MultiWarpOptions options = serial_off;
    options.fault = &fault;
    EXPECT_EQ(run_mix(kMix, options).entries, reference) << "seed " << seed;
    injected += fault.stats().injected;
  }
  EXPECT_GT(injected, 0u) << "the sweep must actually inject faults";
}

TEST(FaultInjection, PersistentStageFaultFallsBackToSoftware) {
  common::FaultConfig lethal;
  lethal.stage_fail_p = 1.0;
  lethal.max_consecutive = 0;  // the retry budget can never converge
  common::FaultInjector fault(lethal);

  MultiWarpOptions options;
  options.parallel = false;
  options.fault = &fault;
  const auto run = run_mix(kMix, options);
  ASSERT_EQ(run.entries.size(), kMix.size());
  for (std::size_t i = 0; i < run.entries.size(); ++i) {
    // The contract of warp processing: a failed DPM flow leaves the binary
    // running in software — no warp, no crash, no exception.
    EXPECT_FALSE(run.entries[i].warped) << "cpu" << i;
    EXPECT_GT(run.entries[i].sw_seconds, 0.0) << "cpu" << i;
    EXPECT_GT(run.entries[i].warped_seconds, 0.0) << "cpu" << i;
    const warpsys::PartitionOutcome* outcome = run.systems[i]->outcome();
    ASSERT_NE(outcome, nullptr);
    EXPECT_FALSE(outcome->success);
  }

  // The fallback is itself deterministic: a second identical schedule
  // produces the identical table.
  common::FaultInjector fault2(lethal);
  MultiWarpOptions again = options;
  again.fault = &fault2;
  EXPECT_EQ(run_mix(kMix, again).entries, run.entries);
}

}  // namespace
}  // namespace warp
