// Experiment harness: runs a workload through the full warp-processing
// methodology of the paper's Section 4 and collects every number Figures
// 5/6/7 need:
//
//   1. assemble the benchmark for the configured MicroBlaze;
//   2. software-only run (with profiling) -> baseline time, instruction
//      mix, golden-output check;
//   3. DPM partitioning -> hardware kernel, DPM time, CAD statistics;
//   4. warped run -> time with the kernel on the WCLA, idle/active split,
//      golden-output check (hardware must be bit-exact);
//   5. energy model (Figure 5) for both runs;
//   6. trace-driven ARM7/9/10/11 estimates from the software run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arm/arm_model.hpp"
#include "warp/warp_system.hpp"
#include "workloads/workload.hpp"

namespace warp::experiments {

struct ArmPoint {
  std::string name;
  double seconds = 0.0;
  double energy_mj = 0.0;
  double speedup_vs_mb = 0.0;
  double energy_vs_mb = 0.0;  // normalized to the MicroBlaze-alone run
};

struct BenchmarkResult {
  std::string name;
  bool ok = false;           // golden checks passed on both runs
  std::string error;

  // MicroBlaze alone.
  double mb_seconds = 0.0;
  double mb_energy_mj = 0.0;
  sim::CoreStats mb_stats;

  // Warp processor.
  bool warped = false;       // partitioning succeeded
  std::string warp_detail;
  double warp_seconds = 0.0;
  double warp_energy_mj = 0.0;
  double warp_speedup = 0.0;
  double warp_energy_norm = 0.0;  // vs MicroBlaze alone
  energy::EnergyBreakdown warp_energy_parts;
  double dpm_seconds = 0.0;
  warpsys::PartitionOutcome outcome;
  warpsys::RunStats warp_run;

  // Hard-core comparison points.
  std::vector<ArmPoint> arm;
};

struct HarnessOptions {
  isa::CpuConfig cpu;                 // barrel shifter + multiplier by default
  warpsys::WarpSystemConfig system;   // dpm/profiler/fabric settings
  bool verify_hw = false;             // per-write fabric-vs-DFG cross-check
  bool include_arm = true;
  /// Shared content-addressed artifact cache for every DPM invocation the
  /// harness makes (partition/cache.hpp). Not owned; null = no caching.
  /// Purely a host-side optimization: results are bit-identical either way.
  partition::ArtifactCache* cache = nullptr;
};

HarnessOptions default_options();

/// Full methodology for one workload.
BenchmarkResult run_benchmark(const workloads::Workload& workload,
                              const HarnessOptions& options);

/// Assemble each named workload and wire up one WarpSystem per entry — the
/// N-processor platform of Figure 4, ready for serve::run_multiprocessor
/// (serve/multiprocessor.hpp).
/// Fails on the first workload that does not assemble.
common::Result<std::vector<std::unique_ptr<warpsys::WarpSystem>>> build_warp_systems(
    const std::vector<std::string>& mix, const HarnessOptions& options);

/// All six paper benchmarks.
std::vector<BenchmarkResult> run_all_benchmarks(const HarnessOptions& options);

/// Software-only run (no warping) under an arbitrary processor
/// configuration — the Section 2 ablation primitive. Returns seconds.
common::Result<double> run_software_only(const workloads::Workload& workload,
                                         const isa::CpuConfig& cpu);

/// Run the flow up to partitioning and return the mapped LUT netlist of the
/// selected kernel — the exact PnR input the DPM saw. Lets tools
/// (bench/pnr_bench.cpp) re-run placement and routing in isolation.
common::Result<techmap::LutNetlist> partition_netlist(const workloads::Workload& workload,
                                                      const HarnessOptions& options);

/// A workload pushed through the full warp flow (assemble -> software run
/// -> DPM partition -> warped run), with the stub's last real invocation
/// captured from the WCLA device and its trip stretched via max_safe_trip.
/// The executor and data memory live in `system`.
struct FlowedWorkload {
  std::unique_ptr<warpsys::WarpSystem> system;
  hwsim::KernelInvocation invocation;
};

/// Run the full flow for one workload and capture the invocation, for
/// engine-equivalence sweeps (tests) and microbenchmarks. `trip_cap`
/// bounds the stretched trip count. Fails on the first step that does not
/// succeed.
common::Result<FlowedWorkload> flow_workload(const workloads::Workload& workload,
                                             const HarnessOptions& options,
                                             std::uint64_t trip_cap);

/// Largest trip count in [lo, cap] whose stream address envelope stays
/// inside `mem_bytes` of data memory AND keeps write streams disjoint from
/// read streams at different bases — so a stretched invocation stays
/// eligible for the executor's packed path exactly when the stub-sized one
/// was. Returns `lo` unchanged if even that does not fit. Used by the
/// packed-eval microbenchmark and the engine-equivalence tests to retime
/// kernels at trips long enough for wide lane blocks to engage.
std::uint64_t max_safe_trip(const decompile::KernelIR& ir,
                            const std::vector<std::uint32_t>& stream_bases,
                            std::size_t mem_bytes, std::uint64_t lo, std::uint64_t cap);

}  // namespace warp::experiments
