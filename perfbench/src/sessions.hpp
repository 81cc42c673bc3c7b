// One warp session, timed layer by layer from outside.
//
// traced_session runs the experiments::run_benchmark method through a
// ComposedSystem with a span around each public call:
//
//   session
//     isa.assemble      isa::assemble
//     warp.build        system construction
//     sim.sw_run        run_software (ISS + profiler branch hook)
//     warp.check        golden check of the software run
//     partition.dpm     warp(): the DPM flow
//       partition.<stage>   one per PartitionOutcome::stage_metrics entry
//     sim.warped_run    run_warped (its self time is the warped run's ISS)
//       hwsim.exec      one per kernel start (WCLA executor)
//     warp.check        golden check, energy and ARM points
//
// The pipeline exports stage durations, not timestamps, so the stage spans
// are laid end to end from the DPM span's start; the DPM span's self time
// is the part of warp() no stage accounts for.
#pragma once

#include <cstdint>

#include "composed.hpp"
#include "experiments/harness.hpp"
#include "trace.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

enum class Flow {
  kPaper,     // full method: golden checks, energy and ARM points
  kServe,     // a warpd session body: build, profile, DPM, warped run
  kSoftware,  // assemble, build, one profiled software run, golden check
};

struct TracedResult {
  /// Filled as run_benchmark fills it (kServe skips the golden checks and
  /// ARM points; kSoftware stops after the software run).
  warp::experiments::BenchmarkResult result;
  HwsimCounters hwsim;
  bool packed_supported = false;  // the configured executor's packed_supported()
};

TracedResult traced_session(const warp::workloads::Workload& workload,
                            const warp::experiments::HarnessOptions& options, Flow flow,
                            Tracer& tracer);

/// The untraced software-only session of the sw_profile workload: assemble,
/// build a WarpSystem, one profiled software run, golden check.
warp::common::Result<warp::warpsys::RunStats> software_session(
    const warp::workloads::Workload& workload, const warp::isa::CpuConfig& cpu);

/// A request's per-session harness options (the overrides warpd applies).
warp::experiments::HarnessOptions with_overrides(warp::experiments::HarnessOptions base,
                                                 unsigned max_candidates);

}  // namespace perfbench
