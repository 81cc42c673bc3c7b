// Figure 4's N-processor experiment: N WarpSystems served by one shared DPM.
//
// run_multiprocessor profiles every system, partitions each through the
// shared DPM and re-runs it warped, then reports one MultiWarpEntry per
// processor. Host execution is one of two engines, and both compute the
// same table bit for bit:
//
//   serial    one loop over the systems on the calling thread — the
//             reference;
//   parallel  a thin adapter over the warpd engine (warpd.hpp): system i is
//             submitted as a caller-owned session at seq i, warpd's workers
//             run the profiled and warped simulations concurrently and
//             take turns on the one DPM, running the partitioning jobs one
//             at a time.
//
// Either way the waits come from warpsys::assign_dpm_waits over the
// finished rows, round robin in processor order — never from host timing
// or host DPM order. It lives in serve/ because the parallel engine is
// warpd's; warp/ stays free of serve/ (serve -> experiments -> warp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "warp/warp_system.hpp"

namespace warp::serve {

struct MultiWarpOptions {
  /// Host execution: warpd's worker threads when true, the single-threaded
  /// reference loop when false. Results are identical.
  bool parallel = true;
  /// Worker thread count; 0 means std::thread::hardware_concurrency(),
  /// always clamped to the number of systems. Ignored when !parallel.
  unsigned threads = 0;
  /// Shared content-addressed artifact cache consulted by every DPM job
  /// (partition/cache.hpp). With N replicated kernels the partitioning
  /// stages compute once per *unique* kernel; every simulated number stays
  /// bit-identical to a cache-less run under any thread count.
  /// Not owned; may be null (no caching).
  partition::ArtifactCache* cache = nullptr;
  /// Shared deterministic fault injector threaded through every DPM job's
  /// pipeline stages (common/fault_injector.hpp). Transient schedules are
  /// absorbed by stage retries (bit-identical entries, host-only slowdown);
  /// persistent ones leave systems unwarped. Not owned; may be null.
  common::FaultInjector* fault = nullptr;
};

/// Run N systems through one shared DPM (Figure 4). Entry i is named
/// names[i] ("cpu<i>" past the end of `names`). The systems stay the
/// caller's: afterwards each holds its own partition outcome() and the
/// data memory of its last run. Default options: the paper's round-robin
/// experiment on the parallel engine.
std::vector<warpsys::MultiWarpEntry> run_multiprocessor(
    std::vector<std::unique_ptr<warpsys::WarpSystem>>& systems,
    const std::vector<std::string>& names, const MultiWarpOptions& options = {});

}  // namespace warp::serve
