// The benchmark's three workloads.
//
//   paper_cold  closed loop, one client thread: seeded rounds of the eight
//               extended_workloads() kernels through experiments::
//               run_benchmark, a fresh ArtifactCache per round, so every
//               CAD stage computes every session. What reproducing the
//               paper's Figures 6/7 costs.
//   warpd_warm  open loop: seeded Poisson arrivals at a fixed rate over a
//               unix socket into a spawned warpd daemon whose cache was
//               warmed during setup. The serving path: CAD is all cache
//               hits, the session is ISS + executor + serve.
//   sw_profile  closed loop, in process: each kernel assembled under the
//               three Section-2 CPU configurations, one profiled software
//               run and a golden check per session. The ISS and profiler.
//
// An untraced run reports the end-to-end metrics; a traced run reports the
// per-layer metrics, timed from outside by spans (sessions.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string exe;          // this executable, spawned as the warpd daemon
  std::string work_dir;     // sockets and trace files
  std::string pinned_path;  // perfbench/reference_digests.txt
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

const std::vector<std::string>& workload_names();

/// Every per-layer metric a traced run prints, as (name, unit), in order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

RunReport run_workload(const RunOptions& options);

/// Print every workload's reference row digests in the pinned-file format.
void print_reference();

}  // namespace perfbench
