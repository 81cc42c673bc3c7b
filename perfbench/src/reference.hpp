// Result-row digests and the pinned reference table.
//
// A row is the simulated part of one session's result: every field that
// is a pure function of the inputs (cycles, seconds, energy, CAD
// statistics, ARM points, waits), never host time or cache traffic. Each
// workload's rows are checked twice: against reference rows the benchmark
// generates at the run's seed (experiments::run_benchmark without a cache,
// serve::run_serial), and those reference rows against the digests pinned
// in perfbench/reference_digests.txt at the commit that added them.
#pragma once

#include <map>
#include <string>

#include "common/hash.hpp"
#include "experiments/harness.hpp"

namespace perfbench {

warp::common::Digest row_digest(const warp::experiments::BenchmarkResult& result);
warp::common::Digest row_digest(const warp::warpsys::MultiWarpEntry& entry);
/// A software-only session row: the run's statistics and energy.
warp::common::Digest row_digest(const warp::warpsys::RunStats& stats);

/// Pinned digests keyed "<workload> <row key>".
using PinnedDigests = std::map<std::string, std::string>;

/// Parse the pinned-digest file ("<workload> <key> <digest>" lines, '#'
/// comments). Empty on a missing or malformed file.
PinnedDigests load_pinned(const std::string& path);

}  // namespace perfbench
