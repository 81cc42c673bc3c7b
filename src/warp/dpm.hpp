// Dynamic partitioning module (DPM) — the on-chip CAD pipeline.
//
// The DPM is itself a small embedded processor (another MicroBlaze in the
// paper) that runs the ROCPART tools: it scores the profiler's loop
// candidates, decompiles the best one, synthesizes, maps, places and routes
// it, generates the bitstream and the binary patch. Every stage meters its
// work (instructions decoded, gates created, cuts enumerated, placement
// moves, routing expansions, bitstream words) and the DPM time model
// converts that work into execution time on the 85 MHz DPM processor —
// giving the seconds-scale on-chip CAD times the warp-processing papers
// report.
//
// Candidate scoring: the profiler counts loop-iteration *frequency*; the
// DPM multiplies each candidate's count by the statically-estimated cycle
// cost of its loop body, approximating the region's share of total runtime,
// and attempts candidates best-first until one passes the whole flow. Any
// rejection (non-affine addressing, too many streams, unroutable, ...)
// falls back to the next candidate — or to pure software, exactly like the
// real system.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "decompile/extract.hpp"
#include "fabric/wcla.hpp"
#include "pnr/pnr.hpp"
#include "profiler/profiler.hpp"
#include "synth/hw_kernel.hpp"
#include "techmap/techmap.hpp"
#include "warp/stub_builder.hpp"

namespace warp::common {
class FaultInjector;  // deterministic fault probes (common/fault_injector.hpp)
}  // namespace warp::common

namespace warp::partition {
class ArtifactCache;  // content-addressed stage cache (partition/cache.hpp)
}  // namespace warp::partition

namespace warp::warpsys {

/// Cycle costs per unit of metered tool work, on the DPM's own processor.
struct DpmCostModel {
  double clock_mhz = 85.0;          // the DPM is another MicroBlaze
  double per_binary_instr = 150.0;  // decode + CFG + liveness
  double per_region_instr = 1200.0; // three-pass symbolic execution
  double per_gate = 35.0;           // bit-blasting & hashing
  double per_cut = 25.0;            // cut enumeration
  double per_lut = 60.0;            // covering + truth tables
  double per_rocm_step = 12.0;      // two-level minimization
  double per_move = 55.0;           // annealing move
  double per_expansion = 18.0;      // routing wavefront expansion
  double per_bitstream_word = 10.0; // configuration write
};

struct DpmOptions {
  decompile::ExtractOptions extract;
  synth::SynthOptions synth;
  techmap::TechmapOptions techmap;
  pnr::PnrOptions pnr;
  fabric::FabricGeometry fabric;
  DpmCostModel cost;
  unsigned max_candidates = 8;
};

/// Per-stage accounting of one partition() call, in pipeline flow order.
/// `cycles` is the stage's share of the DPM execution-time model (virtual
/// time — deterministic, bit-identical whether the stage computed or was
/// resolved from the artifact cache); `host_ns` is the wall-clock the host
/// simulator actually spent (what the cache saves; never deterministic).
/// These replace the old ad-hoc running `cycles` accumulator in
/// partition(): dpm_cycles is now exactly the sum of stage cycles.
struct StageMetric {
  std::string name;
  double cycles = 0.0;
  std::uint64_t host_ns = 0;
  std::uint32_t runs = 0;        // times the stage was needed (hit or miss)
  std::uint32_t cache_hits = 0;  // of those, resolved from the artifact cache
};

struct PartitionOutcome {
  bool success = false;
  std::string detail;  // chosen loop or the last rejection reason

  // Hardware artifacts (valid when success).
  std::shared_ptr<const synth::HwKernel> kernel;
  std::shared_ptr<const fabric::FabricConfig> config;
  Stub stub;
  std::uint32_t stub_addr = 0;
  std::uint32_t header_pc = 0;

  // Flow statistics.
  std::size_t fabric_gates = 0;
  std::size_t luts = 0;
  unsigned lut_depth = 0;
  unsigned rocm_literals_before = 0;
  unsigned rocm_literals_after = 0;
  std::uint64_t rocm_tautology_calls = 0;  // metered ROCM work on the winning candidate
  std::uint64_t rocm_memo_hits = 0;        // IRREDUNDANT verdicts reused from the memo
  double placement_hpwl = 0.0;
  std::uint64_t place_delta_evaluations = 0;  // nets rescanned by the placer's move deltas
  unsigned route_iterations = 0;
  std::uint64_t route_nets_rerouted = 0;      // selective rip-up victims (iterations 2+)
  double critical_path_ns = 0.0;
  double fabric_clock_mhz = 0.0;
  std::size_t bitstream_words = 0;

  // DPM execution-time model.
  std::uint64_t dpm_cycles = 0;
  double dpm_seconds = 0.0;
  std::vector<std::string> attempts;  // one line per tried candidate

  // Staged-pipeline accounting (partition/pipeline.hpp): one entry per
  // stage that ran at least once, in flow order, plus the totals of the
  // artifact-cache traffic this call generated.
  std::vector<StageMetric> stage_metrics;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Run the full ROCPART flow over the profiled binary. Thin wrapper over
/// partition::Pipeline (partition/pipeline.hpp), which stages the flow as
/// decompile -> synth -> techmap -> ROCM -> PnR -> bitstream -> stub with a
/// typed, content-hashed artifact per stage.
///
/// `cache` (optional) is a shared content-addressed artifact cache: stages
/// whose input hash + config hash match a cached artifact reuse it instead
/// of recomputing. The cache is a pure host-side optimization — every
/// simulated number (dpm_cycles, stage cycles, statistics, the hardware
/// artifacts themselves) is bit-identical with or without it, because cache
/// hits charge the stage's deterministic modeled cost, not a discounted one.
///
/// Reentrancy: without a cache this is a pure function of its arguments —
/// the whole flow keeps its state in locals, with no mutable globals or
/// function-local statics. Distinct partition jobs therefore cannot
/// interact, and concurrent software runs on other systems never observe a
/// DPM job in flight. With a cache, jobs share immutable artifacts (the
/// cache itself is internally locked); the multiprocessor engine still
/// serializes the jobs themselves: the shared DPM is a single server, and
/// its queue order (virtual time) is part of the model.
///
/// `fault` (optional) threads a deterministic common::FaultInjector through
/// every stage. Transient fault schedules are absorbed by bounded stage
/// retries (bit-identical results, host-only slowdown); persistent ones
/// surface as an unsuccessful outcome — never as an exception — which is
/// the paper's fall-back-to-software path.
PartitionOutcome partition(const std::vector<std::uint32_t>& binary_words,
                           const std::vector<profiler::LoopCandidate>& candidates,
                           std::uint32_t wcla_base, const DpmOptions& options,
                           partition::ArtifactCache* cache = nullptr,
                           common::FaultInjector* fault = nullptr);

}  // namespace warp::warpsys
