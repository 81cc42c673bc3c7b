// Staged partition pipeline — the DPM's CAD flow as explicit stages.
//
// The dynamic partitioning module used to be one opaque call chain inside
// warp/dpm.cpp. This subsystem restructures it into named stages, each a
// pure function from a typed input artifact to a typed output artifact:
//
//   frontend   binary words            -> Cfg + whole-binary liveness
//   decompile  (binary, loop)          -> KernelIR
//   synth      KernelIR                -> HwKernel (MAC ops + gate netlist)
//   techmap    HwKernel                -> LutNetlist (3-input LUT cover)
//   rocm       LutNetlist              -> two-level minimization statistics
//   pnr        LutNetlist              -> placed + routed FabricConfig
//   bitstream  FabricConfig            -> configuration words
//   stub       (KernelIR, liveness)    -> binary patch stub
//
// Every artifact has a stable content hash (canonical: no pointer-order or
// allocation-history dependence — see common/hash.hpp), which gives each
// stage a content-addressed cache key: (stage, input hash, config hash).
// When a shared ArtifactCache is supplied, a stage whose key is cached
// reuses the immutable artifact instead of recomputing it.
//
// Metering: each stage charges its share of the DPM execution-time model
// (integer metered units x the DpmCostModel coefficient, accumulated in a
// fixed order) and records the host wall-clock it actually consumed. The
// virtual-time charge is computed from the artifact's recorded unit counts,
// so a cache hit charges *exactly* the cycles a recomputation would — the
// simulated DPM has no artifact cache, and results must stay bit-identical
// across cold cache, warm cache, and no cache at all (the multiprocessor
// engine's determinism guarantee extends through this subsystem).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.hpp"
#include "partition/artifacts.hpp"
#include "partition/cache.hpp"
#include "warp/dpm.hpp"

namespace warp::partition {

// Stage names, in flow order. Also the cache-key stage tags.
inline constexpr const char* kStageFrontend = "frontend";
inline constexpr const char* kStageDecompile = "decompile";
inline constexpr const char* kStageSynth = "synth";
inline constexpr const char* kStageTechmap = "techmap";
inline constexpr const char* kStageRocm = "rocm";
inline constexpr const char* kStagePnr = "pnr";
inline constexpr const char* kStageBitstream = "bitstream";
inline constexpr const char* kStageStub = "stub";

/// All stage names in flow order (for reporting loops).
const std::vector<std::string>& stage_names();

// Typed stage artifacts (FrontendArtifact ... StubArtifact) live in
// partition/artifacts.hpp.

// --- The pipeline ----------------------------------------------------------

class Pipeline {
 public:
  /// `cache` may be null (every stage computes). `fault` may be null (no
  /// injection). The options object is copied; per-stage config hashes are
  /// derived once here.
  Pipeline(const warpsys::DpmOptions& options, ArtifactCache* cache = nullptr,
           common::FaultInjector* fault = nullptr);

  /// Full candidate-scored ROCPART flow: behaviorally identical to the
  /// historical warpsys::partition(), plus per-stage metrics and cache
  /// counters on the outcome.
  warpsys::PartitionOutcome run(const std::vector<std::uint32_t>& binary_words,
                                const std::vector<profiler::LoopCandidate>& candidates,
                                std::uint32_t wcla_base);

  // Individual stage entry points (used by run(); public so tests and tools
  // can drive stages in isolation). Each consults the cache first and
  // publishes its artifact on a miss. Named run_* so the subsystem
  // namespaces (decompile::, synth::, ...) stay usable inside the class.
  std::shared_ptr<const FrontendArtifact> run_frontend(
      const std::vector<std::uint32_t>& binary_words, const common::Digest& binary_hash);
  std::shared_ptr<const DecompileArtifact> run_decompile(const FrontendArtifact& frontend,
                                                         const common::Digest& binary_hash,
                                                         std::uint32_t branch_pc,
                                                         std::uint32_t header_pc);
  std::shared_ptr<const SynthArtifact> run_synth(const DecompileArtifact& decompiled);
  std::shared_ptr<const TechmapArtifact> run_techmap(const SynthArtifact& synthesized);
  std::shared_ptr<const RocmArtifact> run_rocm(const TechmapArtifact& mapped);
  std::shared_ptr<const PnrArtifact> run_pnr(const TechmapArtifact& mapped);
  std::shared_ptr<const BitstreamArtifact> run_bitstream(const PnrArtifact& placed_routed);
  std::shared_ptr<const StubArtifact> run_stub(const DecompileArtifact& decompiled,
                                               const FrontendArtifact& frontend,
                                               std::uint32_t stub_addr,
                                               std::uint32_t wcla_base);

 private:
  // Generic stage driver: cache lookup, compute-on-miss, publish, and
  // runs/hits/host_ns accounting into the current run's metrics.
  template <typename T, typename Compute>
  std::shared_ptr<const T> stage(const char* name, const common::Digest& input,
                                 const common::Digest& config, Compute&& compute);

  warpsys::StageMetric& metric(const char* name);
  void charge(const char* name, double cycles);

  warpsys::DpmOptions options_;
  ArtifactCache* cache_ = nullptr;
  common::FaultInjector* fault_ = nullptr;

  // Per-stage config hashes, fixed at construction.
  common::Digest extract_config_;
  common::Digest synth_config_;
  common::Digest techmap_config_;
  common::Digest pnr_config_;
  common::Digest empty_config_;

  // Accounting for the run in flight (reset by run()).
  std::vector<warpsys::StageMetric> metrics_;
  double cycles_ = 0.0;
  std::uint64_t run_hits_ = 0;
  std::uint64_t run_misses_ = 0;
};

/// Content hash of a raw binary (the frontend/decompile cache input).
common::Digest binary_content_hash(const std::vector<std::uint32_t>& binary_words);

}  // namespace warp::partition
