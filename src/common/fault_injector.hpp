// Deterministic fault injection for the warp pipeline and the warpd server.
//
// The warp-processing transparency contract (the whole premise of the
// paper) is that a failure anywhere in the on-chip CAD flow leaves the
// binary executing in software with no observable difference beyond lost
// speedup. To test that contract end-to-end, the FaultInjector is threaded
// through every partition-pipeline stage ("stage.<name>", kStageFail) and
// the warpd serving stack — "serve.accept"/"serve.read"/"serve.write" on
// the socket front end and "serve.admit" at engine admission (sheds the
// request as a deterministic "busy"; only armed when admission caps are
// enabled), all kIoError — see serve/server.hpp and serve/warpd.hpp — as
// named probe *sites*. A probe asks "does fault kind K fire here?", and
// the answer is a pure function of (seed, site, per-site occurrence count)
// — so a fault schedule is reproducible from its seed alone, across runs
// and platforms.
//
// Probe kinds:
//   kIoError   — a socket accept/read/write or an admission step fails
//                (transient; the caller retries through common::retry,
//                common/retry.hpp, and then degrades);
//   kStageFail — a pipeline stage's host computation fails outright.
//
// Transient-then-success semantics: `max_consecutive` caps how many times
// in a row one site can fault (the occurrence counter keeps advancing, the
// *answer* is forced to success). Every caller retries a site up to
// common::kRetryAttempts times, which exceeds the default cap, so transient
// schedules always converge to the fault-free result — which is what lets
// the determinism gates assert bit-identical MultiWarpEntry tables under
// any injected schedule. max_consecutive == 0 removes the cap (persistent
// faults), used by the tests that pin the software-fallback path itself.
//
// Fault counts are the injector's own: stats().injected_by_site, which the
// warpd "stats" op prints as fault.<site>=N. The layers keep no per-site
// fault counters of their own.
//
// Thread safety: all probes take an internal lock. Under a threaded engine
// the per-site occurrence order depends on host scheduling, so *which*
// probe call faults is schedule-dependent — but every injected fault is
// recoverable by construction, so final results stay deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace warp::common {

// The values salt each probe's draw, so a seed keeps its schedule.
enum class FaultKind : std::uint8_t {
  kIoError = 1,
  kStageFail = 4,
};

struct FaultConfig {
  std::uint64_t seed = 1;
  double io_error_p = 0.0;
  double stage_fail_p = 0.0;
  /// Max injected faults in a row at one site before the next probe there is
  /// forced to succeed; 0 = unlimited (persistent faults).
  unsigned max_consecutive = 3;

  /// A moderate all-sites transient profile for sweeps: both kinds enabled,
  /// convergence guaranteed (max_consecutive 2 < common::kRetryAttempts).
  static FaultConfig transient_sweep(std::uint64_t seed) {
    FaultConfig config;
    config.seed = seed;
    config.io_error_p = 0.10;
    config.stage_fail_p = 0.05;
    config.max_consecutive = 2;
    return config;
  }
};

struct FaultStats {
  std::uint64_t probes = 0;
  std::uint64_t injected = 0;
  std::map<std::string, std::uint64_t> injected_by_site;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(config) {}

  /// Does fault `kind` fire at `site` now? Advances the site's occurrence
  /// counter either way.
  bool probe(std::string_view site, FaultKind kind);

  FaultStats stats() const;
  const FaultConfig& config() const { return config_; }

 private:
  struct SiteState {
    std::uint64_t occurrences = 0;
    unsigned consecutive = 0;
    std::uint64_t injected = 0;
  };

  double probability(FaultKind kind) const;
  /// Uniform [0,1) from (seed, site, salt) — the one source of randomness.
  double uniform(std::string_view site, std::uint64_t salt) const;

  mutable std::mutex mutex_;
  FaultConfig config_;
  std::map<std::string, SiteState, std::less<>> sites_;
  std::uint64_t probes_ = 0;
  std::uint64_t injected_ = 0;
};

/// probe() through a possibly-null injector: no injector, no fault.
inline bool injected(FaultInjector* fault, std::string_view site,
                     FaultKind kind = FaultKind::kIoError) {
  return fault != nullptr && fault->probe(site, kind);
}

}  // namespace warp::common
