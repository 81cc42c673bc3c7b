// The content-addressed key of the artifact cache, plus the failure-kind
// vocabulary it uses to decide whether a cached rejection may be replayed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/hash.hpp"

namespace warp::partition {

struct CacheKey {
  std::string stage;      // pipeline stage name (pipeline.hpp kStage* constants)
  common::Digest input;   // content hash of the stage's input artifact
  common::Digest config;  // hash of the stage-relevant options
  bool operator==(const CacheKey&) const = default;

  /// Canonical digest of the whole key (CacheKeyHash takes its low word).
  common::Digest digest() const {
    common::Hasher h;
    h.str(stage).digest(input).digest(config);
    return h.finish();
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(k.digest().lo);
  }
};

/// How a stage artifact failed, if it did.
///
///   kNone          — the artifact is a success (or the stage cannot fail).
///   kDeterministic — the stage rejected its input for a reason that is a
///                    pure function of the input (non-affine addressing,
///                    unroutable netlist, ...). Recomputing would fail the
///                    same way, so the rejection caches like any artifact.
///   kTransient     — the failure came from the host environment (an
///                    injected stage fault), not from the input. Caching it
///                    verbatim would replay a stale failure forever, so the
///                    cache treats such entries as misses (retry).
enum class FailureKind : std::uint8_t {
  kNone = 0,
  kDeterministic = 1,
  kTransient = 2,
};

}  // namespace warp::partition
