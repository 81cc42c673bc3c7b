// The content-addressed key of the artifact cache.
#pragma once

#include <cstddef>
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

}  // namespace warp::partition
