// Content-addressed artifact cache for the staged partition pipeline.
//
// Every pipeline stage is a deterministic function
//
//   artifact = stage(input artifact, stage config)
//
// so its result can be addressed by content: the key is (stage name, input
// content hash, stage-config hash). A multiprocessor experiment that
// replicates the same kernel across N systems then performs each stage's
// real work once per *unique* kernel — every later system resolves the
// stage from the cache, reusing the immutable artifact (Figure-4 scale-out:
// DPM host work drops from O(systems) to O(unique kernels)).
//
// Determinism contract: the cache never changes simulated results. Cached
// artifacts are bit-identical to recomputed ones (stages are pure and their
// inputs are content-hashed), and the pipeline charges a cache hit the same
// modeled DPM cycles as a recomputation — the paper's DPM has no artifact
// cache, so virtual time must not see ours. What a hit saves is host wall
// clock only.
//
// Failures are artifacts too: a rejection (non-affine addressing,
// unroutable netlist, ...) replays forever, because the same input would
// fail the same way. An injected stage fault is a property of the host, not
// of the input, so the pipeline never stores it (Pipeline::stage).
//
// The cache is one map in memory, unbounded: it holds one entry per unique
// key for its lifetime, which the owner (a bench round, a warpd process)
// scopes.
//
// Thread safety: all operations take an internal lock. The engines run one
// DPM job at a time, but the cache does not rely on that.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeindex>
#include <unordered_map>

#include "partition/cache_key.hpp"

namespace warp::partition {

struct StageCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;  // artifacts currently resident
};

class ArtifactCache {
 public:
  /// Look up a stage artifact. Returns nullptr (and counts a miss) when the
  /// key is unknown. T must be the artifact type the stage always stores
  /// under its name — checked by assert in debug builds.
  template <typename T>
  std::shared_ptr<const T> find(const CacheKey& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    StageCacheStats& stats = stats_[key.stage];
    ++stats.lookups;
    const auto it = map_.find(key);
    if (it != map_.end()) {
      assert(it->second.type == std::type_index(typeid(T)));
      ++stats.hits;
      return std::static_pointer_cast<const T>(it->second.value);
    }
    ++stats.misses;
    return nullptr;
  }

  /// Store a stage artifact. First writer wins.
  template <typename T>
  void put(const CacheKey& key, std::shared_ptr<const T> value) {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry entry{std::type_index(typeid(T)), std::move(value)};
    if (map_.try_emplace(key, std::move(entry)).second) ++stats_[key.stage].entries;
  }

  /// Snapshot of the per-stage traffic, ordered by stage name.
  std::map<std::string, StageCacheStats> stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  std::uint64_t total_hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t hits = 0;
    for (const auto& [stage, s] : stats_) hits += s.hits;
    return hits;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

 private:
  struct Entry {
    std::type_index type;
    std::shared_ptr<const void> value;
  };

  mutable std::mutex mutex_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> map_;
  std::map<std::string, StageCacheStats> stats_;
};

}  // namespace warp::partition
