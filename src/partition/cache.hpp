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
// Failures are artifacts too — with a kind. A *deterministic* rejection
// (non-affine addressing, unroutable netlist, ...) replays forever: the
// same input would fail the same way. A *transient* failure (injected
// fault, I/O error) must not: find() reports such entries as misses so the
// stage retries, and they are never persisted. See cache_key.hpp.
//
// Layering: attach_store() puts a crash-safe DiskArtifactStore underneath.
// A memory miss then consults the disk; a validated payload is decoded
// through its ArtifactCodec and promoted into memory, and every non-
// transient memory insert is written through. The store is optional and
// untrusted — all its failure modes surface here as ordinary misses.
//
// Bounding: with max_entries/max_bytes set, least-recently-used artifacts
// are evicted on insert. Eviction only drops the cached copy (shared_ptr
// holders keep theirs) and is counted per stage.
//
// Thread safety: all operations take an internal lock. The engines call the
// pipeline from one DPM thread at a time, but the cache does not rely on
// that.
#pragma once

#include <cassert>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "partition/cache_key.hpp"
#include "partition/disk_store.hpp"

namespace warp::partition {

// Specialized per artifact type in partition/artifact_serde.hpp. Only
// declared here: the cache's template methods instantiate codec calls at
// call sites, which include the serde header.
template <typename T>
struct ArtifactCodec;

struct StageCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;        // artifacts currently resident
  std::uint64_t bytes = 0;          // their encoded sizes (when tracked)
  std::uint64_t evictions = 0;      // artifacts dropped by the bounds
  std::uint64_t disk_hits = 0;      // misses served by the attached store
  std::uint64_t transient_retries = 0;  // cached transient failures re-tried
};

struct ArtifactCacheOptions {
  std::uint64_t max_entries = 0;  // 0 = unbounded
  std::uint64_t max_bytes = 0;    // 0 = unbounded (encoded artifact bytes)
};

class ArtifactCache {
 public:
  ArtifactCache() = default;
  explicit ArtifactCache(ArtifactCacheOptions options) : options_(options) {}

  /// Layer a persistent store underneath (not owned; may be null to
  /// detach). Typically attached right after construction.
  void attach_store(DiskArtifactStore* store) {
    std::lock_guard<std::mutex> lock(mutex_);
    store_ = store;
  }

  /// Look up a stage artifact. Returns nullptr (and counts a miss) when the
  /// key is unknown, when the resident entry is a transient failure (which
  /// must be recomputed, not replayed), and when the disk layer cannot
  /// produce a valid artifact. T must be the artifact type the stage always
  /// stores under its name — checked by assert in debug builds.
  template <typename T>
  std::shared_ptr<const T> find(const CacheKey& key) {
    DiskArtifactStore* store = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      StageCacheStats& stats = stats_[key.stage];
      ++stats.lookups;
      const auto it = map_.find(key);
      if (it != map_.end()) {
        assert(it->second.type == std::type_index(typeid(T)));
        if (it->second.fail_kind == FailureKind::kTransient) {
          ++stats.misses;
          ++stats.transient_retries;
          return nullptr;
        }
        ++stats.hits;
        touch_locked(it);
        return std::static_pointer_cast<const T>(it->second.value);
      }
      ++stats.misses;
      store = store_;
    }
    if (store == nullptr) return nullptr;
    // Disk path, outside the lock: store I/O and codec decode are slow, and
    // a concurrent recompute of the same key is merely redundant work.
    auto payload = store->get(key, ArtifactCodec<T>::kTag, ArtifactCodec<T>::kVersion);
    if (!payload) return nullptr;
    auto decoded = ArtifactCodec<T>::decode(payload->data(), payload->size());
    if (!decoded) {
      // Passed the envelope checksum but not the codec: damaged in a way
      // the trailer cannot see, or a format bug. Stop serving the file.
      store->quarantine_key(key);
      return nullptr;
    }
    std::shared_ptr<const T> value = std::move(decoded).value();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      StageCacheStats& stats = stats_[key.stage];
      ++stats.disk_hits;
      insert_locked(key, std::type_index(typeid(T)),
                    std::static_pointer_cast<const void>(value), FailureKind::kNone,
                    payload->size());
    }
    return value;
  }

  /// Store a stage artifact with its failure classification. First writer
  /// wins, except that a resident *transient* failure is replaced (that is
  /// the retry landing). Non-transient artifacts are written through to the
  /// attached store; transient ones never touch memory bounds accounting or
  /// disk beyond their map slot.
  template <typename T>
  void put(const CacheKey& key, std::shared_ptr<const T> value,
           FailureKind fail_kind = FailureKind::kNone) {
    DiskArtifactStore* store = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      store = store_;
    }
    // Encode once when anything needs the bytes: the write-through, or byte
    // accounting for the in-memory bound. The default unbounded memory-only
    // configuration skips this entirely.
    std::vector<std::uint8_t> encoded;
    const bool persist = store != nullptr && fail_kind != FailureKind::kTransient;
    const bool track_bytes = options_.max_bytes != 0;
    if (persist || track_bytes) encoded = ArtifactCodec<T>::encode(*value);
    std::uint64_t bytes = encoded.size();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = map_.find(key);
      if (it != map_.end() && it->second.fail_kind != FailureKind::kTransient) return;
      if (it != map_.end()) erase_locked(it);
      insert_locked(key, std::type_index(typeid(T)),
                    std::static_pointer_cast<const void>(std::move(value)), fail_kind,
                    bytes);
    }
    if (persist) {
      store->put(key, ArtifactCodec<T>::kTag, ArtifactCodec<T>::kVersion, encoded);
    }
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

  std::uint64_t total_evictions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto& [stage, s] : stats_) n += s.evictions;
    return n;
  }

  std::uint64_t total_disk_hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto& [stage, s] : stats_) n += s.disk_hits;
    return n;
  }

  std::uint64_t total_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  const ArtifactCacheOptions& options() const { return options_; }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    stats_.clear();
    lru_.clear();
    bytes_ = 0;
  }

 private:
  struct Entry {
    std::type_index type;
    std::shared_ptr<const void> value;
    FailureKind fail_kind = FailureKind::kNone;
    std::uint64_t bytes = 0;
    std::list<CacheKey>::iterator lru;
  };
  using Map = std::unordered_map<CacheKey, Entry, CacheKeyHash>;

  void touch_locked(Map::iterator it) {
    lru_.splice(lru_.end(), lru_, it->second.lru);
  }

  void insert_locked(const CacheKey& key, std::type_index type,
                     std::shared_ptr<const void> value, FailureKind fail_kind,
                     std::uint64_t bytes) {
    lru_.push_back(key);
    Entry entry{type, std::move(value), fail_kind, bytes, std::prev(lru_.end())};
    const auto [it, inserted] = map_.try_emplace(key, std::move(entry));
    if (!inserted) {  // lost a race with a concurrent identical put
      lru_.erase(std::prev(lru_.end()));
      return;
    }
    StageCacheStats& stats = stats_[key.stage];
    ++stats.entries;
    stats.bytes += bytes;
    bytes_ += bytes;
    evict_locked();
  }

  void erase_locked(Map::iterator it) {
    StageCacheStats& stats = stats_[it->first.stage];
    --stats.entries;
    stats.bytes -= it->second.bytes;
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru);
    map_.erase(it);
  }

  void evict_locked() {
    const bool over_entries = options_.max_entries != 0 && map_.size() > options_.max_entries;
    const bool over_bytes = options_.max_bytes != 0 && bytes_ > options_.max_bytes;
    if (!over_entries && !over_bytes) return;
    while (lru_.size() > 1 &&
           ((options_.max_entries != 0 && map_.size() > options_.max_entries) ||
            (options_.max_bytes != 0 && bytes_ > options_.max_bytes))) {
      const auto it = map_.find(lru_.front());
      assert(it != map_.end());
      ++stats_[it->first.stage].evictions;
      erase_locked(it);
    }
  }

  ArtifactCacheOptions options_;
  DiskArtifactStore* store_ = nullptr;

  mutable std::mutex mutex_;
  Map map_;
  std::list<CacheKey> lru_;  // least recently used first
  std::uint64_t bytes_ = 0;
  std::map<std::string, StageCacheStats> stats_;
};

}  // namespace warp::partition
