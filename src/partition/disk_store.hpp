// Crash-safe persistent artifact store.
//
// A content-addressed on-disk layer under the in-memory ArtifactCache: one
// file per (stage, input-hash, config-hash) key, holding one serialized
// stage artifact (partition/artifact_serde.hpp) inside a self-validating
// envelope. A warm store lets a fresh process skip every pipeline stage it
// has already run — warp-as-a-service across restarts — without ever being
// trusted: anything the store returns was checksum-validated, and anything
// that fails validation is quarantined and reported as a miss, so the worst
// possible outcome of disk damage is a recompute.
//
// Envelope layout (all integers little-endian):
//
//   u64  magic "WARPSTOR"
//   u32  store format version
//   u32  artifact type tag        (ArtifactCodec<T>::kTag)
//   u32  artifact format version  (ArtifactCodec<T>::kVersion)
//   str  stage name   -+
//   dig  input hash    | the full cache key, so a hash collision or renamed
//   dig  config hash  -+  file can never alias a different artifact
//   u64  payload size
//   ...  payload bytes
//   u64  byte count of everything above   -+  trailer: truncation and
//   dig  checksum of everything above     -+  corruption detector
//
// Write discipline: serialize to <name>.tmp.<pid>.<seq>, write, fsync,
// atomically rename over the final name, fsync the directory. A crash at
// any point leaves either no file, a stale .tmp (removed at next open), or
// the complete old/new file — never a half-visible artifact under the final
// name. One parser validates every envelope outside-in (trailer length +
// checksum, magic, store version, structure); loads then compare the
// embedded key, type tag and version with the request before the payload
// is handed to a codec. Any mismatch moves the file aside to
// <name>.quarantined and counts as a miss.
//
// Fault injection (common/fault_injector.hpp) probes the sites
// "store.put.write", "store.put.rename" (both on the shared install path),
// "store.put" (torn write under the final name — the simulated crash; put
// only), "store.get.read" and "store.get" (corrupted read). Transient I/O
// errors are retried through common::retry (common/retry.hpp): up to
// common::kRetryAttempts attempts per step with jittered exponential
// backoff. After the budget the operation degrades (put: artifact not
// persisted; get: miss). A get on a missing file is a miss at once,
// never retried. Injected-fault counts are the injector's per-site stats.
//
// Bounding: with max_bytes set, least-recently-used artifacts are unlinked
// until the store fits (access order is seeded from file mtimes at open).
//
// Every method is thread-safe.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/retry.hpp"
#include "partition/cache_key.hpp"

namespace warp::partition {

struct DiskStoreOptions {
  std::string directory;
  std::uint64_t max_bytes = 0;      // 0 = unbounded
  common::FaultInjector* fault = nullptr;  // may be null
};

struct DiskStoreStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;
  std::uint64_t put_failures = 0;   // not persisted (I/O budget exhausted / torn)
  std::uint64_t quarantined = 0;    // files moved aside as damaged
  std::uint64_t io_retries = 0;     // individual retried I/O steps
  std::uint64_t evictions = 0;      // files unlinked by the byte cap
  std::uint64_t files = 0;          // resident artifact files
  std::uint64_t bytes = 0;          // resident artifact bytes
};

class DiskArtifactStore {
 public:
  static constexpr std::uint64_t kMagic = 0x524F545350524157ull;  // "WARPSTOR" LE
  static constexpr std::uint32_t kStoreVersion = 1;

  /// Opens (creating if needed) the store directory, removes stale .tmp
  /// files from crashed writers, and indexes the resident artifacts.
  /// Construction never throws for I/O reasons; an unusable directory just
  /// yields a store on which every operation degrades (put fails, get
  /// misses).
  explicit DiskArtifactStore(DiskStoreOptions options);

  DiskArtifactStore(const DiskArtifactStore&) = delete;
  DiskArtifactStore& operator=(const DiskArtifactStore&) = delete;

  /// Persist one serialized artifact. Returns whether the artifact is
  /// durably on disk under its final name. Failure is not an error state:
  /// the store stays usable and the caller's in-memory copy is untouched.
  bool put(const CacheKey& key, std::uint32_t type_tag, std::uint32_t type_version,
           const std::vector<std::uint8_t>& payload);

  /// Load the payload for `key` if a fully valid envelope of the expected
  /// type/version is on disk; nullopt is a miss. Damaged or mismatched
  /// files are quarantined.
  std::optional<std::vector<std::uint8_t>> get(const CacheKey& key, std::uint32_t type_tag,
                                               std::uint32_t type_version);

  /// Move the file for `key` aside as damaged. Used by the cache layer when
  /// a payload passes the envelope checks but fails its codec (corruption
  /// indistinguishable from a format bug — either way, stop serving it).
  void quarantine_key(const CacheKey& key);

  DiskStoreStats stats() const;
  const DiskStoreOptions& options() const { return options_; }

  /// Final on-disk path for a key (tests corrupt files through this).
  std::string path_for(const CacheKey& key) const;

 private:
  struct FileState {
    std::uint64_t bytes = 0;
    std::list<std::string>::iterator lru;  // position in lru_ (front = oldest)
  };

  /// The file name for `key` ("<stage>-<hex>.art").
  static std::string name_for(const CacheKey& key);
  /// tmp -> fsync -> rename -> dir fsync under the retry discipline.
  bool install(const std::string& name, const std::vector<std::uint8_t>& envelope);
  bool write_file_once(const std::string& tmp_path, const std::vector<std::uint8_t>& bytes);
  bool rename_file(const std::string& from, const std::string& to);
  std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);
  void quarantine_locked(const std::string& name);
  void note_access_locked(const std::string& name, std::uint64_t bytes);
  void forget_locked(const std::string& name);
  void evict_to_cap_locked();
  void count_io_retry();

  DiskStoreOptions options_;
  bool usable_ = false;
  common::Backoff backoff_;

  mutable std::mutex mutex_;
  std::list<std::string> lru_;  // file names, least recently used first
  std::unordered_map<std::string, FileState> index_;
  DiskStoreStats stats_;
  std::uint64_t tmp_seq_ = 0;
};

}  // namespace warp::partition
