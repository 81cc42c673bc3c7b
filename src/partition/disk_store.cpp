#include "partition/disk_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/serialize.hpp"

namespace warp::partition {
namespace fs = std::filesystem;
namespace {

// Trailer: u64 envelope-byte count + 128-bit checksum of those bytes.
constexpr std::size_t kTrailerBytes = 8 + 16;

std::string hex_digest(const common::Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s(32, '0');
  for (unsigned i = 0; i < 16; ++i) {
    s[15 - i] = kHex[(d.hi >> (4 * i)) & 0xF];
    s[31 - i] = kHex[(d.lo >> (4 * i)) & 0xF];
  }
  return s;
}

bool is_artifact_name(const std::string& name) {
  return name.size() > 4 && name.compare(name.size() - 4, 4, ".art") == 0;
}

// A complete envelope image that passed outside-in validation.
struct Envelope {
  CacheKey key;
  std::uint32_t type_tag = 0;
  std::uint32_t type_version = 0;
  std::size_t payload_begin = 0;  // payload = bytes[payload_begin, payload_end)
  std::size_t payload_end = 0;
};

// The one envelope parser. Validates outside-in, type-agnostic: the trailer
// (truncation + corruption), then magic/store version, then the structural
// fields. Loads (get) then compare the key, tag and version with the
// request.
std::optional<Envelope> parse_envelope(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kTrailerBytes) return std::nullopt;
  const std::size_t body_size = bytes.size() - kTrailerBytes;
  common::ByteReader trailer(bytes.data() + body_size, kTrailerBytes);
  trailer.expect_u64(body_size);
  const common::Digest checksum = trailer.digest();
  if (!trailer.at_end() || checksum != common::bytes_checksum(bytes.data(), body_size)) {
    return std::nullopt;
  }
  common::ByteReader r(bytes.data(), body_size);
  r.expect_u64(DiskArtifactStore::kMagic);
  r.expect_u32(DiskArtifactStore::kStoreVersion);
  Envelope envelope;
  envelope.type_tag = r.u32();
  envelope.type_version = r.u32();
  envelope.key.stage = r.str();
  envelope.key.input = r.digest();
  envelope.key.config = r.digest();
  const std::uint64_t payload_size = r.length(1);
  r.require(payload_size == r.remaining());
  if (!r.ok()) return std::nullopt;
  envelope.payload_begin = r.position();
  envelope.payload_end = body_size;
  return envelope;
}

}  // namespace

DiskArtifactStore::DiskArtifactStore(DiskStoreOptions options)
    : options_(std::move(options)) {
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec || !fs::is_directory(options_.directory, ec)) return;
  usable_ = true;

  // Index resident artifacts oldest-first so the byte cap evicts stale
  // entries before fresh ones; sweep out temp files from crashed writers.
  struct Resident {
    std::string name;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<Resident> resident;
  for (const auto& entry : fs::directory_iterator(options_.directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (!is_artifact_name(name)) continue;
    Resident r;
    r.name = name;
    r.bytes = static_cast<std::uint64_t>(entry.file_size(ec));
    r.mtime = entry.last_write_time(ec);
    resident.push_back(std::move(r));
  }
  std::sort(resident.begin(), resident.end(), [](const Resident& a, const Resident& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Resident& r : resident) note_access_locked(r.name, r.bytes);
  evict_to_cap_locked();
}

std::string DiskArtifactStore::name_for(const CacheKey& key) {
  return key.stage + "-" + hex_digest(key.digest()) + ".art";
}

std::string DiskArtifactStore::path_for(const CacheKey& key) const {
  return options_.directory + "/" + name_for(key);
}

void DiskArtifactStore::count_io_retry() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.io_retries;
}

bool DiskArtifactStore::write_file_once(const std::string& tmp_path,
                                        const std::vector<std::uint8_t>& bytes) {
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return false;
  }
  ::close(fd);
  return true;
}

bool DiskArtifactStore::rename_file(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) return false;
  // Make the rename itself durable.
  const int dir_fd = ::open(options_.directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return true;
}

bool DiskArtifactStore::put(const CacheKey& key, std::uint32_t type_tag,
                            std::uint32_t type_version,
                            const std::vector<std::uint8_t>& payload) {
  if (!usable_) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.puts;
  }

  common::ByteWriter w;
  w.u64(kMagic).u32(kStoreVersion).u32(type_tag).u32(type_version);
  w.str(key.stage).digest(key.input).digest(key.config);
  w.u64(payload.size()).raw(payload.data(), payload.size());
  const std::vector<std::uint8_t>& body = w.bytes();
  const common::Digest checksum = common::bytes_checksum(body.data(), body.size());
  const std::uint64_t body_bytes = body.size();
  w.u64(body_bytes).digest(checksum);
  const std::vector<std::uint8_t> envelope = w.take();

  const std::string name = name_for(key);

  // Torn write: the simulated crash leaves a truncated envelope visible
  // under the *final* name and this put never completes. The next get must
  // quarantine the stump and recompute.
  if (common::injected(options_.fault, "store.put", common::FaultKind::kTornWrite)) {
    const std::size_t torn = options_.fault->torn_length("store.put", envelope.size());
    const std::vector<std::uint8_t> stump(envelope.begin(),
                                          envelope.begin() + static_cast<std::ptrdiff_t>(torn));
    write_file_once(path_for(key), stump);
    std::lock_guard<std::mutex> lock(mutex_);
    note_access_locked(name, stump.size());
    ++stats_.put_failures;
    return false;
  }
  return install(name, envelope);
}

bool DiskArtifactStore::install(const std::string& name,
                                const std::vector<std::uint8_t>& envelope) {
  const std::string final_path = options_.directory + "/" + name;
  std::string tmp_path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tmp_path = final_path + ".tmp." + std::to_string(::getpid()) + "." +
               std::to_string(tmp_seq_++);
  }
  // Each step retries an injected fault or a failed call; every failed
  // attempt counts one io_retry.
  auto step = [&](const char* site, auto&& op) {
    return common::retry(backoff_, [&] {
      if (!common::injected(options_.fault, site) && op()) return common::Attempt::kDone;
      count_io_retry();
      return common::Attempt::kRetry;
    });
  };
  const bool installed =
      step("store.put.write", [&] { return write_file_once(tmp_path, envelope); }) &&
      step("store.put.rename", [&] { return rename_file(tmp_path, final_path); });
  if (!installed) ::unlink(tmp_path.c_str());
  std::lock_guard<std::mutex> lock(mutex_);
  if (!installed) {
    ++stats_.put_failures;
    return false;
  }
  note_access_locked(name, envelope.size());
  evict_to_cap_locked();
  return true;
}

std::optional<std::vector<std::uint8_t>> DiskArtifactStore::read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  struct ::stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    bytes.reserve(static_cast<std::size_t>(st.st_size));
  }
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

std::optional<std::vector<std::uint8_t>> DiskArtifactStore::get(const CacheKey& key,
                                                                std::uint32_t type_tag,
                                                                std::uint32_t type_version) {
  if (!usable_) return std::nullopt;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.gets;
  }
  const std::string path = path_for(key);
  const std::string name = fs::path(path).filename().string();

  std::optional<std::vector<std::uint8_t>> bytes;
  common::retry(backoff_, [&] {
    if (!common::injected(options_.fault, "store.get.read")) {
      std::error_code ec;
      if (!fs::exists(path, ec)) return common::Attempt::kGiveUp;  // a real miss
      bytes = read_file(path);
      if (bytes) return common::Attempt::kDone;
    }
    count_io_retry();
    return common::Attempt::kRetry;
  });
  if (!bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }

  // In-flight corruption: mutate the loaded image; the checksum below must
  // reject it (and the file gets quarantined like any other damage).
  if (common::injected(options_.fault, "store.get", common::FaultKind::kCorruptRead)) {
    options_.fault->corrupt("store.get", *bytes);
  }

  std::optional<std::vector<std::uint8_t>> payload;
  const auto envelope = parse_envelope(*bytes);
  if (envelope && envelope->key == key && envelope->type_tag == type_tag &&
      envelope->type_version == type_version) {
    payload.emplace(bytes->begin() + envelope->payload_begin,
                    bytes->begin() + envelope->payload_end);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!payload) {
    ++stats_.misses;
    quarantine_locked(name);
    return std::nullopt;
  }
  ++stats_.hits;
  // The read above ran unlocked, so the LRU cap may have evicted this entry
  // meanwhile (file unlinked, index entry dropped). The bytes already read
  // are still valid to serve, but re-indexing the name would create a ghost
  // entry with no backing file — miscounting files/bytes and making the cap
  // evict live artifacts to pay for it.
  if (index_.find(name) != index_.end()) note_access_locked(name, bytes->size());
  return payload;
}

void DiskArtifactStore::quarantine_key(const CacheKey& key) {
  if (!usable_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  quarantine_locked(fs::path(path_for(key)).filename().string());
}

void DiskArtifactStore::quarantine_locked(const std::string& name) {
  const std::string path = options_.directory + "/" + name;
  std::error_code ec;
  if (fs::exists(path, ec)) {
    fs::rename(path, path + ".quarantined", ec);
    if (ec) fs::remove(path, ec);  // renaming failed — removal also unserves it
    ++stats_.quarantined;
  }
  forget_locked(name);
}

void DiskArtifactStore::note_access_locked(const std::string& name, std::uint64_t bytes) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    lru_.push_back(name);
    index_.emplace(name, FileState{bytes, std::prev(lru_.end())});
    ++stats_.files;
    stats_.bytes += bytes;
    return;
  }
  stats_.bytes += bytes - it->second.bytes;
  it->second.bytes = bytes;
  lru_.splice(lru_.end(), lru_, it->second.lru);
}

void DiskArtifactStore::forget_locked(const std::string& name) {
  const auto it = index_.find(name);
  if (it == index_.end()) return;
  stats_.bytes -= it->second.bytes;
  --stats_.files;
  lru_.erase(it->second.lru);
  index_.erase(it);
}

void DiskArtifactStore::evict_to_cap_locked() {
  if (options_.max_bytes == 0) return;
  while (stats_.bytes > options_.max_bytes && !lru_.empty()) {
    const std::string victim = lru_.front();
    std::error_code ec;
    fs::remove(options_.directory + "/" + victim, ec);
    forget_locked(victim);
    ++stats_.evictions;
  }
}

DiskStoreStats DiskArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace warp::partition
