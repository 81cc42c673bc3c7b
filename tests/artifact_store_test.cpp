// Crash-safe persistent artifact store + fault-injection tests.
//
// The store's contract is "never a wrong artifact, worst case a recompute":
// any damage to an on-disk envelope — a flipped byte at *any* offset, a
// truncation to *any* length, a torn write that leaves a stump under the
// final name — must be detected, quarantined, and reported as a miss, while
// the pipeline recomputes and every simulated number stays bit-identical to
// a store-less run. These tests fuzz that contract exhaustively at the
// envelope level, fuzz the typed codecs on real pipeline artifacts, and pin
// the end-to-end guarantees: warm restarts serve from disk, torn writes
// recover across a reopen, transient fault schedules are absorbed by
// bounded retries, and persistent stage faults land in the paper's
// fall-back-to-software path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/hash.hpp"
#include "experiments/harness.hpp"
#include "partition/artifact_serde.hpp"
#include "partition/cache.hpp"
#include "partition/disk_store.hpp"
#include "partition/pipeline.hpp"
#include "serve/multiprocessor.hpp"

namespace warp {
namespace {

namespace fs = std::filesystem;

using serve::MultiWarpOptions;
using warpsys::MultiWarpEntry;

// Unique scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() /
             ("warp_store_test_" + name + "_" +
              std::to_string(static_cast<unsigned long>(::getpid())))) {
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

partition::CacheKey make_key(const char* stage, std::uint32_t input_salt,
                             std::uint32_t config_salt) {
  partition::CacheKey key;
  key.stage = stage;
  common::Hasher hi;
  hi.u32(input_salt);
  key.input = hi.finish();
  common::Hasher hc;
  hc.u32(config_salt);
  key.config = hc.finish();
  return key;
}

std::vector<std::uint8_t> read_all(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_all(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

struct MixRun {
  std::vector<std::unique_ptr<warpsys::WarpSystem>> systems;
  std::vector<MultiWarpEntry> entries;
};

MixRun run_mix(const std::vector<std::string>& mix, const MultiWarpOptions& options) {
  auto built = experiments::build_warp_systems(mix, experiments::default_options());
  EXPECT_TRUE(built.is_ok()) << built.message();
  MixRun run;
  run.systems = std::move(built).value();
  run.entries = serve::run_multiprocessor(run.systems, mix, options);
  return run;
}

const std::vector<std::string> kMix = {"brev", "g3fax", "brev"};

// --- Envelope-level behavior -----------------------------------------------

TEST(DiskStore, PutGetRoundTripAndTypeChecks) {
  TempDir dir("roundtrip");
  const auto key = make_key("synth", 1, 2);
  std::vector<std::uint8_t> payload(301);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);

  partition::DiskArtifactStore store({.directory = dir.path.string()});
  ASSERT_TRUE(store.put(key, 3, 1, payload));
  EXPECT_EQ(store.stats().files, 1u);

  auto got = store.get(key, 3, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);

  // Unknown key: a plain miss, nothing quarantined.
  EXPECT_FALSE(store.get(make_key("synth", 9, 2), 3, 1).has_value());
  EXPECT_EQ(store.stats().quarantined, 0u);

  // Wrong type tag or version: the file cannot serve this request and is
  // quarantined (a format bug or aliasing — either way, stop serving it).
  EXPECT_FALSE(store.get(key, 4, 1).has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);
  ASSERT_TRUE(store.put(key, 3, 1, payload));
  EXPECT_FALSE(store.get(key, 3, 2).has_value());
  EXPECT_EQ(store.stats().quarantined, 2u);

  // The store stays usable after quarantines.
  ASSERT_TRUE(store.put(key, 3, 1, payload));
  EXPECT_TRUE(store.get(key, 3, 1).has_value());
}

TEST(DiskStore, SurvivesReopenAndSweepsStaleTemps) {
  TempDir dir("reopen");
  const auto key = make_key("pnr", 4, 5);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  {
    partition::DiskArtifactStore store({.directory = dir.path.string()});
    ASSERT_TRUE(store.put(key, 6, 1, payload));
  }
  // A crashed writer's leftover temp file.
  write_all(dir.path / "ghost.art.tmp.123.7", {9, 9, 9});

  partition::DiskArtifactStore reopened({.directory = dir.path.string()});
  EXPECT_EQ(reopened.stats().files, 1u);
  EXPECT_FALSE(fs::exists(dir.path / "ghost.art.tmp.123.7"));
  auto got = reopened.get(key, 6, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(DiskStore, ByteCapEvictsOldestFiles) {
  TempDir dir("cap");
  std::vector<std::uint8_t> payload(200, 0xAB);
  // Roomy enough for roughly two envelopes, not three.
  partition::DiskArtifactStore store(
      {.directory = dir.path.string(), .max_bytes = 650});
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(store.put(make_key("synth", i, 0), 3, 1, payload));
  const auto st = store.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes, 650u);
  // The newest artifact always survives the cap.
  EXPECT_TRUE(store.get(make_key("synth", 3, 0), 3, 1).has_value());

  // The cap also holds across a reopen (oldest-first by mtime).
  partition::DiskArtifactStore reopened(
      {.directory = dir.path.string(), .max_bytes = 650});
  EXPECT_LE(reopened.stats().bytes, 650u);
}

// Regression: a `get` whose unlocked file read races the byte cap evicting
// that very key must not resurrect the evicted entry. The read bytes are
// still served (quarantine-free), but re-indexing the unlinked file left a
// ghost entry behind — stats.files/bytes drifting from the directory and
// the cap evicting live artifacts to pay for phantom bytes. Pin the
// invariant: after arbitrary get/evict churn, the index matches the disk
// exactly, nothing was quarantined, and an evicted key recomputes cleanly.
TEST(DiskStore, EvictionRacingGetLeavesNoGhostEntry) {
  TempDir dir("evictrace");
  const auto hot = make_key("synth", 77, 0);
  // A large payload keeps the reader inside get()'s unlocked read/validate
  // window long enough for the cap to race it.
  std::vector<std::uint8_t> payload(64 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 13 + 1);
  // Room for only ONE envelope: every filler put unconditionally evicts the
  // hot key — including while the reader threads are mid-get on it. (A
  // roomier cap never hits the race: the readers' own LRU refreshes keep
  // the hot key at the young end.)
  const std::uint64_t kCap = 80 * 1024;
  partition::DiskArtifactStore store(
      {.directory = dir.path.string(), .max_bytes = kCap});

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> served{0};
  auto reader_main = [&] {
    while (!done.load()) {
      auto got = store.get(hot, 3, 1);
      if (got.has_value()) {
        ++served;
        // Never a wrong payload, whatever the interleaving.
        if (*got != payload) {
          ADD_FAILURE() << "eviction race served a corrupt payload";
          return;
        }
      }
    }
  };
  std::thread reader_a(reader_main);
  std::thread reader_b(reader_main);

  // After each round (no put in flight, readers cannot change the
  // directory), the index must mirror the disk exactly. A resurrected
  // ghost entry shows up as files/bytes the directory doesn't have.
  std::string violation;
  for (std::uint32_t round = 0; round < 150 && violation.empty(); ++round) {
    ASSERT_TRUE(store.put(hot, 3, 1, payload));
    ASSERT_TRUE(store.put(make_key("synth", 1000 + round, 0), 3, 1, payload));
    std::uint64_t disk_files = 0;
    std::uint64_t disk_bytes = 0;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".art") {
        ++disk_files;
        disk_bytes += entry.file_size();
      }
    }
    const auto st = store.stats();
    if (st.files != disk_files || st.bytes != disk_bytes) {
      violation = "round " + std::to_string(round) + ": index says " +
                  std::to_string(st.files) + " files / " + std::to_string(st.bytes) +
                  " bytes, disk has " + std::to_string(disk_files) + " / " +
                  std::to_string(disk_bytes);
    }
  }
  done.store(true);
  reader_a.join();
  reader_b.join();
  EXPECT_TRUE(violation.empty()) << violation;
  EXPECT_GT(served.load(), 0u);

  const auto st = store.stats();
  EXPECT_LE(st.bytes, kCap);
  EXPECT_EQ(st.quarantined, 0u);
  EXPECT_GT(st.evictions, 0u);

  // The evicted hot key recomputes cleanly: miss, re-put, hit.
  (void)store.get(hot, 3, 1);
  ASSERT_TRUE(store.put(hot, 3, 1, payload));
  auto again = store.get(hot, 3, 1);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, payload);
}

// Satellite: every single-byte flip and every truncation of an envelope must
// be rejected, quarantined, and recoverable — never a wrong payload, never a
// crash.
TEST(DiskStore, FuzzEveryByteFlipAndTruncation) {
  TempDir dir("fuzz");
  const auto key = make_key("techmap", 11, 12);
  std::vector<std::uint8_t> payload(97);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i ^ 0x31);

  partition::DiskArtifactStore store({.directory = dir.path.string()});
  ASSERT_TRUE(store.put(key, 4, 1, payload));
  const fs::path file = store.path_for(key);
  const std::vector<std::uint8_t> pristine = read_all(file);
  ASSERT_GT(pristine.size(), payload.size());

  std::uint64_t rejected = 0;
  for (std::size_t offset = 0; offset < pristine.size(); ++offset) {
    std::vector<std::uint8_t> mutated = pristine;
    mutated[offset] ^= 0xFF;
    write_all(file, mutated);
    const auto got = store.get(key, 4, 1);
    // Every offset is covered by the checksum trailer (or *is* the trailer),
    // so no flip may ever be served.
    ASSERT_FALSE(got.has_value()) << "flip at offset " << offset << " served";
    ++rejected;
  }
  for (std::size_t length = 0; length < pristine.size(); ++length) {
    write_all(file, std::vector<std::uint8_t>(pristine.begin(),
                                              pristine.begin() +
                                                  static_cast<std::ptrdiff_t>(length)));
    ASSERT_FALSE(store.get(key, 4, 1).has_value())
        << "truncation to " << length << " bytes served";
    ++rejected;
  }
  EXPECT_EQ(store.stats().quarantined, rejected);

  // Restoring the pristine bytes restores service.
  write_all(file, pristine);
  auto got = store.get(key, 4, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

// --- Codec-level fuzz on real pipeline artifacts ---------------------------

// Real artifacts of every stage type, produced by driving the pipeline on a
// profiled workload exactly as Pipeline::run does.
struct FlowArtifacts {
  std::shared_ptr<const partition::FrontendArtifact> frontend;
  std::shared_ptr<const partition::DecompileArtifact> decompiled;
  std::shared_ptr<const partition::SynthArtifact> synthesized;
  std::shared_ptr<const partition::TechmapArtifact> mapped;
  std::shared_ptr<const partition::RocmArtifact> rocm;
  std::shared_ptr<const partition::PnrArtifact> placed_routed;
  std::shared_ptr<const partition::BitstreamArtifact> bits;
  std::shared_ptr<const partition::StubArtifact> stub;
};

FlowArtifacts flow_artifacts() {
  FlowArtifacts out;
  auto built = experiments::build_warp_systems({"brev"}, experiments::default_options());
  EXPECT_TRUE(built.is_ok()) << built.message();
  auto systems = std::move(built).value();
  auto& system = *systems[0];
  auto sw = system.run_software();
  EXPECT_TRUE(sw.is_ok()) << sw.message();

  const auto& words = system.program().words;
  common::Hasher h;
  h.u64(words.size());
  for (const std::uint32_t w : words) h.u32(w);
  const common::Digest binary_hash = h.finish();

  partition::Pipeline pipeline(system.config().dpm);
  out.frontend = pipeline.run_frontend(words, binary_hash);
  for (const auto& candidate : system.loop_profiler().candidates()) {
    auto d = pipeline.run_decompile(*out.frontend, binary_hash, candidate.branch_pc,
                                    candidate.target_pc);
    if (d->ok) {
      out.decompiled = d;
      break;
    }
  }
  EXPECT_TRUE(out.decompiled && out.decompiled->ok) << "no extractable loop in brev";
  if (!out.decompiled) return out;
  out.synthesized = pipeline.run_synth(*out.decompiled);
  EXPECT_TRUE(out.synthesized->ok) << out.synthesized->error;
  out.mapped = pipeline.run_techmap(*out.synthesized);
  EXPECT_TRUE(out.mapped->ok) << out.mapped->error;
  out.rocm = pipeline.run_rocm(*out.mapped);
  out.placed_routed = pipeline.run_pnr(*out.mapped);
  EXPECT_TRUE(out.placed_routed->ok) << out.placed_routed->error;
  out.bits = pipeline.run_bitstream(*out.placed_routed);
  const std::uint32_t stub_addr =
      (static_cast<std::uint32_t>(words.size()) * 4 + 15u) & ~15u;
  out.stub = pipeline.run_stub(*out.decompiled, *out.frontend, stub_addr, 0xFFFF'F000u);
  EXPECT_TRUE(out.stub->ok) << out.stub->error;
  return out;
}

// decode(encode(a)) must re-encode to the identical bytes (the encoding is
// canonical, so byte equality is artifact equality), and every flipped or
// truncated buffer must decode defensively: either a clean error or a valid
// artifact — never a crash, never an out-of-bounds read (the ASan CI job
// keeps this test honest).
template <typename T>
void fuzz_codec(const char* what, const T& artifact) {
  using Codec = partition::ArtifactCodec<T>;
  const std::vector<std::uint8_t> encoded = Codec::encode(artifact);
  ASSERT_FALSE(encoded.empty()) << what;

  auto decoded = Codec::decode(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.is_ok()) << what << ": " << decoded.message();
  EXPECT_EQ(Codec::encode(*decoded.value()), encoded) << what;

  const std::size_t step = std::max<std::size_t>(1, encoded.size() / 512);
  std::size_t samples = 0;
  std::size_t decode_survivors = 0;
  for (std::size_t offset = 0; offset < encoded.size(); offset += step) {
    std::vector<std::uint8_t> mutated = encoded;
    mutated[offset] ^= 0xFF;
    auto result = Codec::decode(mutated.data(), mutated.size());
    ++samples;
    if (result.is_ok()) ++decode_survivors;
  }
  // The (tag, version) prefix is always structural: flips there must reject.
  for (std::size_t offset = 0; offset < std::min<std::size_t>(8, encoded.size());
       ++offset) {
    std::vector<std::uint8_t> mutated = encoded;
    mutated[offset] ^= 0xFF;
    EXPECT_FALSE(Codec::decode(mutated.data(), mutated.size()).is_ok())
        << what << " flipped header byte " << offset << " decoded";
  }
  // Truncations at every length class, plus the exact tail boundaries.
  for (std::size_t length = 0; length < encoded.size();
       length += std::max<std::size_t>(1, step)) {
    auto result = Codec::decode(encoded.data(), length);
    EXPECT_FALSE(result.is_ok()) << what << " truncated to " << length << " decoded";
  }
  for (std::size_t drop = 1; drop <= std::min<std::size_t>(8, encoded.size()); ++drop) {
    auto result = Codec::decode(encoded.data(), encoded.size() - drop);
    EXPECT_FALSE(result.is_ok()) << what << " short by " << drop << " decoded";
  }
  // Some single-byte flips legally decode — a flipped bit inside plain data
  // the codec cannot cross-check (a bitstream word, a counter, an error
  // string); the store's checksum envelope is the layer that catches those.
  // The codec's own line of defense is the structural checks above, so here
  // we only require that not every sampled flip survived.
  EXPECT_LT(decode_survivors, samples) << what;
}

TEST(ArtifactCodec, RoundTripAndFuzzEveryStageType) {
  const FlowArtifacts flow = flow_artifacts();
  ASSERT_TRUE(flow.stub) << "flow did not complete";
  fuzz_codec("frontend", *flow.frontend);
  fuzz_codec("decompile", *flow.decompiled);
  fuzz_codec("synth", *flow.synthesized);
  fuzz_codec("techmap", *flow.mapped);
  fuzz_codec("rocm", *flow.rocm);
  fuzz_codec("pnr", *flow.placed_routed);
  fuzz_codec("bitstream", *flow.bits);
  fuzz_codec("stub", *flow.stub);
}

TEST(ArtifactCodec, FailureArtifactsRoundTrip) {
  partition::DecompileArtifact failed;
  failed.ok = false;
  failed.error = "decompile: non-affine address";
  failed.fail_kind = partition::FailureKind::kDeterministic;
  failed.region_instrs = 17;
  const auto encoded = partition::ArtifactCodec<partition::DecompileArtifact>::encode(failed);
  auto decoded = partition::ArtifactCodec<partition::DecompileArtifact>::decode(
      encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  const auto& back = *decoded.value();
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, failed.error);
  EXPECT_EQ(back.fail_kind, partition::FailureKind::kDeterministic);
  EXPECT_EQ(back.region_instrs, 17u);
}

// --- End-to-end store behavior through the multiprocessor engine -----------

TEST(DiskStore, WarmRestartServesFromDiskBitIdentically) {
  TempDir dir("warm");
  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = run_mix(kMix, serial_off).entries;

  {
    partition::DiskArtifactStore store({.directory = dir.path.string()});
    partition::ArtifactCache mem;
    mem.attach_store(&store);
    MultiWarpOptions options = serial_off;
    options.cache = &mem;
    EXPECT_EQ(run_mix(kMix, options).entries, reference) << "cold store";
    EXPECT_GT(store.stats().files, 0u);
    EXPECT_EQ(mem.total_disk_hits(), 0u) << "nothing on disk before the cold run";
  }
  {
    // Simulated process restart: fresh memory cache, reopened directory.
    partition::DiskArtifactStore store({.directory = dir.path.string()});
    partition::ArtifactCache mem;
    mem.attach_store(&store);
    MultiWarpOptions options = serial_off;
    options.cache = &mem;
    EXPECT_EQ(run_mix(kMix, options).entries, reference) << "warm store";
    EXPECT_GT(mem.total_disk_hits(), 0u) << "warm run must resolve stages from disk";
    EXPECT_EQ(store.stats().quarantined, 0u);
  }
}

// Satellite: a torn write is a simulated kill mid-put. The stump left under
// the final name must be quarantined on the next read, and the tables must
// stay bit-identical to a cold-cache run.
TEST(DiskStore, TornWriteCrashConsistencyAcrossReopen) {
  TempDir dir("torn");
  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = run_mix(kMix, serial_off).entries;

  common::FaultConfig torn;
  torn.torn_write_p = 1.0;   // every put is killed mid-write
  torn.max_consecutive = 0;  // persistently
  common::FaultInjector fault(torn);
  {
    partition::DiskArtifactStore store(
        {.directory = dir.path.string(), .fault = &fault});
    partition::ArtifactCache mem;
    mem.attach_store(&store);
    MultiWarpOptions options = serial_off;
    options.cache = &mem;
    EXPECT_EQ(run_mix(kMix, options).entries, reference) << "torn-write run";
    const auto st = store.stats();
    EXPECT_GT(st.put_failures, 0u);
    EXPECT_EQ(st.put_failures, st.puts) << "every put must have been torn";
  }
  // Reopen without faults: every resident file is a half-written stump and
  // must be quarantined; the run recomputes everything, bit-identically.
  {
    partition::DiskArtifactStore store({.directory = dir.path.string()});
    partition::ArtifactCache mem;
    mem.attach_store(&store);
    MultiWarpOptions options = serial_off;
    options.cache = &mem;
    EXPECT_EQ(run_mix(kMix, options).entries, reference) << "post-crash reopen";
    EXPECT_GT(store.stats().quarantined, 0u) << "stumps must be quarantined";
    EXPECT_EQ(mem.total_disk_hits(), 0u) << "a stump may never serve an artifact";
    bool saw_quarantine_file = false;
    for (const auto& entry : fs::directory_iterator(dir.path))
      if (entry.path().extension() == ".quarantined") saw_quarantine_file = true;
    EXPECT_TRUE(saw_quarantine_file);
  }
  // Third run: the previous run re-put valid artifacts; now disk serves.
  {
    partition::DiskArtifactStore store({.directory = dir.path.string()});
    partition::ArtifactCache mem;
    mem.attach_store(&store);
    MultiWarpOptions options = serial_off;
    options.cache = &mem;
    EXPECT_EQ(run_mix(kMix, options).entries, reference) << "recovered store";
    EXPECT_GT(mem.total_disk_hits(), 0u);
  }
}

// --- Fault injection through the pipeline ----------------------------------

TEST(FaultInjection, TransientSchedulesAreBitIdentical) {
  MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = run_mix(kMix, serial_off).entries;

  std::uint64_t injected = 0;
  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
    common::FaultInjector fault(common::FaultConfig::transient_sweep(seed));
    MultiWarpOptions options = serial_off;
    options.fault = &fault;
    EXPECT_EQ(run_mix(kMix, options).entries, reference) << "seed " << seed;
    injected += fault.stats().injected;
  }
  EXPECT_GT(injected, 0u) << "the sweep must actually inject faults";
}

TEST(FaultInjection, PersistentStageFaultFallsBackToSoftware) {
  common::FaultConfig lethal;
  lethal.stage_fail_p = 1.0;
  lethal.max_consecutive = 0;  // the retry budget can never converge
  common::FaultInjector fault(lethal);

  MultiWarpOptions options;
  options.parallel = false;
  options.fault = &fault;
  const auto run = run_mix(kMix, options);
  ASSERT_EQ(run.entries.size(), kMix.size());
  for (std::size_t i = 0; i < run.entries.size(); ++i) {
    // The contract of warp processing: a failed DPM flow leaves the binary
    // running in software — no warp, no crash, no exception.
    EXPECT_FALSE(run.entries[i].warped) << "cpu" << i;
    EXPECT_GT(run.entries[i].sw_seconds, 0.0) << "cpu" << i;
    EXPECT_GT(run.entries[i].warped_seconds, 0.0) << "cpu" << i;
    const warpsys::PartitionOutcome* outcome = run.systems[i]->outcome();
    ASSERT_NE(outcome, nullptr);
    EXPECT_FALSE(outcome->success);
  }

  // The fallback is itself deterministic: a second identical schedule
  // produces the identical table.
  common::FaultInjector fault2(lethal);
  MultiWarpOptions again = options;
  again.fault = &fault2;
  EXPECT_EQ(run_mix(kMix, again).entries, run.entries);
}

TEST(FaultInjection, TransientStoreIoIsRetriedWithinBudget) {
  TempDir dir("retry");
  common::FaultConfig flaky;
  flaky.io_error_p = 0.9;
  flaky.max_consecutive = 2;  // below common::kRetryAttempts
  common::FaultInjector fault(flaky);

  partition::DiskArtifactStore store({.directory = dir.path.string(), .fault = &fault});
  const auto key = make_key("rocm", 21, 22);
  const std::vector<std::uint8_t> payload = {5, 4, 3, 2, 1};
  ASSERT_TRUE(store.put(key, 5, 1, payload));
  auto got = store.get(key, 5, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_GT(store.stats().io_retries, 0u) << "faults must have forced retries";
}

// Satellite: a cached *transient* failure must be retried, not replayed; a
// deterministic failure stays cached.
TEST(ArtifactCache, TransientFailuresAreRetriedDeterministicOnesCached) {
  partition::ArtifactCache cache;
  const auto key = make_key("decompile", 31, 32);

  auto transient = std::make_shared<partition::DecompileArtifact>();
  transient->ok = false;
  transient->error = "injected stage fault";
  transient->fail_kind = partition::FailureKind::kTransient;
  cache.put<partition::DecompileArtifact>(key, transient,
                                          partition::FailureKind::kTransient);
  EXPECT_EQ(cache.find<partition::DecompileArtifact>(key), nullptr)
      << "a transient failure must read as a miss (retry)";
  const auto stats = cache.stats();
  EXPECT_EQ(stats.at("decompile").transient_retries, 1u);

  // The retry landed on a deterministic rejection: it replaces the transient
  // entry and is served from then on.
  auto deterministic = std::make_shared<partition::DecompileArtifact>();
  deterministic->ok = false;
  deterministic->error = "decompile: non-affine address";
  deterministic->fail_kind = partition::FailureKind::kDeterministic;
  cache.put<partition::DecompileArtifact>(key, deterministic,
                                          partition::FailureKind::kDeterministic);
  auto found = cache.find<partition::DecompileArtifact>(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->error, deterministic->error);
}

TEST(ArtifactCache, TransientFailuresNeverTouchDisk) {
  TempDir dir("transient");
  partition::DiskArtifactStore store({.directory = dir.path.string()});
  partition::ArtifactCache cache;
  cache.attach_store(&store);

  auto transient = std::make_shared<partition::DecompileArtifact>();
  transient->ok = false;
  transient->fail_kind = partition::FailureKind::kTransient;
  cache.put<partition::DecompileArtifact>(make_key("decompile", 41, 42), transient,
                                          partition::FailureKind::kTransient);
  EXPECT_EQ(store.stats().puts, 0u) << "a transient failure must never be persisted";

  auto deterministic = std::make_shared<partition::DecompileArtifact>();
  deterministic->ok = false;
  deterministic->error = "too many streams";
  deterministic->fail_kind = partition::FailureKind::kDeterministic;
  cache.put<partition::DecompileArtifact>(make_key("decompile", 43, 44), deterministic,
                                          partition::FailureKind::kDeterministic);
  EXPECT_EQ(store.stats().puts, 1u) << "deterministic failures are persisted";
}

}  // namespace
}  // namespace warp
