// Figure 4: multi-processor warp system with a single shared DPM — and the
// host-side scale-out of that experiment.
//
// The paper argues one DPM serving all processors round-robin is sufficient
// (Section 3). This bench first reproduces the six-processor table (per
// processor: software/warped times and how long it waited for the shared
// DPM — the cost of sharing), then scales the experiment to 16/32/64
// replicated kernel mixes and measures the *simulator's* wall clock three
// ways: the serial reference engine, the threaded engine (warpd's workers
// run the simulations and take turns running the partitioning jobs, one at
// a time on the one DPM), and the
// threaded engine with the shared content-addressed artifact cache
// (partition/cache.hpp), under which the partitioning stages run once per
// *unique* kernel instead of once per system. All engines must produce
// bit-identical MultiWarpEntry tables — the virtual-time queue and the
// deterministic cache-hit cost model, not host scheduling, define every
// reported number.
//
// Emits BENCH_fig4.json in the working directory (including per-stage
// cache-hit counters for the largest scale). Exits nonzero if any run
// deviates from the serial cache-off reference. Speedups are reported, not
// gated: they depend on the host's core count.
//
// --check: fast CI gate. Runs a 12-system mix (two replicas per kernel)
// through serial/parallel x cache-off/cold/warm, verifies bit-identity
// everywhere and that cached stages ran once per unique kernel; then sweeps
// 10 deterministic fault-injection seeds (transient stage failures, starting
// at --fault-seed) and requires the MultiWarpEntry tables to stay
// bit-identical under every schedule. Writes no JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "common/fault_injector.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "partition/pipeline.hpp"
#include "serve/multiprocessor.hpp"

namespace {

using namespace warp;

std::vector<std::string> replicated_mix(std::size_t n) {
  std::vector<std::string> base;
  for (const auto& w : workloads::all_workloads()) base.push_back(w.name);
  std::vector<std::string> mix;
  for (std::size_t i = 0; i < n; ++i) mix.push_back(base[i % base.size()]);
  return mix;
}

std::size_t unique_kernel_count(const std::vector<std::string>& mix) {
  std::vector<std::string> sorted = mix;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

struct TimedRun {
  std::vector<warpsys::MultiWarpEntry> entries;
  double ms = 0.0;
};

TimedRun timed_run(const std::vector<std::string>& mix,
                   const serve::MultiWarpOptions& options) {
  auto built = experiments::build_warp_systems(mix, experiments::default_options());
  if (!built) {
    std::fprintf(stderr, "build systems failed: %s\n", built.message().c_str());
    std::exit(1);
  }
  auto systems = std::move(built).value();
  const auto start = std::chrono::steady_clock::now();
  TimedRun run;
  run.entries = serve::run_multiprocessor(systems, mix, options);
  run.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start)
               .count();
  return run;
}

struct ScalePoint {
  std::size_t systems = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double cached_ms = 0.0;   // parallel + fresh shared artifact cache
  double speedup = 0.0;
  double cached_speedup = 0.0;
  bool identical = false;
  bool cached_identical = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

// --- --check: the CI cache-determinism gate --------------------------------

int run_check(std::uint64_t fault_seed) {
  const auto mix = replicated_mix(12);  // two replicas of each kernel
  const std::size_t unique = unique_kernel_count(mix);

  serve::MultiWarpOptions serial_off;
  serial_off.parallel = false;
  const auto reference = timed_run(mix, serial_off).entries;

  bool ok = true;
  auto expect_same = [&](const char* label,
                         const std::vector<warpsys::MultiWarpEntry>& got,
                         const std::vector<warpsys::MultiWarpEntry>& want) {
    const bool same = got == want;
    std::printf("  %-32s %s\n", label, same ? "bit-identical" : "DEVIATES");
    if (!same) ok = false;
  };

  std::printf("fig4 --check: 12-system mix, %zu unique kernels\n", unique);

  serve::MultiWarpOptions parallel_off;
  expect_same("parallel, cache off", timed_run(mix, parallel_off).entries, reference);

  partition::ArtifactCache cache;
  serve::MultiWarpOptions serial_on = serial_off;
  serial_on.cache = &cache;
  expect_same("serial, cold cache", timed_run(mix, serial_on).entries, reference);
  expect_same("serial, warm cache", timed_run(mix, serial_on).entries, reference);

  serve::MultiWarpOptions parallel_on;
  parallel_on.cache = &cache;
  expect_same("parallel, warm cache", timed_run(mix, parallel_on).entries, reference);

  // A fresh cache of its own, so the once-per-unique-kernel count below
  // still covers exactly the three runs on `cache`.
  partition::ArtifactCache cold_cache;
  serve::MultiWarpOptions parallel_cold;
  parallel_cold.cache = &cold_cache;
  expect_same("parallel, cold cache", timed_run(mix, parallel_cold).entries, reference);

  // Once per unique kernel: over three cached runs of 12 systems each, the
  // frontend must have computed exactly `unique` times, and every stage's
  // misses can only be its own unique inputs (hits must dominate).
  const auto stats = cache.stats();
  std::uint64_t hits = 0;
  for (const auto& [stage, s] : stats) hits += s.hits;
  const auto frontend = stats.find(partition::kStageFrontend);
  if (frontend == stats.end() || frontend->second.misses != unique) {
    std::printf("  FAIL: frontend computed %llu times, want once per unique kernel (%zu)\n",
                frontend == stats.end()
                    ? 0ull
                    : static_cast<unsigned long long>(frontend->second.misses),
                unique);
    ok = false;
  }
  if (hits == 0) {
    std::printf("  FAIL: shared cache saw no hits across replicated systems\n");
    ok = false;
  }
  // The workers take their DPM turns one at a time, so the cold parallel
  // run computes every stage key once, as the serial cold run did.
  for (const auto& [stage, s] : cold_cache.stats()) {
    const auto serial = stats.find(stage);
    if (serial == stats.end() || serial->second.misses != s.misses) {
      std::printf("  FAIL: the cold parallel run computed %s %llu times, the serial run %llu\n",
                  stage.c_str(), static_cast<unsigned long long>(s.misses),
                  serial == stats.end() ? 0ull
                                        : static_cast<unsigned long long>(serial->second.misses));
      ok = false;
    }
  }
  for (const auto& [stage, s] : stats) {
    std::printf("  cache %-10s lookups=%-4llu hits=%-4llu misses=%llu\n", stage.c_str(),
                static_cast<unsigned long long>(s.lookups),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses));
  }

  // --- Deterministic fault-injection sweep. --------------------------------
  const int kFaultSeeds = 10;
  std::printf("fig4 --check: fault sweep, %d seeds from %llu (transient profile)\n",
              kFaultSeeds, static_cast<unsigned long long>(fault_seed));
  std::uint64_t injected_total = 0;
  for (int s = 0; s < kFaultSeeds; ++s) {
    const std::uint64_t seed = fault_seed + static_cast<std::uint64_t>(s);
    common::FaultInjector fault(common::FaultConfig::transient_sweep(seed));
    partition::ArtifactCache fault_cache;
    serve::MultiWarpOptions options;
    options.cache = &fault_cache;
    options.fault = &fault;
    const bool same = timed_run(mix, options).entries == reference;
    const std::uint64_t injected = fault.stats().injected;
    std::printf("  fault seed %-4llu injected=%-5llu %s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(injected),
                same ? "bit-identical" : "DEVIATES");
    if (!same) ok = false;
    injected_total += injected;
  }
  if (injected_total == 0) {
    std::printf("  FAIL: the fault sweep injected nothing — probes not wired through\n");
    ok = false;
  }

  std::printf("fig4 --check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_systems = 64;
  bool check = false;
  std::uint64_t fault_seed = 1;  // first seed of the --check fault sweep
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-systems") == 0 && i + 1 < argc) {
      char* end = nullptr;
      ++i;
      const unsigned long value = std::strtoul(argv[i], &end, 10);
      if (argv[i][0] == '-' || end == argv[i] || *end != '\0' || value == 0) {
        std::fprintf(stderr, "--max-systems expects a positive integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
      max_systems = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      char* end = nullptr;
      ++i;
      const unsigned long long value = std::strtoull(argv[i], &end, 10);
      if (argv[i][0] == '-' || end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--fault-seed expects a non-negative integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
      fault_seed = static_cast<std::uint64_t>(value);
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (supported: --max-systems N, --check, "
                   "--fault-seed S)\n",
                   argv[i]);
      return 1;
    }
  }
  if (check) return run_check(fault_seed);

  // --- The paper's six-processor experiment (round robin). ---------------
  const auto mix6 = replicated_mix(6);
  serve::MultiWarpOptions serial_options;
  serial_options.parallel = false;
  const auto fig4 = timed_run(mix6, serial_options);

  common::Table table({"Processor", "Benchmark", "SW (ms)", "Warped (ms)", "Speedup",
                       "DPM job (ms)", "DPM wait (ms)"});
  double total_dpm = 0.0;
  for (std::size_t i = 0; i < fig4.entries.size(); ++i) {
    const auto& e = fig4.entries[i];
    table.add_row({common::format("cpu%zu", i), e.name,
                   common::format("%.3f", e.sw_seconds * 1e3),
                   common::format("%.3f", e.warped_seconds * 1e3),
                   common::format("%.2fx", e.speedup),
                   common::format("%.1f", e.dpm_seconds * 1e3),
                   common::format("%.1f", e.dpm_wait_seconds * 1e3)});
    total_dpm += e.dpm_seconds;
  }
  std::printf("Figure 4: six-processor warp system, one shared DPM (round robin)\n\n%s\n",
              table.to_string().c_str());
  std::printf("Total DPM busy time: %.1f ms — a single DPM suffices, as the paper argues;\n",
              total_dpm * 1e3);
  std::printf("the last processor waits %.1f ms before its kernel comes online.\n\n",
              fig4.entries.empty() ? 0.0 : fig4.entries.back().dpm_wait_seconds * 1e3);

  // --- Host scale-out: serial vs. threaded vs. threaded + artifact cache. --
  const unsigned host_threads = std::thread::hardware_concurrency();
  std::vector<ScalePoint> points;
  std::map<std::string, partition::StageCacheStats> last_stage_stats;
  bool all_identical = true;
  for (const std::size_t n : {std::size_t{6}, std::size_t{16}, std::size_t{32},
                              std::size_t{64}}) {
    if (n > max_systems) continue;
    const auto mix = replicated_mix(n);
    const auto serial = timed_run(mix, serial_options);
    serve::MultiWarpOptions parallel_options;  // defaults: parallel round robin
    const auto parallel = timed_run(mix, parallel_options);
    partition::ArtifactCache cache;  // cold per scale point
    serve::MultiWarpOptions cached_options;
    cached_options.cache = &cache;
    const auto cached = timed_run(mix, cached_options);

    ScalePoint point;
    point.systems = n;
    point.serial_ms = serial.ms;
    point.parallel_ms = parallel.ms;
    point.cached_ms = cached.ms;
    point.speedup = serial.ms / parallel.ms;
    point.cached_speedup = serial.ms / cached.ms;
    point.identical = serial.entries == parallel.entries;
    point.cached_identical = serial.entries == cached.entries;
    const auto stats = cache.stats();
    for (const auto& [stage, s] : stats) {
      point.cache_hits += s.hits;
      point.cache_misses += s.misses;
    }
    last_stage_stats = stats;

    all_identical = all_identical && point.identical && point.cached_identical;
    points.push_back(point);
  }

  common::Table scale_table({"Systems", "Serial (ms)", "Parallel (ms)", "Cached (ms)",
                             "Host speedup", "Cached speedup", "Bit-identical"});
  for (const auto& p : points) {
    scale_table.add_row(
        {common::format("%zu", p.systems), common::format("%.0f", p.serial_ms),
         common::format("%.0f", p.parallel_ms), common::format("%.0f", p.cached_ms),
         common::format("%.2fx", p.speedup), common::format("%.2fx", p.cached_speedup),
         (p.identical && p.cached_identical) ? "yes" : "NO"});
  }
  std::printf("Host scale-out (%u hardware threads): serial vs. threaded vs. threaded +\n"
              "shared artifact cache (partitioning stages once per unique kernel).\n\n%s\n",
              host_threads, scale_table.to_string().c_str());

  FILE* json = std::fopen("BENCH_fig4.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_fig4.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"fig4_multiprocessor\",\n");
  std::fprintf(json, "  \"host_threads\": %u,\n", host_threads);
  std::fprintf(json, "  \"scales\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(json,
                 "    {\"systems\": %zu, \"serial_ms\": %.2f, \"parallel_ms\": %.2f, "
                 "\"cached_parallel_ms\": %.2f, \"host_speedup\": %.3f, "
                 "\"cached_speedup\": %.3f, \"cache_hits\": %llu, "
                 "\"cache_misses\": %llu, \"bit_identical\": %s, "
                 "\"cache_bit_identical\": %s}%s\n",
                 p.systems, p.serial_ms, p.parallel_ms, p.cached_ms, p.speedup,
                 p.cached_speedup, static_cast<unsigned long long>(p.cache_hits),
                 static_cast<unsigned long long>(p.cache_misses),
                 p.identical ? "true" : "false", p.cached_identical ? "true" : "false",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"cache_stages_at_max_scale\": {\n");
  {
    std::size_t emitted = 0;
    for (const auto& [stage, s] : last_stage_stats) {
      std::fprintf(json,
                   "    \"%s\": {\"lookups\": %llu, \"hits\": %llu, \"misses\": %llu}%s\n",
                   stage.c_str(), static_cast<unsigned long long>(s.lookups),
                   static_cast<unsigned long long>(s.hits),
                   static_cast<unsigned long long>(s.misses),
                   ++emitted < last_stage_stats.size() ? "," : "");
    }
  }
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_fig4.json\n");

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: an engine deviated from the serial reference\n");
    return 1;
  }
  return 0;
}
