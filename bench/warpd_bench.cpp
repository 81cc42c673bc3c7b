// warpd_bench: the multi-session serving benchmark and CI smoke gate.
//
// Default mode queues 256 warp sessions (a cycled 8-workload mix with
// periodic config overrides — 16 unique kernels) through the full stack:
// a line-protocol client over the Unix-domain socket into a warpd engine at
// worker counts {1, 2, 4}, each over a fresh artifact cache. Every run's
// result table must be bit-identical to the serial reference engine
// (run_serial) — the threaded host scheduler and the cache must never
// change a simulated number. Emits BENCH_warpd.json (schema in
// docs/benchmarks.md) with admission->completion latency percentiles
// (nearest-rank p50/p95/p99), the DPM turns' occupancy and cache hit
// counters. The serial reference runs without a cache or worker threads,
// so its row counts only its DPM jobs. Gated: bit-identity everywhere, and
// every row's counters must agree with its own session count.
//
// --check: fast CI gate — a 64-session stream at worker counts {1, 2, 4}
// against the serial reference, counters checked the same way; with
// --fault-seed S it adds a 10-seed
// transient fault-injection sweep (one injector wired through the engine's
// stage sites and the serve.accept/read/write socket sites) requiring
// bit-identical tables under every schedule. Writes no JSON.
//
// --serve PATH: CLI daemon mode — serve on PATH until stdin closes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/fault_injector.hpp"
#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/warpd.hpp"
#include "warpd_support.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace warp;
using bench::percentile;
using serve::protocol::Request;

// The session stream: cycled extended mix with periodic config overrides.
// packed_width is host-only (excluded from the kernel content hash), so the
// unique-kernel count is 8 workloads x {default, max_candidates=4} = 16.
std::vector<Request> make_requests(std::size_t n) {
  const auto& workloads = workloads::extended_workloads();
  std::vector<Request> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request request;
    request.id = i;
    request.seq = i;
    request.workload = workloads[i % workloads.size()].name;
    if (i % 5 == 3) request.overrides.max_candidates = 4;
    if (i % 7 == 2) request.overrides.packed_width = 1;
    requests.push_back(request);
  }
  return requests;
}

struct RunResult {
  std::string label;
  unsigned workers = 0;  // 0 = serial reference
  std::vector<warpsys::MultiWarpEntry> entries;  // by seq
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  bool identical = true;  // vs. the serial reference (true for the reference)
  std::uint64_t dpm_jobs = 0;  // DPM jobs run (inline, in the serial reference)
  // Engine runs only (the serial reference has no cache and no workers):
  std::uint64_t unique_kernels = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double dpm_busy_ms = 0.0;  // host wall clock the workers' DPM turns took
  std::size_t latencies = 0;  // sessions with a latency sample
};

void fill_percentiles(RunResult& run, const std::vector<double>& latencies) {
  run.latencies = latencies.size();
  run.p50_ms = percentile(latencies, 50.0);
  run.p95_ms = percentile(latencies, 95.0);
  run.p99_ms = percentile(latencies, 99.0);
}

void add_cache_counters(RunResult& run, const partition::ArtifactCache& cache) {
  for (const auto& [stage, s] : cache.stats()) {
    run.cache_hits += s.hits;
    run.cache_misses += s.misses;
  }
}

RunResult serial_reference(const std::vector<Request>& requests) {
  serve::WarpdOptions options;
  options.base = experiments::default_options();
  RunResult run;
  run.label = "serial_reference";
  const auto start = std::chrono::steady_clock::now();
  const auto outcomes = serve::run_serial(requests, options);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  std::vector<double> latencies;
  for (const auto& out : outcomes) {
    if (!out.error.empty()) {
      std::fprintf(stderr, "serial reference rejected id=%llu: %s\n",
                   static_cast<unsigned long long>(out.id), out.error.c_str());
      std::exit(1);
    }
    run.entries.push_back(out.entry);
    latencies.push_back(out.latency_ms);
    if (out.dpm_job) ++run.dpm_jobs;
  }
  fill_percentiles(run, latencies);
  return run;
}

// One full client->socket->engine run: a sender thread streams every request
// line, the main thread reads replies (completion order, correlated by id)
// until all sessions have answered.
RunResult socket_run(const std::string& label, const std::vector<Request>& requests,
                     const serve::WarpdOptions& engine,
                     common::FaultInjector* serve_fault) {
  const std::string path =
      common::format("/tmp/warpd_bench_%d.sock", static_cast<int>(::getpid()));
  serve::SocketServerOptions options;
  options.path = path;
  options.engine = engine;
  options.fault = serve_fault;
  serve::SocketServer server(options);
  if (const auto status = server.start(); !status) {
    std::fprintf(stderr, "%s: server start failed: %s\n", label.c_str(),
                 status.message().c_str());
    std::exit(1);
  }

  RunResult run;
  run.label = label;
  run.workers = server.engine().workers();
  const auto start = std::chrono::steady_clock::now();
  serve::Client client;
  if (const auto status = client.connect(path); !status) {
    std::fprintf(stderr, "%s: connect failed: %s\n", label.c_str(),
                 status.message().c_str());
    std::exit(1);
  }
  std::thread sender([&] {
    for (const auto& request : requests) {
      if (const auto status = client.send_line(serve::protocol::encode_request(request));
          !status) {
        std::fprintf(stderr, "%s: send failed: %s\n", label.c_str(),
                     status.message().c_str());
        std::exit(1);
      }
    }
    client.shutdown_send();
  });

  std::vector<warpsys::MultiWarpEntry> by_id(requests.size());
  for (std::size_t got = 0; got < requests.size(); ++got) {
    auto line = client.read_line();
    if (!line) {
      std::fprintf(stderr, "%s: read failed after %zu replies: %s\n", label.c_str(), got,
                   line.message().c_str());
      std::exit(1);
    }
    auto reply = serve::protocol::parse_reply(line.value());
    if (!reply) {
      std::fprintf(stderr, "%s: bad reply '%s': %s\n", label.c_str(),
                   line.value().c_str(), reply.message().c_str());
      std::exit(1);
    }
    if (!reply.value().ok) {
      std::fprintf(stderr, "%s: unexpected err reply id=%llu: %s\n", label.c_str(),
                   static_cast<unsigned long long>(reply.value().id),
                   reply.value().detail.c_str());
      std::exit(1);
    }
    if (reply.value().id >= by_id.size()) {
      std::fprintf(stderr, "%s: reply id out of range\n", label.c_str());
      std::exit(1);
    }
    by_id[reply.value().id] = serve::protocol::entry_of(reply.value());
  }
  sender.join();
  run.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();

  const auto stats = server.engine().stats();
  run.unique_kernels = stats.unique_kernels;
  run.dpm_jobs = stats.dpm_jobs;
  run.dpm_busy_ms = stats.dpm_busy_ms;
  fill_percentiles(run, stats.latencies_ms);
  server.stop();
  client.close();
  run.entries = std::move(by_id);  // id == seq in every stream we build
  return run;
}

bool check_identical(const RunResult& reference, RunResult& run) {
  run.identical = run.entries == reference.entries;
  std::printf("  %-28s workers=%u wall=%7.0fms p50=%6.1fms p95=%6.1fms p99=%6.1fms %s\n",
              run.label.c_str(), run.workers, run.wall_ms, run.p50_ms, run.p95_ms,
              run.p99_ms, run.identical ? "bit-identical" : "DEVIATES");
  return run.identical;
}

/// A row's counters must agree with its session count (every session
/// answered ok, or the run exited): one latency per session, at least one
/// and at most one DPM job per session and, for an engine run, at least one
/// kernel, no more kernels than DPM jobs and a cache lookup per DPM job.
bool counters_consistent(const RunResult& run) {
  const std::size_t ok = run.entries.size();
  std::string why;
  if (run.latencies != ok) {
    why = common::format("%zu latencies", run.latencies);
  } else if (run.dpm_jobs == 0 || run.dpm_jobs > ok) {
    why = common::format("%llu DPM jobs", static_cast<unsigned long long>(run.dpm_jobs));
  } else if (run.workers != 0 &&
             (run.unique_kernels == 0 || run.unique_kernels > run.dpm_jobs)) {
    why = common::format("%llu unique kernels for %llu DPM jobs",
                         static_cast<unsigned long long>(run.unique_kernels),
                         static_cast<unsigned long long>(run.dpm_jobs));
  } else if (run.workers != 0 && run.cache_hits + run.cache_misses < run.dpm_jobs) {
    why = common::format("%llu cache lookups for %llu DPM jobs",
                         static_cast<unsigned long long>(run.cache_hits + run.cache_misses),
                         static_cast<unsigned long long>(run.dpm_jobs));
  }
  if (why.empty()) return true;
  std::printf("  FAIL %s: counters contradict its %zu ok sessions: %s\n", run.label.c_str(), ok,
              why.c_str());
  return false;
}

// --- --check: the CI smoke gate -------------------------------------------

int run_check(std::size_t sessions, std::uint64_t fault_seed, bool have_fault_seed) {
  const auto requests = make_requests(sessions);
  std::printf("warpd --check: %zu sessions over the socket protocol\n", sessions);
  const auto reference = serial_reference(requests);
  bool ok = counters_consistent(reference);

  for (const unsigned workers : {1u, 2u, 4u}) {
    serve::WarpdOptions engine;
    engine.workers = workers;
    engine.base = experiments::default_options();
    partition::ArtifactCache cache;
    engine.cache = &cache;
    auto run = socket_run(common::format("socket_workers_%u", workers), requests, engine,
                          nullptr);
    add_cache_counters(run, cache);
    ok = check_identical(reference, run) && ok;
    ok = counters_consistent(run) && ok;
  }

  if (have_fault_seed) {
    const int kSeeds = 10;
    std::printf("warpd --check: fault sweep, %d seeds from %llu (transient profile)\n",
                kSeeds, static_cast<unsigned long long>(fault_seed));
    std::uint64_t injected_total = 0;
    for (int s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = fault_seed + static_cast<std::uint64_t>(s);
      common::FaultInjector fault(common::FaultConfig::transient_sweep(seed));
      partition::ArtifactCache cache;
      serve::WarpdOptions engine;
      engine.base = experiments::default_options();
      engine.cache = &cache;
      engine.fault = &fault;
      auto run = socket_run(common::format("fault_seed_%llu",
                                           static_cast<unsigned long long>(seed)),
                            requests, engine, &fault);
      ok = check_identical(reference, run) && ok;
      injected_total += fault.stats().injected;
    }
    std::printf("  injected %llu faults over %d seeds\n",
                static_cast<unsigned long long>(injected_total), kSeeds);
    if (injected_total == 0) {
      std::printf("  FAIL: the fault sweep injected nothing — probes not wired through\n");
      ok = false;
    }
  }

  std::printf("warpd --check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// --- --serve: CLI daemon mode ---------------------------------------------

int run_daemon(const std::string& path) {
  partition::ArtifactCache cache;
  serve::WarpdOptions engine;
  engine.base = experiments::default_options();
  engine.cache = &cache;
  serve::SocketServerOptions options;
  options.path = path;
  options.engine = engine;
  serve::SocketServer server(options);
  if (const auto status = server.start(); !status) {
    std::fprintf(stderr, "warpd: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("warpd: serving on %s (%u workers); EOF on stdin stops\n", path.c_str(),
              server.engine().workers());
  int c;
  while ((c = std::getchar()) != EOF) {
  }
  server.stop();
  const auto stats = server.engine().stats();
  std::printf("warpd: served %llu sessions (%llu rejected), %llu unique kernels\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.unique_kernels));
  return 0;
}

void emit_json(const std::vector<RunResult>& runs, std::size_t sessions) {
  FILE* json = std::fopen("BENCH_warpd.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_warpd.json\n");
    std::exit(1);
  }
  std::fprintf(json, "{\n  \"bench\": \"warpd\",\n");
  std::fprintf(json, "  \"sessions\": %zu,\n", sessions);
  std::fprintf(json, "  \"host_threads\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(json, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::fprintf(json,
                 "    {\"label\": \"%s\", \"workers\": %u, \"wall_ms\": %.2f, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"bit_identical\": %s, \"dpm_jobs\": %llu",
                 r.label.c_str(), r.workers, r.wall_ms, r.p50_ms, r.p95_ms, r.p99_ms,
                 r.identical ? "true" : "false", static_cast<unsigned long long>(r.dpm_jobs));
    if (r.workers != 0) {  // the serial reference has no cache and no workers
      std::fprintf(json,
                   ", \"unique_kernels\": %llu, \"cache_hits\": %llu, "
                   "\"cache_misses\": %llu, \"dpm_busy_ms\": %.2f",
                   static_cast<unsigned long long>(r.unique_kernels),
                   static_cast<unsigned long long>(r.cache_hits),
                   static_cast<unsigned long long>(r.cache_misses), r.dpm_busy_ms);
    }
    std::fprintf(json, "}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_warpd.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 256;
  bool check = false;
  std::string serve_path;
  std::uint64_t fault_seed = 1;
  bool have_fault_seed = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      char* end = nullptr;
      ++i;
      const unsigned long value = std::strtoul(argv[i], &end, 10);
      if (argv[i][0] == '-' || end == argv[i] || *end != '\0' || value == 0) {
        std::fprintf(stderr, "--sessions expects a positive integer, got '%s'\n", argv[i]);
        return 1;
      }
      sessions = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_path = argv[++i];
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
      have_fault_seed = true;
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (supported: --check, --sessions N, "
                   "--fault-seed S, --serve PATH)\n",
                   argv[i]);
      return 1;
    }
  }
  if (!serve_path.empty()) return run_daemon(serve_path);
  if (check) return run_check(std::min<std::size_t>(sessions, 64), fault_seed, have_fault_seed);

  std::printf("warpd bench: %zu sessions, 8-workload mix, 16 unique kernels\n", sessions);
  const auto requests = make_requests(sessions);
  std::vector<RunResult> runs;
  runs.push_back(serial_reference(requests));
  // Copy: later push_backs reallocate `runs`, so a reference would dangle.
  const RunResult reference = runs.front();
  std::printf("  %-28s workers=- wall=%7.0fms p50=%6.1fms p95=%6.1fms p99=%6.1fms\n",
              reference.label.c_str(), reference.wall_ms, reference.p50_ms,
              reference.p95_ms, reference.p99_ms);

  bool ok = counters_consistent(reference);
  for (const unsigned workers : {1u, 2u, 4u}) {
    serve::WarpdOptions engine;
    engine.workers = workers;
    engine.base = experiments::default_options();
    partition::ArtifactCache cache;  // fresh per run
    engine.cache = &cache;
    auto run = socket_run(common::format("socket_workers_%u", workers), requests, engine,
                          nullptr);
    add_cache_counters(run, cache);
    ok = check_identical(reference, run) && ok;
    ok = counters_consistent(run) && ok;
    runs.push_back(std::move(run));
  }

  emit_json(runs, sessions);
  if (!ok) {
    std::fprintf(stderr, "FAIL: a gate failed (see above)\n");
    return 1;
  }
  return 0;
}
