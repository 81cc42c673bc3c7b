// warpd_load: open-loop overload and chaos load harness for warpd.
//
// Unlike warpd_bench (closed-loop throughput/latency on a healthy server),
// this driver attacks the overload machinery: it spawns a real warpd daemon
// as a child process (hidden --daemon mode of this same binary), streams
// requests at it open-loop — send times follow the arrival schedule, never
// the replies — across several connections, and checks that every accepted
// session is still bit-identical to the serial engine while the server
// sheds, times out, is SIGKILLed mid-stream and drains.
//
// Run set (scaled by --sessions):
//   baseline   one connection, modest rate, no caps: the full reply table
//              (waits included) must equal run_serial over the same stream;
//   overload   several connections flooding past max_sessions/max_queued:
//              "busy" replies must appear, retrying their deterministic
//              retry_ms hints must eventually land every session, the
//              reported max_queue_depth must respect the cap;
//   drainstorm a capped daemon under the same burst, then "drain" lands
//              while busy retries are still in flight: the daemon must shed
//              the storm, finish its in-flight sessions and exit 0 (retry
//              re-sends carry seeded jitter so connections do not hammer
//              the draining node in lockstep);
//   deadline   a single-worker daemon flooded with deadline_ms requests:
//              queued sessions past their deadline must resolve "timeout",
//              the rest must still serve bit-identically;
//   chaos      (--chaos, or the default full bench) a daemon with a
//              transient fault schedule is SIGKILLed mid-stream; a cold
//              respawn on the same socket must serve every unanswered
//              session bit-identically, report injected faults in its
//              stats, and then drain gracefully via the "drain" op,
//              exiting 0.
//
// Verification is reply-table-only — the driver never peeks into the
// daemon:
//   pure fields   every "ok" reply's (sw_s, warped_s, speedup, dpm_s,
//                 warped, detail) must equal a run_serial reference for that
//                 workload+overrides, bit for bit off the wire (%.17g);
//   wait chain    per daemon incarnation, the ok replies sorted by wait_s
//                 must replay through a DpmVirtualClock: each wait equals
//                 the clock's accumulated busy time and each dpm_s is then
//                 charged. Exact for incarnations whose replies all
//                 arrived; a lower bound (lost replies only add busy time)
//                 for a SIGKILLed incarnation.
//
// Emits BENCH_warpd_load.json (schema in docs/benchmarks.md). --check runs
// a reduced gate set and writes no JSON — the CI soak job wraps
// `warpd_load --check --chaos --fault-seed S` in a hard timeout.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/fault_injector.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/warpd.hpp"
#include "warp/warp_system.hpp"
#include "warpd_support.hpp"

namespace {

using namespace warp;
using namespace warp::bench;
using Clock = std::chrono::steady_clock;
using serve::protocol::Request;

// --- hidden --daemon mode --------------------------------------------------

volatile std::sig_atomic_t g_sigterm = 0;
void on_sigterm(int) { g_sigterm = 1; }

struct DaemonArgs {
  std::string socket;
  std::optional<std::uint64_t> fault_seed;  // transient_sweep profile
  unsigned workers = 2;
  std::size_t max_sessions = 0;
  std::size_t max_queued = 0;
};

// The child process: one SocketServer supervised by a 50ms poll loop. SIGTERM
// (the handler only sets a flag — drain takes locks) or a remote "drain" op
// ends the loop; drain() finishes in-flight sessions and stops. Exit 0 is
// the graceful-shutdown contract the parent process asserts.
int run_daemon(const DaemonArgs& args) {
  std::signal(SIGTERM, on_sigterm);
  std::optional<common::FaultInjector> fault;
  if (args.fault_seed) {
    fault.emplace(common::FaultConfig::transient_sweep(*args.fault_seed));
  }
  partition::ArtifactCache cache;
  serve::WarpdOptions engine;
  engine.workers = args.workers;
  engine.base = experiments::default_options();
  engine.cache = &cache;
  engine.fault = fault ? &*fault : nullptr;
  engine.admission.max_sessions = args.max_sessions;
  engine.admission.max_queued = args.max_queued;
  serve::SocketServerOptions options;
  options.path = args.socket;
  options.engine = engine;
  options.fault = fault ? &*fault : nullptr;
  serve::SocketServer server(options);
  if (const auto status = server.start(); !status) {
    std::fprintf(stderr, "warpd_load --daemon: %s\n", status.message().c_str());
    return 1;
  }
  while (!g_sigterm && !server.drain_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.drain();
  return 0;
}

// --- daemon supervision from the driver ------------------------------------

pid_t spawn_daemon(const DaemonArgs& args) {
  std::vector<std::string> argv = {"--daemon", "--socket", args.socket, "--workers",
                                   std::to_string(args.workers)};
  if (args.fault_seed) {
    argv.push_back("--fault-seed");
    argv.push_back(std::to_string(*args.fault_seed));
  }
  if (args.max_sessions != 0) {
    argv.push_back("--max-sessions");
    argv.push_back(std::to_string(args.max_sessions));
  }
  if (args.max_queued != 0) {
    argv.push_back("--max-queued");
    argv.push_back(std::to_string(args.max_queued));
  }
  return spawn_self(argv, args.socket, "daemon");
}

// --- request stream and serial references ----------------------------------

// Three distinct cheap kernels (small max_candidates keeps the CAD flow
// short on a small host), repeated heavily — repeats are what admission
// queues and the artifact cache serves. Each key appears on two adjacent
// ids, so with >= 2 workers identical sessions run at once.
Request make_load_request(std::uint64_t id) {
  static const char* kNames[] = {"brev", "crc", "fir"};
  Request request;
  request.id = id;
  request.workload = kNames[(id / 2) % 3];
  request.overrides.max_candidates = 2;
  return request;
}

// --- the open-loop client --------------------------------------------------

enum class IdState : std::uint8_t { kUnsent, kInFlight, kOk, kTimeout, kErr, kGaveUp };

struct Tracker {
  std::mutex mutex;
  std::vector<IdState> state;
  std::vector<warpsys::MultiWarpEntry> entries;  // kOk only
  std::vector<double> latency_ms;                // kOk only: first send -> ok
  std::vector<Clock::time_point> first_send;
  std::vector<bool> sent_once;
  std::vector<int> busy_seen;
  std::uint64_t busy_replies = 0;

  explicit Tracker(std::size_t n)
      : state(n, IdState::kUnsent), entries(n), latency_ms(n, 0.0), first_send(n),
        sent_once(n, false), busy_seen(n, 0) {}
};

struct Incarnation {
  // (wait_s, dpm_s) per ok reply, for the virtual-clock replay.
  std::vector<std::pair<double, double>> wait_chain;
  bool killed = false;  // SIGKILL fired during this incarnation
  bool send_failed = false;
};

constexpr int kMaxBusyRetries = 200;
constexpr std::uint64_t kMaxRetrySleepMs = 250;

// One daemon incarnation: stream `ids` open-loop at `rate_per_s` across
// `connections` client connections (round-robin), retry "busy" replies on
// their hints, and return once every assigned id is terminal — or once the
// daemon dies (chaos). If kill_after_ok > 0, SIGKILL the daemon after that
// many ok replies have landed across all connections. `jitter_seed` feeds
// the per-connection busy-retry jitter streams.
void run_incarnation(const std::string& socket_path, const std::vector<Request>& requests,
                     const std::vector<std::uint64_t>& ids, unsigned connections,
                     double rate_per_s, Tracker& tracker, Incarnation& inc,
                     std::uint64_t kill_after_ok, pid_t daemon_pid,
                     std::uint64_t jitter_seed) {
  struct Conn {
    serve::Client client;
    std::mutex mutex;
    std::condition_variable cv;
    // Seeded jitter for busy-retry due times (guarded by `mutex`): without
    // it every connection re-sends on the shared deterministic retry_ms
    // hint in lockstep, and the synchronized storm hammers a draining node.
    common::Rng retry_rng;
    // (due time, id): the pre-scheduled open-loop sends plus busy retries.
    std::deque<std::pair<Clock::time_point, std::uint64_t>> pending;
    std::size_t open = 0;  // assigned ids not yet terminal
    bool dead = false;
  };

  const auto start = Clock::now();
  std::vector<std::unique_ptr<Conn>> conns;
  for (unsigned c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Conn>());
    conns.back()->retry_rng = common::Rng(jitter_seed ^ (0x9E3779B97F4A7C15ull * (c + 1)));
    if (const auto status = conns.back()->client.connect(socket_path); !status) {
      std::fprintf(stderr, "connect failed: %s\n", status.message().c_str());
      std::exit(1);
    }
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto& conn = *conns[i % connections];
    const auto due = start + std::chrono::microseconds(
                                 static_cast<std::int64_t>(1e6 * static_cast<double>(i) /
                                                           rate_per_s));
    conn.pending.emplace_back(due, ids[i]);
    ++conn.open;
  }

  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<bool> kill_fired{false};

  std::vector<std::thread> threads;
  for (auto& conn_ptr : conns) {
    threads.emplace_back([&, conn = conn_ptr.get()] {
      // Sender half: pop the earliest due entry, sleep until it is due, send.
      std::thread sender([&, conn] {
        std::unique_lock<std::mutex> lock(conn->mutex);
        for (;;) {
          if (conn->dead || conn->open == 0) return;
          if (conn->pending.empty()) {
            conn->cv.wait(lock);
            continue;
          }
          auto earliest = std::min_element(conn->pending.begin(), conn->pending.end());
          if (Clock::now() < earliest->first) {
            conn->cv.wait_until(lock, earliest->first);
            continue;
          }
          const std::uint64_t id = earliest->second;
          conn->pending.erase(earliest);
          {
            std::lock_guard<std::mutex> tracker_lock(tracker.mutex);
            tracker.state[id] = IdState::kInFlight;
            if (!tracker.sent_once[id]) {
              tracker.sent_once[id] = true;
              tracker.first_send[id] = Clock::now();
            }
          }
          const std::string line = serve::protocol::encode_request(requests[id]);
          lock.unlock();
          const auto status = conn->client.send_line(line);
          lock.lock();
          if (!status) {
            // The daemon is gone (chaos kill): stop sending, leave the
            // remaining ids non-terminal for the next incarnation.
            conn->dead = true;
            inc.send_failed = true;
            return;
          }
        }
      });

      // Reader half: this thread. Runs until every assigned id is terminal
      // or the connection dies under it.
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          if (conn->open == 0 || conn->dead) break;
        }
        auto line = conn->client.read_line();
        if (!line) {
          std::lock_guard<std::mutex> lock(conn->mutex);
          conn->dead = true;
          conn->cv.notify_all();
          break;
        }
        auto reply = serve::protocol::parse_reply(line.value());
        if (!reply) {
          std::fprintf(stderr, "unparseable reply '%s': %s\n", line.value().c_str(),
                       reply.message().c_str());
          std::exit(1);
        }
        const auto& r = reply.value();
        const std::uint64_t id = r.id;
        bool terminal = false;
        switch (r.status) {
          case serve::protocol::ReplyStatus::kOk: {
            std::lock_guard<std::mutex> tracker_lock(tracker.mutex);
            tracker.state[id] = IdState::kOk;
            tracker.entries[id] = serve::protocol::entry_of(r);
            tracker.latency_ms[id] = std::chrono::duration<double, std::milli>(
                                         Clock::now() - tracker.first_send[id])
                                         .count();
            inc.wait_chain.emplace_back(r.dpm_wait_seconds, r.dpm_seconds);
            terminal = true;
            break;
          }
          case serve::protocol::ReplyStatus::kBusy: {
            bool give_up = false;
            {
              // Never hold the tracker lock while taking the conn lock —
              // the sender nests them the other way around.
              std::lock_guard<std::mutex> tracker_lock(tracker.mutex);
              ++tracker.busy_replies;
              give_up = ++tracker.busy_seen[id] > kMaxBusyRetries;
              if (give_up) tracker.state[id] = IdState::kGaveUp;
            }
            if (give_up) {
              terminal = true;
            } else {
              // Honor the server's retry hint, desynchronized: add seeded
              // jitter in [0, hint/2] so concurrent clients spread their
              // re-sends instead of arriving as one synchronized wave.
              const std::uint64_t hint_ms = std::min(r.retry_after_ms, kMaxRetrySleepMs);
              std::lock_guard<std::mutex> lock(conn->mutex);
              const std::uint64_t jitter_ms =
                  conn->retry_rng.next_u64() % (hint_ms / 2 + 1);
              const auto due =
                  Clock::now() + std::chrono::milliseconds(hint_ms + jitter_ms);
              conn->pending.emplace_back(due, id);
              conn->cv.notify_all();
            }
            break;
          }
          case serve::protocol::ReplyStatus::kTimeout: {
            std::lock_guard<std::mutex> tracker_lock(tracker.mutex);
            tracker.state[id] = IdState::kTimeout;
            terminal = true;
            break;
          }
          case serve::protocol::ReplyStatus::kErr: {
            std::lock_guard<std::mutex> tracker_lock(tracker.mutex);
            tracker.state[id] = IdState::kErr;
            terminal = true;
            break;
          }
        }
        if (terminal) {
          std::lock_guard<std::mutex> lock(conn->mutex);
          --conn->open;
          conn->cv.notify_all();
        }
        if (r.status == serve::protocol::ReplyStatus::kOk && kill_after_ok > 0 &&
            ok_count.fetch_add(1) + 1 >= kill_after_ok &&
            !kill_fired.exchange(true)) {
          ::kill(daemon_pid, SIGKILL);
          inc.killed = true;
        }
      }
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->cv.notify_all();
      }
      sender.join();
      conn->client.close();
    });
  }
  for (auto& thread : threads) thread.join();
}

// Ask the daemon to drain over the wire and confirm the "draining" ack; the
// supervisor loop then finishes in-flight work and exits 0.
void send_drain(const std::string& socket_path) {
  if (control_rpc(socket_path, "drain") != "draining") {
    std::fprintf(stderr, "drain op not acknowledged\n");
    std::exit(1);
  }
}

// --- one load run ----------------------------------------------------------

struct RunConfig {
  std::string label;
  std::size_t sessions = 32;
  unsigned connections = 1;
  double rate_per_s = 10.0;
  unsigned workers = 2;
  std::size_t max_sessions = 0;  // daemon admission caps (0 = unlimited)
  std::size_t max_queued = 0;
  std::size_t deadline_every = 0;  // every k-th request carries deadline_ms
  std::uint64_t deadline_ms = 0;
  bool chaos = false;         // SIGKILL mid-stream, cold respawn, resend
  bool use_drain_op = false;  // finish via "drain" op instead of SIGTERM
  bool drain_mid_stream = false;  // drain while busy retries are in flight
  std::optional<std::uint64_t> fault_seed;
  bool full_table_gate = false; // 1-connection runs: full run_serial identity
  // Gates this run must satisfy (beyond identity, which every run must).
  bool expect_busy = false;
  bool expect_timeouts = false;
};

struct RunResult {
  RunConfig config;
  std::uint64_t ok = 0, busy_replies = 0, timeouts = 0, errors = 0, gave_up = 0, shed = 0;
  unsigned kills = 0;
  double wall_ms = 0.0, goodput_per_s = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  std::uint64_t pipeline_runs = 0, max_queue_depth = 0, peak_sessions = 0;
  std::uint64_t injected = 0;  // the final incarnation's fault.<site>= counts
  bool identical = true;  // pure fields + wait chains (+ full table if gated)
  bool passed = true;     // identical and every expected-behaviour gate
};

RunResult execute_run(const RunConfig& config,
                      const std::map<std::string, warpsys::MultiWarpEntry>& references) {
  RunResult result;
  result.config = config;
  bool ok_run = true;

  std::vector<Request> requests;
  for (std::uint64_t id = 0; id < config.sessions; ++id) {
    Request request = make_load_request(id);
    if (config.deadline_every != 0 && id % config.deadline_every == 0 && id != 0) {
      request.deadline_ms = config.deadline_ms;
    }
    requests.push_back(request);
  }

  const std::string socket_path = common::format(
      "/tmp/warpd_load_%d_%s.sock", static_cast<int>(::getpid()), config.label.c_str());
  DaemonArgs daemon_args;
  daemon_args.socket = socket_path;
  daemon_args.fault_seed = config.fault_seed;
  daemon_args.workers = config.workers;
  daemon_args.max_sessions = config.max_sessions;
  daemon_args.max_queued = config.max_queued;

  Tracker tracker(config.sessions);
  const auto wall_start = Clock::now();
  pid_t pid = spawn_daemon(daemon_args);

  std::vector<std::uint64_t> all_ids(config.sessions);
  for (std::uint64_t id = 0; id < config.sessions; ++id) all_ids[id] = id;
  // The final incarnation's stats: after its last reply, or just before a
  // mid-stream drain takes it down.
  StatsLine stats;

  const std::uint64_t jitter_seed = config.fault_seed ? *config.fault_seed : 0xD1CEull;
  if (config.chaos) {
    // Phase A: full stream, SIGKILL after a quarter of the sessions land.
    Incarnation phase_a;
    run_incarnation(socket_path, requests, all_ids, config.connections, config.rate_per_s,
                    tracker, phase_a, std::max<std::uint64_t>(2, config.sessions / 4), pid,
                    jitter_seed + 1);
    // If the whole stream somehow finished before the kill threshold, the
    // daemon is still alive — put it down so reap() cannot block.
    if (!phase_a.killed) ::kill(pid, SIGKILL);
    const ExitInfo killed = reap(pid);
    if (!phase_a.killed || !killed.signaled || killed.signal != SIGKILL) {
      std::printf("  FAIL %s: chaos kill did not land (killed=%d signaled=%d sig=%d)\n",
                  config.label.c_str(), phase_a.killed ? 1 : 0, killed.signaled ? 1 : 0,
                  killed.signal);
      ok_run = false;
    }
    ++result.kills;
    ok_run = verify_wait_chain(phase_a.wait_chain, /*exact=*/false, config.label) && ok_run;

    // Phase B: cold respawn on the same socket; resend every id without a
    // terminal reply. A different fault seed exercises a second transient
    // schedule.
    if (daemon_args.fault_seed) *daemon_args.fault_seed += 1000;
    pid = spawn_daemon(daemon_args);
    std::vector<std::uint64_t> remaining;
    {
      std::lock_guard<std::mutex> lock(tracker.mutex);
      for (std::uint64_t id = 0; id < config.sessions; ++id) {
        if (tracker.state[id] == IdState::kUnsent || tracker.state[id] == IdState::kInFlight) {
          remaining.push_back(id);
        }
      }
    }
    if (remaining.empty()) {
      std::printf("  FAIL %s: chaos kill left nothing to replay\n", config.label.c_str());
      ok_run = false;
    }
    Incarnation phase_b;
    run_incarnation(socket_path, requests, remaining, config.connections, config.rate_per_s,
                    tracker, phase_b, 0, pid, jitter_seed + 2);
    if (phase_b.send_failed) {
      std::printf("  FAIL %s: respawned daemon dropped the connection\n",
                  config.label.c_str());
      ok_run = false;
    }
    ok_run = verify_wait_chain(phase_b.wait_chain, /*exact=*/true, config.label) && ok_run;
  } else if (config.drain_mid_stream) {
    // Regression: a "drain" issued while clients are mid busy-retry storm
    // must not wedge or crash the daemon. It sheds the storm busy, finishes
    // the in-flight sessions, closes every connection and exits 0; sessions
    // shed at drain time stay non-terminal by design.
    Incarnation inc;
    std::thread drainer([&] {
      for (int attempt = 0; attempt < 2000; ++attempt) {
        {
          std::lock_guard<std::mutex> lock(tracker.mutex);
          if (tracker.busy_replies >= 8) break;  // retry pressure established
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      stats = query_stats(socket_path);
      send_drain(socket_path);
    });
    run_incarnation(socket_path, requests, all_ids, config.connections, config.rate_per_s,
                    tracker, inc, 0, pid, jitter_seed);
    drainer.join();
    ok_run = verify_wait_chain(inc.wait_chain, /*exact=*/true, config.label) && ok_run;
  } else {
    Incarnation inc;
    run_incarnation(socket_path, requests, all_ids, config.connections, config.rate_per_s,
                    tracker, inc, 0, pid, jitter_seed);
    if (inc.send_failed || inc.killed) {
      std::printf("  FAIL %s: daemon connection failed without chaos\n", config.label.c_str());
      ok_run = false;
    }
    ok_run = verify_wait_chain(inc.wait_chain, /*exact=*/true, config.label) && ok_run;
  }

  // Terminal accounting + pure-field identity, all under one lock take.
  {
    std::lock_guard<std::mutex> lock(tracker.mutex);
    result.busy_replies = tracker.busy_replies;
    for (std::uint64_t id = 0; id < config.sessions; ++id) {
      switch (tracker.state[id]) {
        case IdState::kOk: {
          ++result.ok;
          const auto& reference = references.at(key_of(requests[id]));
          if (!pure_fields_match(tracker.entries[id], reference)) {
            std::printf("  FAIL %s: id=%llu deviates from the serial reference\n",
                        config.label.c_str(), static_cast<unsigned long long>(id));
            ok_run = false;
          }
          break;
        }
        case IdState::kTimeout:
          ++result.timeouts;
          break;
        case IdState::kErr:
          ++result.errors;
          break;
        case IdState::kGaveUp:
          ++result.gave_up;
          break;
        case IdState::kUnsent:
        case IdState::kInFlight:
          // A mid-stream drain sheds whatever is still retrying or unsent;
          // everywhere else a non-terminal id is a lost session.
          if (config.drain_mid_stream) {
            ++result.shed;
          } else {
            std::printf("  FAIL %s: id=%llu never reached a terminal reply\n",
                        config.label.c_str(), static_cast<unsigned long long>(id));
            ok_run = false;
          }
          break;
      }
    }
  }
  if (result.errors != 0 || result.gave_up != 0) {
    std::printf("  FAIL %s: %llu err replies, %llu gave up after %d busy retries\n",
                config.label.c_str(), static_cast<unsigned long long>(result.errors),
                static_cast<unsigned long long>(result.gave_up), kMaxBusyRetries);
    ok_run = false;
  }

  // Single-connection streams admit in send order, so the whole table —
  // waits included — must equal run_serial over the same request list.
  if (config.full_table_gate) {
    serve::WarpdOptions serial_options;
    serial_options.base = experiments::default_options();
    const auto serial = serve::run_serial(requests, serial_options);
    std::lock_guard<std::mutex> lock(tracker.mutex);
    for (std::uint64_t id = 0; id < config.sessions; ++id) {
      if (!serial[id].error.empty() || !(tracker.entries[id] == serial[id].entry)) {
        std::printf("  FAIL %s: full-table mismatch at id=%llu\n", config.label.c_str(),
                    static_cast<unsigned long long>(id));
        ok_run = false;
        break;
      }
    }
  }
  result.identical = ok_run;

  // Stats from the (final, graceful) incarnation, then shut it down. A
  // mid-stream drain already took the daemon down; its stats were taken
  // just before the drain.
  if (!config.drain_mid_stream) stats = query_stats(socket_path);
  result.pipeline_runs = stats.get("pipeline_runs");
  result.max_queue_depth = stats.get("max_queue_depth");
  result.peak_sessions = stats.get("peak_sessions");
  for (const auto& [key, count] : stats.values) {
    if (key.rfind("fault.", 0) == 0) result.injected += count;
  }
  if (!config.drain_mid_stream) {
    if (config.use_drain_op) {
      send_drain(socket_path);
    } else {
      ::kill(pid, SIGTERM);
    }
  }
  const ExitInfo exit_info = reap(pid);
  if (!exit_info.exited || exit_info.exit_code != 0) {
    std::printf("  FAIL %s: graceful shutdown did not exit 0 (exited=%d code=%d sig=%d)\n",
                config.label.c_str(), exit_info.exited ? 1 : 0, exit_info.exit_code,
                exit_info.signal);
    ok_run = false;
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - wall_start).count();
  result.goodput_per_s =
      result.wall_ms > 0.0 ? 1e3 * static_cast<double>(result.ok) / result.wall_ms : 0.0;
  {
    std::lock_guard<std::mutex> lock(tracker.mutex);
    std::vector<double> latencies;
    for (std::uint64_t id = 0; id < config.sessions; ++id) {
      if (tracker.state[id] == IdState::kOk) latencies.push_back(tracker.latency_ms[id]);
    }
    result.p50_ms = percentile(latencies, 50.0);
    result.p95_ms = percentile(latencies, 95.0);
    result.p99_ms = percentile(latencies, 99.0);
  }

  // Expected-behaviour gates: the run must actually have exercised the
  // machinery it exists to exercise.
  if (config.expect_busy && result.busy_replies == 0) {
    std::printf("  FAIL %s: overload run saw no busy replies\n", config.label.c_str());
    ok_run = false;
  }
  if (config.drain_mid_stream && result.shed == 0) {
    std::printf("  FAIL %s: drain landed after the storm resolved — nothing was shed\n",
                config.label.c_str());
    ok_run = false;
  }
  if (config.expect_timeouts && result.timeouts == 0) {
    std::printf("  FAIL %s: deadline run saw no timeout replies\n", config.label.c_str());
    ok_run = false;
  }
  if (config.fault_seed && result.injected == 0) {
    std::printf("  FAIL %s: the fault schedule injected nothing\n", config.label.c_str());
    ok_run = false;
  }
  if (config.max_queued != 0 && result.max_queue_depth > config.max_queued) {
    std::printf("  FAIL %s: max_queue_depth %llu exceeds the cap %zu\n", config.label.c_str(),
                static_cast<unsigned long long>(result.max_queue_depth), config.max_queued);
    ok_run = false;
  }
  // The counters must agree with the ok replies. Every ok session ran its
  // own pipeline; stats that saw the whole stream (one incarnation, taken
  // after its last reply) count each exactly, and a snapshot before a drain
  // or a kill sees a subset. A session that was admitted at all sets the
  // peaks.
  const bool whole_stream = !config.drain_mid_stream && !config.chaos;
  if ((whole_stream ? result.pipeline_runs != result.ok : result.pipeline_runs > result.ok) ||
      (result.ok != 0 && result.peak_sessions == 0) ||
      result.max_queue_depth > result.peak_sessions) {
    std::printf("  FAIL %s: counters contradict ok=%llu (pipeline_runs=%llu "
                "peak_sessions=%llu max_queue_depth=%llu)\n",
                config.label.c_str(), static_cast<unsigned long long>(result.ok),
                static_cast<unsigned long long>(result.pipeline_runs),
                static_cast<unsigned long long>(result.peak_sessions),
                static_cast<unsigned long long>(result.max_queue_depth));
    ok_run = false;
  }

  result.passed = ok_run;
  std::printf(
      "  %-16s conns=%u rate=%4.0f/s sessions=%3zu ok=%3llu busy=%4llu timeout=%3llu "
      "runs=%3llu depth=%2llu kills=%u faults=%llu wall=%6.0fms p50=%6.1fms "
      "%s\n",
      config.label.c_str(), config.connections, config.rate_per_s, config.sessions,
      static_cast<unsigned long long>(result.ok),
      static_cast<unsigned long long>(result.busy_replies),
      static_cast<unsigned long long>(result.timeouts),
      static_cast<unsigned long long>(result.pipeline_runs),
      static_cast<unsigned long long>(result.max_queue_depth), result.kills,
      static_cast<unsigned long long>(result.injected), result.wall_ms,
      result.p50_ms, result.passed ? "PASS" : "FAIL");
  return result;
}

// --- run sets and JSON ------------------------------------------------------

// The 3-kernel sessions cost single-digit host milliseconds, so overload
// means kHz-range open-loop arrivals — effectively bursts — not a trickle.

RunConfig baseline_config(std::size_t sessions) {
  RunConfig config;
  config.label = "baseline";
  config.sessions = std::min<std::size_t>(sessions, 24);
  config.connections = 1;
  config.rate_per_s = 200.0;  // mild queueing; the full table must still match
  config.full_table_gate = true;
  return config;
}

RunConfig overload_config(std::size_t sessions) {
  RunConfig config;
  config.label = "overload";
  config.sessions = sessions;
  config.connections = 3;
  config.rate_per_s = 5000.0;  // a burst: arrivals far beyond the service rate
  config.max_sessions = 6;
  config.max_queued = 4;
  config.expect_busy = true;
  return config;
}

// Drain-under-retry-pressure regression: overload caps force a busy-retry
// storm, then "drain" lands while retries are still in flight. The daemon
// must shed the storm, finish its in-flight sessions and exit 0 — shed
// sessions are the client's problem, a wedged or crashed daemon is ours.
RunConfig drainstorm_config(std::size_t sessions) {
  RunConfig config;
  config.label = "drainstorm";
  config.sessions = std::min<std::size_t>(sessions, 32);
  config.connections = 3;
  config.rate_per_s = 5000.0;
  config.max_sessions = 6;
  config.max_queued = 4;
  config.drain_mid_stream = true;
  config.expect_busy = true;
  return config;
}

RunConfig deadline_config(std::size_t sessions) {
  RunConfig config;
  config.label = "deadline";
  config.sessions = std::min<std::size_t>(sessions, 32);
  config.connections = 2;
  config.rate_per_s = 5000.0;
  config.workers = 1;  // one worker: the queue builds, deadlines bite
  config.deadline_every = 2;
  config.deadline_ms = 1;  // far below the queue wait a burst creates
  config.expect_timeouts = true;
  return config;
}

RunConfig chaos_config(std::size_t sessions, std::uint64_t fault_seed) {
  RunConfig config;
  config.label = "chaos";
  config.sessions = sessions;
  config.connections = 2;
  config.rate_per_s = 2000.0;
  config.max_sessions = 8;
  config.max_queued = 6;
  config.chaos = true;
  config.use_drain_op = true;
  config.fault_seed = fault_seed;
  config.expect_busy = true;
  return config;
}

void emit_json(const std::vector<RunResult>& runs) {
  FILE* json = std::fopen("BENCH_warpd_load.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_warpd_load.json\n");
    std::exit(1);
  }
  std::fprintf(json, "{\n  \"bench\": \"warpd_load\",\n");
  std::fprintf(json, "  \"host_threads\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(json, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::fprintf(
        json,
        "    {\"label\": \"%s\", \"connections\": %u, \"rate_per_s\": %.1f, "
        "\"sessions\": %zu, \"ok\": %llu, \"busy\": %llu, \"timeouts\": %llu, "
        "\"shed\": %llu, "
        "\"pipeline_runs\": %llu, \"max_queue_depth\": %llu, "
        "\"peak_sessions\": %llu, \"kills\": %u, "
        "\"wall_ms\": %.2f, \"goodput_per_s\": %.2f, \"p50_ms\": %.3f, "
        "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"bit_identical\": %s}%s\n",
        r.config.label.c_str(), r.config.connections, r.config.rate_per_s,
        r.config.sessions, static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.busy_replies),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.pipeline_runs),
        static_cast<unsigned long long>(r.max_queue_depth),
        static_cast<unsigned long long>(r.peak_sessions), r.kills, r.wall_ms,
        r.goodput_per_s, r.p50_ms, r.p95_ms, r.p99_ms, r.identical ? "true" : "false",
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_warpd_load.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool daemon_mode = false;
  bool check = false;
  bool chaos = false;
  std::size_t sessions = 48;
  std::uint64_t fault_seed = 1;
  bool have_fault_seed = false;
  DaemonArgs daemon_args;
  for (int i = 1; i < argc; ++i) {
    const auto uint_arg = [&](const char* flag) -> std::uint64_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", flag);
        std::exit(1);
      }
      char* end = nullptr;
      const unsigned long long value = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "%s expects an unsigned integer, got '%s'\n", flag, argv[i]);
        std::exit(1);
      }
      return value;
    };
    if (std::strcmp(argv[i], "--daemon") == 0) {
      daemon_mode = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = static_cast<std::size_t>(uint_arg("--sessions"));
      if (sessions < 8) sessions = 8;
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      fault_seed = uint_arg("--fault-seed");
      have_fault_seed = true;
    } else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      daemon_args.socket = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      daemon_args.workers = static_cast<unsigned>(uint_arg("--workers"));
    } else if (std::strcmp(argv[i], "--max-sessions") == 0) {
      daemon_args.max_sessions = static_cast<std::size_t>(uint_arg("--max-sessions"));
    } else if (std::strcmp(argv[i], "--max-queued") == 0) {
      daemon_args.max_queued = static_cast<std::size_t>(uint_arg("--max-queued"));
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (supported: --check, --chaos, --sessions N, "
                   "--fault-seed S)\n",
                   argv[i]);
      return 1;
    }
  }
  if (daemon_mode) {
    // --fault-seed on the daemon command line arms the transient injector.
    if (have_fault_seed) daemon_args.fault_seed = fault_seed;
    if (daemon_args.socket.empty()) {
      std::fprintf(stderr, "--daemon requires --socket PATH\n");
      return 1;
    }
    return run_daemon(daemon_args);
  }

  if (check) sessions = std::min<std::size_t>(sessions, 24);
  std::printf("warpd_load%s: 3-kernel mix, open-loop, %zu sessions per run\n",
              check ? " --check" : "", sessions);

  std::vector<RunConfig> configs;
  if (check) {
    configs.push_back(overload_config(sessions));
    configs.push_back(drainstorm_config(sessions));
    configs.push_back(deadline_config(std::min<std::size_t>(sessions, 16)));
    if (chaos) configs.push_back(chaos_config(sessions, fault_seed));
  } else {
    configs.push_back(baseline_config(sessions));
    configs.push_back(overload_config(sessions));
    configs.push_back(drainstorm_config(sessions));
    configs.push_back(deadline_config(sessions));
    configs.push_back(chaos_config(sessions, fault_seed));
  }

  // One probe per position of the key cycle (period 6 with the adjacent
  // duplicates) — make_references dedups to the 3 distinct kernels.
  std::vector<Request> probe_requests;
  for (std::uint64_t id = 0; id < 6; ++id) probe_requests.push_back(make_load_request(id));
  const auto references = make_references(probe_requests);

  bool ok = true;
  std::vector<RunResult> results;
  for (const auto& config : configs) {
    results.push_back(execute_run(config, references));
    ok = results.back().passed && ok;
  }

  if (!check) emit_json(results);
  std::printf("warpd_load: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
