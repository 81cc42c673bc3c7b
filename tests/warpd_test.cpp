// End-to-end determinism battery for the warpd serving engine.
//
// The contract under test: the threaded host scheduler, the socket
// transport, the artifact cache and any transient fault schedule are all
// invisible in the result tables. Identical request streams must produce
// bit-identical MultiWarpEntry rows (including the virtual-time
// dpm_wait_seconds) across worker counts, interleaved client schedules and
// server restarts — always equal to the serial reference engine.
// Persistent faults must degrade cleanly: stage faults land in the
// software-fallback path, socket faults drop connections, and the server
// always stops without hanging. This binary runs under TSan and ASan/UBSan
// in CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/warpd.hpp"
#include "workloads/workload.hpp"

namespace warp {
namespace {

using serve::SessionOutcome;
using serve::protocol::Request;
using warpsys::MultiWarpEntry;

std::string socket_path(const std::string& tag) {
  return common::format("/tmp/warpd_%s_%d.sock", tag.c_str(), static_cast<int>(::getpid()));
}

// A small cycled mix over the extended workload set, with a periodic
// max_candidates override so the stream has both repeats and distinct
// kernel content hashes. `explicit_seq` tags each request with seq == id.
std::vector<Request> make_requests(std::size_t n, bool explicit_seq) {
  const auto& workloads = workloads::extended_workloads();
  std::vector<Request> requests;
  for (std::size_t i = 0; i < n; ++i) {
    Request request;
    request.id = i;
    if (explicit_seq) request.seq = i;
    request.workload = workloads[i % workloads.size()].name;
    if (i % 3 == 1) request.overrides.max_candidates = 4;
    requests.push_back(request);
  }
  return requests;
}

std::vector<MultiWarpEntry> entries_of(const std::vector<SessionOutcome>& outcomes) {
  std::vector<MultiWarpEntry> entries;
  for (const auto& out : outcomes) {
    EXPECT_TRUE(out.error.empty()) << "id=" << out.id << ": " << out.error;
    entries.push_back(out.entry);
  }
  return entries;
}

// Submit every request to an in-process engine and wait for completion;
// outcomes indexed like `requests`.
std::vector<SessionOutcome> run_engine(const std::vector<Request>& requests,
                                       const serve::WarpdOptions& options) {
  serve::Warpd engine(options);
  std::vector<SessionOutcome> outcomes(requests.size());
  std::mutex m;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    engine.submit(requests[i], [&outcomes, &m, i](const SessionOutcome& out) {
      std::lock_guard<std::mutex> lock(m);
      outcomes[i] = out;
    });
  }
  engine.drain();
  engine.stop();
  return outcomes;
}

// One client streaming `requests` over a socket server; entries returned by
// reply id (ids must be 0..n-1).
std::vector<MultiWarpEntry> socket_entries(const std::vector<Request>& requests,
                                           const serve::WarpdOptions& engine,
                                           common::FaultInjector* serve_fault,
                                           const std::string& tag) {
  serve::SocketServerOptions options;
  options.path = socket_path(tag);
  options.engine = engine;
  options.fault = serve_fault;
  serve::SocketServer server(options);
  EXPECT_TRUE(server.start());
  serve::Client client;
  EXPECT_TRUE(client.connect(options.path));
  for (const auto& request : requests) {
    EXPECT_TRUE(client.send_line(serve::protocol::encode_request(request)));
  }
  client.shutdown_send();
  std::vector<MultiWarpEntry> by_id(requests.size());
  for (std::size_t got = 0; got < requests.size(); ++got) {
    auto line = client.read_line();
    EXPECT_TRUE(line) << line.message();
    if (!line) break;
    auto reply = serve::protocol::parse_reply(line.value());
    EXPECT_TRUE(reply) << line.value();
    if (!reply) break;
    EXPECT_TRUE(reply.value().ok) << line.value();
    if (reply.value().id >= by_id.size()) {
      ADD_FAILURE() << "reply id out of range: " << line.value();
      break;
    }
    by_id[reply.value().id] = serve::protocol::entry_of(reply.value());
  }
  server.stop();
  return by_id;
}

serve::WarpdOptions engine_options() {
  serve::WarpdOptions options;
  options.base = experiments::default_options();
  return options;
}

// Identical request streams across worker counts produce bit-identical
// result tables and virtual-time metrics (dpm_wait_seconds is part of the
// entry), always equal to the serial reference. With one worker, that
// worker takes every DPM turn itself.
TEST(Warpd, BitIdenticalAcrossWorkerCounts) {
  const auto requests = make_requests(10, /*explicit_seq=*/false);
  const auto reference = entries_of(serve::run_serial(requests, engine_options()));
  for (const unsigned workers : {1u, 2u, 5u}) {
    serve::WarpdOptions options = engine_options();
    options.workers = workers;
    partition::ArtifactCache cache;
    options.cache = &cache;
    const auto outcomes = run_engine(requests, options);
    EXPECT_TRUE(entries_of(outcomes) == reference) << "workers=" << workers;
    // DPM turns run one at a time, so a repeat kernel's turn follows its
    // first occurrence's and the shared cache must have been hit (the mix
    // repeats workloads).
    std::uint64_t hits = 0;
    for (const auto& [stage, s] : cache.stats()) hits += s.hits;
    EXPECT_GT(hits, 0u) << "workers=" << workers;
  }
}

// Two clients interleave halves of one logical stream with explicit seq
// tags: whatever the socket interleaving, the table equals the serial
// reference of the seq-ordered stream.
TEST(Warpd, InterleavedClientsWithExplicitSeq) {
  const auto requests = make_requests(10, /*explicit_seq=*/true);
  const auto reference = entries_of(serve::run_serial(requests, engine_options()));

  serve::SocketServerOptions options;
  options.path = socket_path("interleaved");
  options.engine = engine_options();
  serve::SocketServer server(options);
  ASSERT_TRUE(server.start());

  std::vector<MultiWarpEntry> by_id(requests.size());
  std::mutex m;
  auto client_main = [&](std::size_t parity) {
    serve::Client client;
    ASSERT_TRUE(client.connect(options.path));
    std::size_t mine = 0;
    for (std::size_t i = parity; i < requests.size(); i += 2) {
      ASSERT_TRUE(client.send_line(serve::protocol::encode_request(requests[i])));
      ++mine;
    }
    client.shutdown_send();
    for (std::size_t got = 0; got < mine; ++got) {
      auto line = client.read_line();
      ASSERT_TRUE(line) << line.message();
      auto reply = serve::protocol::parse_reply(line.value());
      ASSERT_TRUE(reply) << line.value();
      ASSERT_TRUE(reply.value().ok) << line.value();
      ASSERT_LT(reply.value().id, by_id.size());
      std::lock_guard<std::mutex> lock(m);
      by_id[reply.value().id] = serve::protocol::entry_of(reply.value());
    }
  };
  std::thread evens(client_main, 0);
  std::thread odds(client_main, 1);
  evens.join();
  odds.join();
  server.stop();
  EXPECT_TRUE(by_id == reference);
}

// Ten transient fault seeds, one injector wired through the engine's
// pipeline sites and the serve.accept/read/write socket sites: every
// session completes and every table is bit-identical.
TEST(Warpd, TransientFaultSweepIsBitIdentical) {
  const auto requests = make_requests(4, /*explicit_seq=*/true);
  const auto reference = entries_of(serve::run_serial(requests, engine_options()));
  std::uint64_t injected_total = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    common::FaultInjector fault(common::FaultConfig::transient_sweep(seed));
    partition::ArtifactCache cache;
    serve::WarpdOptions options = engine_options();
    options.cache = &cache;
    options.fault = &fault;
    const auto got = socket_entries(requests, options, &fault,
                                    common::format("fault_%llu",
                                                   static_cast<unsigned long long>(seed)));
    EXPECT_TRUE(got == reference) << "seed=" << seed;
    injected_total += fault.stats().injected;
  }
  // The sweep must actually exercise the fault paths.
  EXPECT_GT(injected_total, 0u);
}

// A persistent stage fault (every CAD stage fails, no transient cap) is the
// paper's transparency contract: sessions still complete, in software.
TEST(Warpd, PersistentStageFaultFallsBackToSoftware) {
  common::FaultConfig config;
  config.stage_fail_p = 1.0;
  config.max_consecutive = 0;
  common::FaultInjector fault(config);
  serve::WarpdOptions options = engine_options();
  options.fault = &fault;
  const auto outcomes = run_engine(make_requests(4, /*explicit_seq=*/false), options);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& out : outcomes) {
    EXPECT_TRUE(out.error.empty()) << out.error;
    EXPECT_FALSE(out.entry.warped);
    EXPECT_EQ(out.entry.speedup, 1.0);
    EXPECT_EQ(out.entry.warped_seconds, out.entry.sw_seconds);
  }
  EXPECT_GT(fault.stats().injected, 0u);
}

// A client that vanishes before its replies: the write budget is exhausted
// (a real EPIPE, same path as an injected serve.write fault), the
// connection is muted, the sessions still complete server-side and the
// server stops cleanly.
TEST(Warpd, DeadClientMutesConnectionNotServer) {
  serve::SocketServerOptions options;
  options.path = socket_path("deadclient");
  options.engine = engine_options();
  options.engine.workers = 2;
  serve::SocketServer server(options);
  ASSERT_TRUE(server.start());
  {
    serve::Client client;
    ASSERT_TRUE(client.connect(options.path));
    ASSERT_TRUE(client.send_line("warp id=0 workload=brev"));
    ASSERT_TRUE(client.send_line("warp id=1 workload=g3fax"));
    client.close();  // gone before any reply can be written
  }
  // Admission happens on the server's reader thread; wait for it before
  // draining (drain on an empty engine returns immediately).
  for (int i = 0; i < 500 && server.engine().stats().admitted < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.engine().stats().admitted, 2u);
  server.engine().drain();
  server.stop();
  const auto engine_stats = server.engine().stats();
  EXPECT_EQ(engine_stats.completed, 2u);
  EXPECT_GE(server.stats().write_failures, 1u);
}

// A persistent serve-site fault schedule (every accept/read/write faults,
// forever): no session is ever admitted, but the server neither crashes
// nor hangs — stop() still returns and the client just sees a dead peer.
TEST(Warpd, PersistentServeFaultFailsCleanly) {
  common::FaultConfig config;
  config.io_error_p = 1.0;
  config.max_consecutive = 0;
  common::FaultInjector fault(config);
  serve::SocketServerOptions options;
  options.path = socket_path("persistfault");
  options.engine = engine_options();
  options.fault = &fault;
  serve::SocketServer server(options);
  ASSERT_TRUE(server.start());

  serve::Client client;
  ASSERT_TRUE(client.connect(options.path));  // parked in the listen backlog
  ASSERT_TRUE(client.send_line("warp id=0 workload=brev"));
  // Wait until the accept loop has demonstrably faulted at least once.
  auto accept_faults = [&] { return fault.stats().injected_by_site["serve.accept"]; };
  for (int i = 0; i < 500 && accept_faults() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(accept_faults(), 0u);
  server.stop();
  EXPECT_EQ(server.stats().connections, 0u);
  EXPECT_EQ(server.engine().stats().admitted, 0u);
  EXPECT_FALSE(client.read_line());  // the listener is gone; EOF or reset
}

// Seq-mode discipline: a stream locks into explicit or implicit mode with
// its first admitted request; mixing and duplicates are rejected, and the
// serial reference rejects identically.
TEST(Warpd, SeqModeMixingRejected) {
  Request implicit;
  implicit.id = 0;
  implicit.workload = "brev";
  Request tagged = implicit;
  tagged.id = 1;
  tagged.seq = 5;

  {
    const auto outcomes = run_engine({implicit, tagged}, engine_options());
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_EQ(outcomes[1].error, "seq on a stream that started without seq");
    const auto serial = serve::run_serial({implicit, tagged}, engine_options());
    EXPECT_EQ(serial[1].error, outcomes[1].error);
    EXPECT_TRUE(outcomes[0].entry == serial[0].entry);
  }
  {
    Request first = tagged;
    first.seq = 0;
    const auto outcomes = run_engine({first, implicit}, engine_options());
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_EQ(outcomes[1].error, "missing seq on a stream that started with seq");
  }
  {
    Request a = tagged;
    a.seq = 0;
    Request b = tagged;
    b.id = 2;
    b.seq = 0;
    const auto outcomes = run_engine({a, b}, engine_options());
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_EQ(outcomes[1].error, "duplicate seq");
  }
  {
    Request bad;
    bad.id = 9;
    bad.workload = "not_a_workload";
    const auto outcomes = run_engine({bad}, engine_options());
    EXPECT_EQ(outcomes[0].error, "unknown workload: not_a_workload");
  }
}

// An explicit-seq stream whose seq 2 never arrives: seqs 3 and 4 take their
// DPM turns, but the gap holds back their waits and callbacks. stop()
// collapses the gap and delivers them with the waits run_serial assigns
// over the same four requests.
TEST(Warpd, StopCollapsesANeverFilledSeqGap) {
  std::vector<Request> requests;
  for (const Request& request : make_requests(5, /*explicit_seq=*/true)) {
    if (*request.seq != 2) requests.push_back(request);
  }
  serve::WarpdOptions options = engine_options();
  options.workers = 2;
  serve::Warpd engine(options);
  std::mutex m;
  std::map<std::uint64_t, SessionOutcome> fired;  // by seq
  const auto fired_seqs = [&] {
    std::lock_guard<std::mutex> lock(m);
    std::vector<std::uint64_t> seqs;
    for (const auto& [seq, outcome] : fired) seqs.push_back(seq);
    return seqs;
  };
  for (const Request& request : requests) {
    engine.submit(request, [&](const SessionOutcome& out) {
      std::lock_guard<std::mutex> lock(m);
      fired[out.seq] = out;
    });
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((engine.stats().dpm_jobs < 4 || fired_seqs().size() < 2) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(engine.stats().dpm_jobs, 4u);
  // Give a session sequenced across the gap time to finish its warped run
  // and fire; a correct engine fires nothing more before stop().
  for (int i = 0; i < 100 && fired_seqs().size() == 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired_seqs(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(engine.stats().completed, 2u);

  engine.stop();
  ASSERT_EQ(fired_seqs(), (std::vector<std::uint64_t>{0, 1, 3, 4}));
  const auto reference = serve::run_serial(requests, engine_options());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SessionOutcome& out = fired.at(*requests[i].seq);
    EXPECT_TRUE(out.error.empty()) << "seq " << out.seq << ": " << out.error;
    EXPECT_TRUE(out.entry == reference[i].entry) << "seq " << out.seq;
  }
}

// A burst of identical requests at 4 workers: every session runs its own
// pipeline, and the result table, waits included, is bit-identical to the
// serial reference. The burst's sessions reach the DPM together, so only
// turns taken one at a time make every repeat a cache hit: each stage
// computes each of its keys once, as in the serial run.
TEST(Warpd, IdenticalBurstMatchesSerial) {
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 6; ++i) {
    Request r;
    r.id = i;
    r.workload = "brev";
    requests.push_back(r);
  }
  Request distinct;
  distinct.id = 6;
  distinct.workload = "g3fax";
  requests.push_back(distinct);

  serve::WarpdOptions serial_options = engine_options();
  partition::ArtifactCache serial_cache;
  serial_options.cache = &serial_cache;
  const auto reference = entries_of(serve::run_serial(requests, serial_options));

  serve::WarpdOptions options = engine_options();
  options.workers = 4;
  partition::ArtifactCache cache;
  options.cache = &cache;
  serve::Warpd engine(options);
  std::vector<SessionOutcome> outcomes(requests.size());
  std::mutex m;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    engine.submit(requests[i], [&outcomes, &m, i](const SessionOutcome& out) {
      std::lock_guard<std::mutex> lock(m);
      outcomes[i] = out;
    });
  }
  engine.drain();
  const auto stats = engine.stats();
  engine.stop();

  EXPECT_TRUE(entries_of(outcomes) == reference);
  EXPECT_EQ(stats.completed, requests.size());
  EXPECT_EQ(stats.pipeline_runs, stats.completed);
  const auto serial_stages = serial_cache.stats();
  for (const auto& [stage, s] : cache.stats()) {
    EXPECT_EQ(s.misses, serial_stages.at(stage).misses) << stage;
  }
}

// Deadlines bound queueing, not service: with one worker pinned on a long
// session, deadline_ms=1 arrivals expire in the queue, resolve as kTimeout
// without ever running simulated work, and the accepted subsequence stays
// bit-identical to the serial reference over exactly that subsequence.
TEST(Warpd, DeadlineTimeoutsCancelQueuedSessionsOnly) {
  std::vector<Request> requests = make_requests(2, /*explicit_seq=*/false);
  const std::size_t first_deadline = requests.size();
  for (std::size_t i = 0; i < 6; ++i) {
    Request r;
    r.id = first_deadline + i;
    r.workload = "brev";
    r.deadline_ms = 1;
    requests.push_back(r);
  }
  Request tail;
  tail.id = requests.size();
  tail.workload = "g3fax";
  requests.push_back(tail);

  serve::WarpdOptions options = engine_options();
  options.workers = 1;  // everything behind session 0 queues
  serve::Warpd engine(options);
  std::vector<SessionOutcome> outcomes(requests.size());
  std::mutex m;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    engine.submit(requests[i], [&outcomes, &m, i](const SessionOutcome& out) {
      std::lock_guard<std::mutex> lock(m);
      outcomes[i] = out;
    });
  }
  engine.drain();
  const auto stats = engine.stats();
  engine.stop();

  std::vector<Request> accepted_requests;
  std::vector<SessionOutcome> accepted;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (outcomes[i].status == serve::protocol::ReplyStatus::kTimeout) {
      EXPECT_TRUE(requests[i].deadline_ms.has_value()) << "id=" << outcomes[i].id;
      EXPECT_EQ(outcomes[i].error, "deadline_ms=1 elapsed before the session started");
      continue;
    }
    EXPECT_EQ(outcomes[i].status, serve::protocol::ReplyStatus::kOk);
    accepted_requests.push_back(requests[i]);
    accepted.push_back(outcomes[i]);
  }
  // The two head sessions hold the single worker for hundreds of host ms,
  // so every deadline_ms=1 arrival must expire while queued.
  EXPECT_EQ(stats.timeouts, 6u);
  EXPECT_EQ(stats.completed, requests.size());  // timeouts are finalized too
  ASSERT_EQ(accepted.size(), 3u);
  // Cancelled sessions never touch the virtual clock: the accepted
  // subsequence's table equals the serial reference over just it.
  const auto reference = entries_of(serve::run_serial(accepted_requests, engine_options()));
  EXPECT_TRUE(entries_of(accepted) == reference);
}

// A drained engine sheds busy even after stop(): a client's busy retry can
// reach it between stop() and its connection closing, and must be shed
// like the rest of the drain's storm, not answered with an error. Without
// a drain, a stopped engine still refuses new work with an error.
TEST(Warpd, DrainedEngineShedsBusyAfterStop) {
  const Request request = make_requests(1, /*explicit_seq=*/false)[0];
  for (const bool drained : {true, false}) {
    serve::Warpd engine(engine_options());
    if (drained) {
      engine.begin_drain();
      engine.drain();
    }
    engine.stop();
    SessionOutcome outcome;
    engine.submit(request, [&outcome](const SessionOutcome& out) { outcome = out; });
    if (drained) {
      EXPECT_EQ(outcome.status, serve::protocol::ReplyStatus::kBusy) << outcome.error;
      EXPECT_GT(outcome.retry_after_ms, 0u);
    } else {
      EXPECT_EQ(outcome.status, serve::protocol::ReplyStatus::kErr);
      EXPECT_EQ(outcome.error, "server is stopping");
    }
  }
}

// Graceful drain, then a supervised restart: the second incarnation starts
// with a cold cache and answers the same stream bit-identically.
TEST(Warpd, GracefulDrainThenColdRestart) {
  const auto requests = make_requests(4, /*explicit_seq=*/false);
  std::vector<std::vector<MultiWarpEntry>> tables;
  for (const char* phase : {"first", "second"}) {
    partition::ArtifactCache cache;
    serve::SocketServerOptions options;
    options.path = socket_path(std::string("drain_") + phase);
    options.engine = engine_options();
    options.engine.cache = &cache;
    serve::SocketServer server(options);
    ASSERT_TRUE(server.start());

    serve::Client client;
    ASSERT_TRUE(client.connect(options.path));
    for (const auto& request : requests) {
      ASSERT_TRUE(client.send_line(serve::protocol::encode_request(request)));
    }
    std::vector<MultiWarpEntry> by_id(requests.size());
    for (std::size_t got = 0; got < requests.size(); ++got) {
      auto line = client.read_line();
      ASSERT_TRUE(line) << line.message();
      auto reply = serve::protocol::parse_reply(line.value());
      ASSERT_TRUE(reply) << line.value();
      ASSERT_TRUE(reply.value().ok) << line.value();
      ASSERT_LT(reply.value().id, by_id.size());
      by_id[reply.value().id] = serve::protocol::entry_of(reply.value());
    }
    tables.push_back(std::move(by_id));

    server.drain();  // graceful: waits out in-flight work, then stops
    EXPECT_TRUE(server.drain_requested());
    EXPECT_TRUE(server.engine().stats().draining);
    EXPECT_EQ(server.engine().stats().completed, requests.size());
  }
  EXPECT_TRUE(tables[0] == tables[1]);
}

}  // namespace
}  // namespace warp
