// warpd: a multi-session warp serving engine on the shared DPM.
//
// One admitted request = one warp session: a fresh WarpSystem is built for
// the named workload (with the request's config overrides), pushed through
// the profile -> DPM -> warped phases of warp_system.hpp, and reported as a
// MultiWarpEntry — exactly the Figure-4 methodology, but request-driven and
// long-running instead of batch. It is also the concurrent engine behind
// run_multiprocessor (multiprocessor.hpp), which submits caller-owned
// systems through submit_system().
//
// Host architecture (all host-side; none of it changes simulated numbers):
//
//   workers    claim admitted sessions in admission order; each builds the
//              system, runs the profiled software run, files the DPM job
//              and takes its own DPM turn, then runs the warped re-run. A
//              turn starts when no DPM job is running and the worker's job
//              is the lowest (seq, admission index) filed — the shared DPM
//              is one embedded processor. A repeat kernel's turn
//              therefore resolves from the shared cache;
//   sequencing the *virtual* DPM accounting is one routine, run by
//              whichever thread marks a session dpm_done (its worker after
//              the DPM turn or a failed build, or the thread that cancels
//              it): it walks sessions in seq order through a
//              DpmVirtualClock (round robin), assigning each session's
//              dpm_wait_seconds with the arithmetic of
//              warpsys::assign_dpm_waits, and finalizes the sessions whose
//              runs are done. stop() runs it once more, after the workers
//              exit, to collapse seq gaps that never filled;
//   deadliner  one thread cancels queued-but-unstarted sessions whose
//              deadline_ms elapsed, resolving them with a kTimeout outcome.
//
// An engine runs workers + 1 threads. Callbacks run with the engine's lock
// dropped, on a worker, on the deadliner or on the thread that calls stop().
//
// Determinism contract: the virtual DPM stays a single-server queue served
// in seq order, whatever the worker count or the host order of DPM jobs —
// no result field depends on either. Result tables are therefore
// bit-identical across worker counts, repeats, cache states and the serial
// reference engine (run_serial), which tests/warpd_test.cpp gates.
//
// Overload semantics (all host-side, none change accepted results):
//
//   admission   AdmissionController bounds sessions and queued sessions.
//               A request over any cap is shed *before* it takes a seq slot
//               or locks the seq mode: the outcome is kBusy with a
//               deterministic retry_after_ms hint that grows with queue
//               depth. A shed request has no side effects beyond counters —
//               the accepted subsequence's table is bit-identical to
//               run_serial over that same subsequence.
//   deadlines   a request's deadline_ms bounds *queueing*, not service:
//               once a worker starts a session it always finishes. Expired
//               queued sessions resolve kTimeout, are sequenced without
//               charging the virtual clock (exactly like a failed build),
//               and never run simulated work.
//   drain       begin_drain() makes admission shed everything (kBusy with
//               the max retry hint) while in-flight sessions finish;
//               drain() then waits them out. The socket layer builds
//               SIGTERM/"drain" handling on top (server.hpp).
//
// Virtual admission order ("seq"): a request may carry an explicit seq —
// its slot in the shared DPM's virtual queue — so that multiple client
// connections splitting one logical stream yield the same table no matter
// how their lines interleave on the host. A stream either tags every
// request (explicit mode: seqs must be unique and dense from 0; a gap
// stalls *reporting* of later sessions until it arrives, and stop()
// collapses any gap that never does) or none (implicit mode: seq =
// admission order). The mode is locked by the first admitted request.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injector.hpp"
#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "serve/protocol.hpp"
#include "warp/warp_system.hpp"

namespace warp::serve {

/// Occupancy caps for the admission controller. A cap of 0 means unlimited;
/// with every cap 0 (the default) admission is a no-op and warpd behaves
/// exactly as before this layer existed.
struct AdmissionOptions {
  /// Admitted-but-unfinalized sessions (queued + running).
  std::size_t max_sessions = 0;
  /// Admitted-but-unstarted sessions (the claim queue).
  std::size_t max_queued = 0;
  /// Busy retry hint: min(busy_retry_cap_ms, busy_retry_ms * (queued + 1)).
  /// Deterministic in the occupancy at shed time, so identical request
  /// schedules get identical hints.
  std::uint64_t busy_retry_ms = 25;
  std::uint64_t busy_retry_cap_ms = 2000;

  bool enabled() const { return max_sessions != 0 || max_queued != 0; }
};

/// Bounded-occupancy bookkeeping for warpd admission. Not thread-safe on
/// its own: every call happens under the owning Warpd's mutex.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options) : options_(options) {}

  /// Admit one session, or return the deterministic busy retry hint (ms) if
  /// any cap would be exceeded. On admission the session is counted as
  /// queued until started() and in flight until finished().
  std::optional<std::uint64_t> try_admit();
  /// The hint a shed request gets right now (same formula try_admit uses).
  std::uint64_t retry_hint_ms() const;
  /// The hint handed out while draining: the cap, i.e. "come back after the
  /// restart, not in a few ms".
  std::uint64_t drain_retry_ms() const { return options_.busy_retry_cap_ms; }

  void started();   // a queued session was claimed (or cancelled)
  void finished();  // an admitted session finalized

  const AdmissionOptions& options() const { return options_; }
  std::size_t sessions() const { return sessions_; }
  std::size_t queued() const { return queued_; }
  std::uint64_t peak_sessions() const { return peak_sessions_; }
  std::uint64_t peak_queued() const { return peak_queued_; }

 private:
  AdmissionOptions options_;
  std::size_t sessions_ = 0;  // admitted, not yet finalized
  std::size_t queued_ = 0;    // admitted, not yet started
  std::uint64_t peak_sessions_ = 0;
  std::uint64_t peak_queued_ = 0;
};

struct WarpdOptions {
  /// Session worker threads; 0 = std::thread::hardware_concurrency().
  unsigned workers = 0;
  /// Shared artifact cache consulted by every DPM job (not owned; may be
  /// null). It lives as long as its owner keeps it: a restarted server
  /// starts cold.
  partition::ArtifactCache* cache = nullptr;
  /// Shared deterministic fault injector for the pipeline's stage sites (not
  /// owned; may be null). Socket-layer sites live in server.hpp; the
  /// engine-level "serve.admit" site fires here, and only when admission
  /// caps are enabled (an injected admission fault sheds the request
  /// exactly like a full queue).
  common::FaultInjector* fault = nullptr;
  /// Occupancy caps; disabled (unlimited) by default.
  AdmissionOptions admission;
  /// Per-session template (cpu config, system config, ...). Its `cache`
  /// member is ignored — the engine passes `cache` above per DPM call.
  experiments::HarnessOptions base;
};

/// What one session resolved to, distinguished by `status`:
///   kOk       the entry is the session's result table row (software
///             fallback included — a failed CAD flow is a completed session
///             with warped=false, never an error);
///   kErr      rejected at admission (unknown workload, bad override, seq
///             conflict); `error` says why, the entry is meaningless;
///   kBusy     shed by the admission controller (over caps, draining, or an
///             injected serve.admit fault); retry_after_ms is the hint, the
///             entry is meaningless and no session state was created;
///   kTimeout  admitted but cancelled before a worker started it; `error`
///             carries the deadline message, no simulated work ran.
/// `error` stays nonempty exactly when status != kOk, so status-unaware
/// callers keep working.
struct SessionOutcome {
  std::uint64_t id = 0;
  std::uint64_t seq = 0;
  protocol::ReplyStatus status = protocol::ReplyStatus::kOk;
  std::string error;
  std::uint64_t retry_after_ms = 0;  // kBusy only
  warpsys::MultiWarpEntry entry;
  bool dpm_job = false;     // the profiled run filed a DPM job (kOk only)
  double latency_ms = 0.0;  // host admission -> completion
};

struct WarpdStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;       // finalized sessions, timeouts included
  std::uint64_t rejected = 0;        // kErr outcomes
  std::uint64_t busy_rejected = 0;   // kBusy sheds (caps, drain, serve.admit)
  std::uint64_t timeouts = 0;        // kTimeout cancellations
  std::uint64_t pipeline_runs = 0;   // sessions a worker started
  std::uint64_t unique_kernels = 0;  // distinct kernel content hashes seen
  std::uint64_t max_queue_depth = 0; // peak admitted-but-unstarted occupancy
  std::uint64_t peak_sessions = 0;   // peak admitted-but-unfinalized
  std::uint64_t dpm_jobs = 0;        // DPM turns taken, one per filed job
  double dpm_busy_ms = 0.0;          // host wall clock spent in them
  bool draining = false;
  std::vector<double> latencies_ms;  // served (kOk) sessions, in seq order
};

class Warpd {
 public:
  using Callback = std::function<void(const SessionOutcome&)>;

  explicit Warpd(WarpdOptions options);
  ~Warpd();
  Warpd(const Warpd&) = delete;
  Warpd& operator=(const Warpd&) = delete;

  /// Admit one session. The callback fires exactly once — once the session
  /// completes, from a worker, the deadliner or the thread that calls
  /// stop(), or synchronously (with a kErr or kBusy outcome, before submit
  /// returns) if the request is rejected or shed. Callbacks run without the
  /// engine's lock and must not re-enter this Warpd beyond submit().
  void submit(const protocol::Request& request, Callback done);

  /// Admit a caller-owned, already-built system as one session at virtual
  /// slot `seq` (explicit seq mode; `name` becomes the entry's name). The
  /// session skips the build and carries no deadline; the caller reads
  /// system.outcome() and data_mem() afterwards. `system` must outlive the
  /// callback.
  void submit_system(warpsys::WarpSystem& system, std::string name, std::uint64_t seq,
                     Callback done);

  /// Stop admitting (everything new is shed kBusy with drain_retry_ms,
  /// also after stop()) while in-flight sessions run to completion.
  /// Irreversible.
  void begin_drain();
  bool draining() const;

  /// Block until every admitted session has completed. With a gapped
  /// explicit-seq stream this waits for the gap; use stop() to force.
  void drain();

  /// Stop admitting, finish every admitted session (collapsing any seq
  /// gaps, in ascending seq order), deliver their callbacks and join all
  /// engine threads. Idempotent; the destructor calls it.
  void stop();

  WarpdStats stats() const;
  const WarpdOptions& options() const { return options_; }
  unsigned workers() const { return n_workers_; }

 private:
  struct Session {
    protocol::Request request;
    Callback done;
    std::chrono::steady_clock::time_point admitted;
    /// Host time by which a worker must claim this session — else it is
    /// cancelled.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::uint64_t seq = 0;
    std::size_t index = 0;  // admission index
    warpsys::WarpSystem* system = nullptr;  // caller-owned, or owned.get()
    std::unique_ptr<warpsys::WarpSystem> owned;
    bool caller_owned = false;  // admitted through submit_system()
    warpsys::MultiWarpEntry entry;
    protocol::ReplyStatus status = protocol::ReplyStatus::kOk;
    std::string message;       // kTimeout detail
    bool claimed = false;      // a worker took it (or it was cancelled)
    bool has_job = false;      // profile succeeded; a DPM job was filed
    bool dpm_done = false;     // the DPM served the job (or there was none)
    bool runs_done = false;    // warped/fallback run finished
    bool wait_done = false;    // sequence_locked assigned dpm_wait_seconds
    bool finalized = false;
  };
  using Delivery = std::pair<Callback, SessionOutcome>;

  /// submit()/submit_system(): `err` is the request's validation verdict;
  /// `system` is null unless the caller owns the session's system.
  void admit(const protocol::Request& request, std::string err,
             warpsys::WarpSystem* system, Callback done);
  void worker_main();
  /// The DPM turn of a worker's filed job: wait until no DPM job runs and
  /// `session`'s (seq, admission index) is the lowest filed, then run
  /// dpm_phase outside the lock. Returns whether the kernel partitioned.
  bool dpm_turn(std::unique_lock<std::mutex>& lock, Session& session);
  void deadline_main();
  /// Resolve an admitted-but-unstarted session as kTimeout: dpm_done with
  /// no job, so sequencing passes it without a clock charge, like a failed
  /// build.
  void cancel_locked(Session& session);
  /// Assign dpm_wait_seconds in seq order through clock_, from next_seq_
  /// up to the first session that is not dpm_done, and finalize the
  /// sequenced sessions whose runs are done. With `collapse` (stop(), once
  /// every session is dpm_done) a seq gap no longer stops the walk.
  std::vector<Delivery> sequence_locked(bool collapse = false);
  void try_finalize_locked(Session& session, std::vector<Delivery>& out);
  /// Run the callbacks with `lock` dropped (a callback may submit()), then
  /// retake it.
  static void deliver(std::unique_lock<std::mutex>& lock, std::vector<Delivery> deliveries);

  WarpdOptions options_;
  unsigned n_workers_ = 1;

  mutable std::mutex mutex_;
  std::condition_variable worker_cv_;   // submit/stop -> idle workers
  std::condition_variable turn_cv_;     // a DPM turn ended -> filed workers
  std::condition_variable done_cv_;     // finalize -> drain()
  std::condition_variable deadline_cv_; // submit/stop -> deadliner

  std::deque<std::unique_ptr<Session>> sessions_;  // by admission index
  std::size_t next_claim_ = 0;
  // Filed DPM jobs waiting for their turn, ordered by (seq, admission index).
  std::set<std::pair<std::uint64_t, std::size_t>> dpm_queue_;
  bool dpm_running_ = false;  // a worker is in its DPM turn
  std::map<std::uint64_t, Session*> pending_waits_;  // seq -> session
  std::uint64_t next_seq_ = 0;
  std::set<std::uint64_t> used_seqs_;  // explicit mode duplicate detection
  enum class SeqMode { kUnset, kImplicit, kExplicit };
  SeqMode seq_mode_ = SeqMode::kUnset;
  warpsys::DpmVirtualClock clock_;  // round robin, in seq order
  std::set<std::pair<std::uint64_t, std::uint64_t>> kernels_seen_;
  AdmissionController admission_;
  bool draining_ = false;
  bool stopping_ = false;
  bool stopped_ = false;
  WarpdStats stats_;
  std::map<std::uint64_t, double> latencies_by_seq_;
  std::vector<std::thread> threads_;
};

/// Serial reference engine: the same sessions, built/run one at a time on
/// the calling thread in the given order, waits assigned in seq order by
/// warpsys::assign_dpm_waits (round robin). Outcomes are returned in request
/// order. The concurrent engine is gated bit-identical against this.
/// Serial execution is uncontended — nothing queues, so admission caps and
/// deadlines never fire here; the concurrent engine's *accepted*
/// subsequence is what must match run_serial over that subsequence.
std::vector<SessionOutcome> run_serial(const std::vector<protocol::Request>& requests,
                                       const WarpdOptions& options);

}  // namespace warp::serve
