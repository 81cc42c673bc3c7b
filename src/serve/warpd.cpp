#include "serve/warpd.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "workloads/workload.hpp"

namespace warp::serve {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Admission-time checks that do not depend on engine state: the workload
// lookup, then the protocol's range checks (parsed requests already passed
// them; in-process callers can construct Request directly).
std::string validate_request(const protocol::Request& request) {
  if (workloads::find_workload(request.workload) == nullptr) {
    return "unknown workload: " + request.workload;
  }
  return protocol::check_ranges(request);
}

// Assemble the session's WarpSystem with the request's overrides applied.
common::Result<std::unique_ptr<warpsys::WarpSystem>> build_session(
    const protocol::Request& request, const experiments::HarnessOptions& base) {
  using R = common::Result<std::unique_ptr<warpsys::WarpSystem>>;
  experiments::HarnessOptions options = base;
  options.cache = nullptr;  // the engine passes its shared cache per DPM call
  const protocol::RequestOverrides& o = request.overrides;
  if (o.packed_width) options.system.packed.width = *o.packed_width;
  if (o.max_candidates) options.system.dpm.max_candidates = *o.max_candidates;
  if (o.csd_max_terms) options.system.dpm.synth.csd_max_terms = *o.csd_max_terms;
  auto systems = experiments::build_warp_systems({request.workload}, options);
  if (!systems) return R::error(systems.message());
  return std::move(std::move(systems).value()[0]);
}

// The kernel content hash: the program words plus the overridable knobs
// that change what the DPM computes. Host-only knobs (packed_width) stay
// out — they never change artifacts.
common::Digest kernel_hash_of(const warpsys::WarpSystem& system) {
  common::Hasher hasher;
  const std::vector<std::uint32_t>& words = system.program().words;
  hasher.u64(words.size());
  for (const std::uint32_t word : words) hasher.u32(word);
  const auto& dpm = system.config().dpm;
  hasher.u32(dpm.max_candidates);
  hasher.u32(dpm.synth.csd_max_terms);
  return hasher.finish();
}

}  // namespace

std::optional<std::uint64_t> AdmissionController::try_admit() {
  const bool over =
      (options_.max_sessions != 0 && sessions_ + 1 > options_.max_sessions) ||
      (options_.max_queued != 0 && queued_ + 1 > options_.max_queued);
  if (over) return retry_hint_ms();
  ++sessions_;
  ++queued_;
  peak_sessions_ = std::max<std::uint64_t>(peak_sessions_, sessions_);
  peak_queued_ = std::max<std::uint64_t>(peak_queued_, queued_);
  return std::nullopt;
}

std::uint64_t AdmissionController::retry_hint_ms() const {
  const std::uint64_t hint =
      options_.busy_retry_ms * (static_cast<std::uint64_t>(queued_) + 1);
  return std::max<std::uint64_t>(1, std::min(options_.busy_retry_cap_ms, hint));
}

void AdmissionController::started() {
  if (queued_ > 0) --queued_;
}

void AdmissionController::finished() {
  if (sessions_ > 0) --sessions_;
}

Warpd::Warpd(WarpdOptions options)
    : options_(std::move(options)),
      n_workers_(options_.workers ? options_.workers : std::thread::hardware_concurrency()),
      admission_(options_.admission) {
  if (n_workers_ == 0) n_workers_ = 1;
  threads_.reserve(1 + n_workers_);
  threads_.emplace_back([this] { deadline_main(); });
  for (unsigned w = 0; w < n_workers_; ++w) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

Warpd::~Warpd() { stop(); }

void Warpd::submit(const protocol::Request& request, Callback done) {
  admit(request, validate_request(request), nullptr, std::move(done));
}

void Warpd::submit_system(warpsys::WarpSystem& system, std::string name, std::uint64_t seq,
                          Callback done) {
  protocol::Request request;
  request.id = seq;
  request.seq = seq;
  request.workload = std::move(name);
  admit(request, {}, &system, std::move(done));
}

void Warpd::admit(const protocol::Request& request, std::string err,
                  warpsys::WarpSystem* system, Callback done) {
  std::unique_lock lock(mutex_);
  // A drained engine keeps shedding busy while it stops: its connections
  // still deliver the retries of the drain's busy storm until they close.
  if (err.empty() && stopping_ && !draining_) err = "server is stopping";
  // Seq checks, without committing: a shed request must not burn a seq slot
  // or lock the stream's seq mode.
  if (err.empty()) {
    if (request.seq) {
      // A seq that was admitted before is a duplicate whether or not its
      // session is finalized yet, so the reply does not depend on host
      // timing; only a never-admitted seq below the watermark is late.
      if (seq_mode_ == SeqMode::kImplicit) {
        err = "seq on a stream that started without seq";
      } else if (used_seqs_.count(*request.seq) != 0) {
        err = "duplicate seq";
      } else if (*request.seq < next_seq_) {
        err = "seq already served";
      }
    } else if (seq_mode_ == SeqMode::kExplicit) {
      err = "missing seq on a stream that started with seq";
    }
  }
  std::optional<std::uint64_t> busy;
  if (err.empty()) {
    if (draining_) {
      busy = admission_.drain_retry_ms();
    } else if (options_.admission.enabled() && common::injected(options_.fault, "serve.admit")) {
      // An injected admission-bookkeeping failure sheds the request exactly
      // like a full queue: deterministic busy, no session state touched.
      busy = admission_.retry_hint_ms();
    } else {
      busy = admission_.try_admit();
    }
    if (busy) ++stats_.busy_rejected;
  }
  if (!err.empty() || busy) {
    if (!busy) ++stats_.rejected;
    lock.unlock();
    SessionOutcome out;
    out.id = request.id;
    if (busy) {
      out.status = protocol::ReplyStatus::kBusy;
      out.error = "busy";
      out.retry_after_ms = *busy;
    } else {
      out.status = protocol::ReplyStatus::kErr;
      out.error = std::move(err);
    }
    if (done) done(out);
    return;
  }
  if (request.seq) {
    used_seqs_.insert(*request.seq);
    seq_mode_ = SeqMode::kExplicit;
  } else {
    seq_mode_ = SeqMode::kImplicit;
  }
  auto session = std::make_unique<Session>();
  Session& s = *session;
  s.request = request;
  s.done = std::move(done);
  s.admitted = std::chrono::steady_clock::now();
  if (request.deadline_ms) {
    s.deadline = s.admitted + std::chrono::milliseconds(*request.deadline_ms);
  }
  s.index = sessions_.size();
  s.seq = request.seq ? *request.seq : static_cast<std::uint64_t>(s.index);
  s.system = system;
  s.caller_owned = system != nullptr;
  s.entry.name = request.workload;
  pending_waits_[s.seq] = &s;
  sessions_.push_back(std::move(session));
  ++stats_.admitted;
  worker_cv_.notify_one();
  if (s.deadline) deadline_cv_.notify_all();
}

void Warpd::begin_drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
}

bool Warpd::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void Warpd::drain() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&] { return stats_.completed == stats_.admitted; });
}

void Warpd::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopping_ = true;
    worker_cv_.notify_all();
    deadline_cv_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  std::unique_lock lock(mutex_);
  stopped_ = true;
  // With the workers gone every session is dpm_done, so a seq gap that never
  // filled no longer holds back the sessions after it.
  deliver(lock, sequence_locked(/*collapse=*/true));
}

WarpdStats Warpd::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WarpdStats stats = stats_;
  stats.max_queue_depth = admission_.peak_queued();
  stats.peak_sessions = admission_.peak_sessions();
  stats.draining = draining_;
  stats.latencies_ms.clear();
  stats.latencies_ms.reserve(latencies_by_seq_.size());
  for (const auto& [seq, latency] : latencies_by_seq_) stats.latencies_ms.push_back(latency);
  return stats;
}

void Warpd::worker_main() {
  std::unique_lock lock(mutex_);
  for (;;) {
    worker_cv_.wait(lock, [&] { return next_claim_ < sessions_.size() || stopping_; });
    if (next_claim_ >= sessions_.size()) break;  // stopping, nothing left to claim
    Session& s = *sessions_[next_claim_++];
    if (s.claimed) continue;  // the deadliner already resolved it
    if (s.deadline && std::chrono::steady_clock::now() >= *s.deadline) {
      // Claim-time expiry: same outcome as a deadliner cancellation — the
      // session never starts, never charges the clock.
      cancel_locked(s);
      deliver(lock, sequence_locked());
      continue;
    }
    s.claimed = true;
    admission_.started();
    ++stats_.pipeline_runs;
    lock.unlock();

    // Build + profiled run, outside the lock; no other thread touches the
    // session's pipeline state until it is dpm_done.
    if (!s.caller_owned) {
      auto built = build_session(s.request, options_.base);
      if (built) {
        s.owned = std::move(built).value();
        s.system = s.owned.get();
      } else {
        s.entry.detail = built.message();
      }
    }
    if (s.system != nullptr) s.has_job = warpsys::profile_phase(*s.system, s.entry);
    const common::Digest kernel_hash = s.has_job ? kernel_hash_of(*s.system) : common::Digest{};

    lock.lock();
    bool partitioned = false;
    if (s.has_job) {
      if (kernels_seen_.insert({kernel_hash.hi, kernel_hash.lo}).second) {
        ++stats_.unique_kernels;
      }
      partitioned = dpm_turn(lock, s);
    }
    s.dpm_done = true;
    deliver(lock, sequence_locked());
    lock.unlock();
    if (s.has_job) warpsys::warped_phase(*s.system, s.entry, partitioned);
    lock.lock();
    s.runs_done = true;
    std::vector<Delivery> ready;
    try_finalize_locked(s, ready);
    deliver(lock, std::move(ready));
  }
}

bool Warpd::dpm_turn(std::unique_lock<std::mutex>& lock, Session& s) {
  dpm_queue_.insert({s.seq, s.index});
  turn_cv_.wait(lock, [&] { return !dpm_running_ && dpm_queue_.begin()->second == s.index; });
  dpm_queue_.erase(dpm_queue_.begin());
  dpm_running_ = true;
  lock.unlock();
  const auto start = std::chrono::steady_clock::now();
  const bool partitioned = warpsys::dpm_phase(*s.system, s.entry, options_.cache, options_.fault);
  const double busy_ms = ms_since(start);
  lock.lock();
  dpm_running_ = false;
  stats_.dpm_jobs += 1;
  stats_.dpm_busy_ms += busy_ms;
  turn_cv_.notify_all();
  return partitioned;
}

std::vector<Warpd::Delivery> Warpd::sequence_locked(bool collapse) {
  std::vector<Delivery> ready;
  while (!pending_waits_.empty()) {
    const auto head = pending_waits_.begin();
    Session& s = *head->second;
    if (!s.dpm_done || (head->first != next_seq_ && !collapse)) break;
    pending_waits_.erase(head);
    if (s.has_job) {
      // The one place virtual DPM time advances: strictly in seq order,
      // with assign_dpm_waits' arithmetic (DpmVirtualClock).
      s.entry.dpm_wait_seconds = clock_.start(s.entry.sw_seconds);
      clock_.finish(s.entry.dpm_seconds);
    }
    next_seq_ = s.seq + 1;
    s.wait_done = true;
    try_finalize_locked(s, ready);
  }
  return ready;
}

void Warpd::deadline_main() {
  std::unique_lock lock(mutex_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    std::optional<std::chrono::steady_clock::time_point> next;
    bool cancelled = false;
    for (std::size_t i = next_claim_; i < sessions_.size(); ++i) {
      Session& s = *sessions_[i];
      if (s.claimed || !s.deadline) continue;
      if (*s.deadline <= now) {
        cancel_locked(s);
        cancelled = true;
      } else if (!next || *s.deadline < *next) {
        next = *s.deadline;
      }
    }
    if (cancelled) {
      // Rescan afterwards: sessions admitted while the callbacks ran
      // notified no one.
      deliver(lock, sequence_locked());
      continue;
    }
    if (stopping_) break;  // claim-time checks cover the shutdown window
    if (next) {
      deadline_cv_.wait_until(lock, *next);
    } else {
      deadline_cv_.wait(lock);
    }
  }
}

void Warpd::cancel_locked(Session& s) {
  s.claimed = true;
  admission_.started();  // it leaves the claim queue, cancelled
  s.status = protocol::ReplyStatus::kTimeout;
  s.message = "deadline_ms=" +
              std::to_string(s.request.deadline_ms ? *s.request.deadline_ms : 0) +
              " elapsed before the session started";
  s.has_job = false;  // sequenced without charging the clock
  s.dpm_done = true;
  s.runs_done = true;
  ++stats_.timeouts;
}

void Warpd::try_finalize_locked(Session& s, std::vector<Delivery>& out) {
  if (s.finalized || !s.runs_done || !s.wait_done) return;
  s.finalized = true;
  SessionOutcome outcome;
  outcome.id = s.request.id;
  outcome.seq = s.seq;
  outcome.status = s.status;
  outcome.error = s.message;
  outcome.entry = s.entry;
  outcome.dpm_job = s.has_job;
  outcome.latency_ms = ms_since(s.admitted);
  if (s.status == protocol::ReplyStatus::kOk) {
    latencies_by_seq_[s.seq] = outcome.latency_ms;
  }
  ++stats_.completed;
  admission_.finished();
  s.system = nullptr;
  s.owned.reset();  // bound live memory to in-flight sessions
  done_cv_.notify_all();
  out.emplace_back(std::move(s.done), std::move(outcome));
}

void Warpd::deliver(std::unique_lock<std::mutex>& lock, std::vector<Delivery> deliveries) {
  if (deliveries.empty()) return;
  lock.unlock();
  for (Delivery& d : deliveries) {
    if (d.first) d.first(d.second);
  }
  lock.lock();
}

std::vector<SessionOutcome> run_serial(const std::vector<protocol::Request>& requests,
                                       const WarpdOptions& options) {
  std::vector<SessionOutcome> outcomes(requests.size());
  // Accepted sessions by seq: the virtual DPM's admission order.
  std::map<std::uint64_t, std::size_t> by_seq;

  // Admission mirrors Warpd::submit: same rejections, same seq assignment.
  // Serial execution is uncontended, so admission caps and deadlines never
  // fire — every valid request is accepted.
  enum class SeqMode { kUnset, kImplicit, kExplicit };
  SeqMode mode = SeqMode::kUnset;
  std::set<std::uint64_t> used_seqs;
  std::uint64_t implicit_seq = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const protocol::Request& request = requests[i];
    SessionOutcome& out = outcomes[i];
    out.id = request.id;
    std::string err = validate_request(request);
    if (err.empty()) {
      if (request.seq) {
        if (mode == SeqMode::kImplicit) {
          err = "seq on a stream that started without seq";
        } else if (!used_seqs.insert(*request.seq).second) {
          err = "duplicate seq";
        } else {
          mode = SeqMode::kExplicit;
        }
      } else {
        if (mode == SeqMode::kExplicit) {
          err = "missing seq on a stream that started with seq";
        } else {
          mode = SeqMode::kImplicit;
        }
      }
    }
    if (!err.empty()) {
      out.status = protocol::ReplyStatus::kErr;
      out.error = std::move(err);
      continue;
    }
    out.seq = request.seq ? *request.seq : implicit_seq++;
    out.entry.name = request.workload;
    by_seq[out.seq] = i;

    const auto admitted = std::chrono::steady_clock::now();
    auto built = build_session(request, options.base);
    if (built) {
      warpsys::WarpSystem& system = *built.value();
      out.dpm_job = warpsys::profile_phase(system, out.entry);
      if (out.dpm_job) {
        const bool partitioned =
            warpsys::dpm_phase(system, out.entry, options.cache, options.fault);
        warpsys::warped_phase(system, out.entry, partitioned);
      }
    } else {
      out.entry.detail = built.message();
    }
    out.latency_ms = ms_since(admitted);
  }

  std::vector<warpsys::DpmRow> rows;
  for (const auto& [seq, i] : by_seq) {
    rows.push_back({&outcomes[i].entry, outcomes[i].dpm_job});
  }
  warpsys::assign_dpm_waits(rows);
  return outcomes;
}

}  // namespace warp::serve
