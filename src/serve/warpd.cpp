#include "serve/warpd.hpp"

#include <algorithm>

#include "workloads/workload.hpp"

namespace warp::serve {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Admission-time checks that do not depend on engine state. Parsed requests
// already satisfy these; in-process callers can construct Request directly,
// so re-check here.
std::string validate_request(const protocol::Request& request) {
  if (workloads::find_workload(request.workload) == nullptr) {
    return "unknown workload: " + request.workload;
  }
  const protocol::RequestOverrides& o = request.overrides;
  if (o.packed_width && *o.packed_width != 0 && *o.packed_width != 1 &&
      *o.packed_width != 2 && *o.packed_width != 4) {
    return "bad packed_width (want 0, 1, 2 or 4)";
  }
  if (o.max_candidates && (*o.max_candidates < 1 || *o.max_candidates > 64)) {
    return "bad max_candidates (want 1..64)";
  }
  if (o.csd_max_terms && *o.csd_max_terms > 16) {
    return "bad csd_max_terms (want 0..16)";
  }
  if (request.deadline_ms &&
      (*request.deadline_ms == 0 || *request.deadline_ms > protocol::kMaxDeadlineMs)) {
    return "bad deadline_ms (want 1..86400000)";
  }
  return {};
}

// Coalescing identity: everything that can change a session's result table
// row. packed_width is host-only for the DPM but may still shape the entry,
// so the key covers the full override set — two requests coalesce only when
// their entries are provably interchangeable.
std::string coalesce_key_of(const protocol::Request& request) {
  const protocol::RequestOverrides& o = request.overrides;
  std::string key = request.workload;
  key += '|';
  key += o.packed_width ? std::to_string(*o.packed_width) : std::string("-");
  key += '|';
  key += o.max_candidates ? std::to_string(*o.max_candidates) : std::string("-");
  key += '|';
  key += o.csd_max_terms ? std::to_string(*o.csd_max_terms) : std::string("-");
  return key;
}

struct BuiltSession {
  std::unique_ptr<warpsys::WarpSystem> system;
  common::Digest kernel_hash;
};

// Assemble the session's WarpSystem with the request's overrides applied,
// and compute the kernel content hash that decides shard ownership: the
// program words plus the overridable knobs that change what the DPM
// computes. Host-only knobs (packed_width) stay out — they never change
// artifacts, so they must not split a kernel across shards.
common::Result<BuiltSession> build_session(const protocol::Request& request,
                                           const experiments::HarnessOptions& base) {
  using R = common::Result<BuiltSession>;
  experiments::HarnessOptions options = base;
  options.cache = nullptr;  // the engine passes its shared cache per DPM call
  const protocol::RequestOverrides& o = request.overrides;
  if (o.packed_width) options.system.packed.width = *o.packed_width;
  if (o.max_candidates) options.system.dpm.max_candidates = *o.max_candidates;
  if (o.csd_max_terms) options.system.dpm.synth.csd_max_terms = *o.csd_max_terms;
  auto systems = experiments::build_warp_systems({request.workload}, options);
  if (!systems) return R::error(systems.message());
  BuiltSession built;
  built.system = std::move(std::move(systems).value()[0]);
  common::Hasher hasher;
  const std::vector<std::uint32_t>& words = built.system->program().words;
  hasher.u64(words.size());
  for (const std::uint32_t word : words) hasher.u32(word);
  const auto& dpm = built.system->config().dpm;
  hasher.u32(dpm.max_candidates);
  hasher.u32(dpm.synth.csd_max_terms);
  built.kernel_hash = hasher.finish();
  return built;
}

}  // namespace

namespace {

std::vector<unsigned> dense_members(unsigned shards) {
  std::vector<unsigned> members(std::max(1u, shards));
  for (unsigned m = 0; m < members.size(); ++m) members[m] = m;
  return members;
}

}  // namespace

ShardRing::ShardRing(unsigned shards, unsigned points_per_shard)
    : ShardRing(dense_members(shards), points_per_shard) {}

ShardRing::ShardRing(const std::vector<unsigned>& members, unsigned points_per_shard)
    : shards_(static_cast<unsigned>(members.size())) {
  points_.reserve(static_cast<std::size_t>(members.size()) * points_per_shard);
  for (const unsigned member : members) {
    for (unsigned point = 0; point < points_per_shard; ++point) {
      common::Hasher hasher;
      hasher.str("warpd.ring").u32(member).u32(point);
      points_.emplace_back(hasher.finish().lo, member);
    }
  }
  std::sort(points_.begin(), points_.end());
}

unsigned ShardRing::owner(const common::Digest& key) const {
  if (points_.empty()) return 0;
  const std::uint64_t position = key.lo;
  auto it = std::lower_bound(points_.begin(), points_.end(),
                             std::make_pair(position, 0u));
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->second;
}

std::optional<std::uint64_t> AdmissionController::try_admit() {
  const std::uint64_t bytes_after = bytes_ + options_.session_bytes;
  const bool over =
      (options_.max_sessions != 0 && sessions_ + 1 > options_.max_sessions) ||
      (options_.max_queued != 0 && queued_ + 1 > options_.max_queued) ||
      (options_.max_bytes != 0 && bytes_after > options_.max_bytes);
  if (over) return retry_hint_ms();
  ++sessions_;
  ++queued_;
  bytes_ = bytes_after;
  peak_sessions_ = std::max<std::uint64_t>(peak_sessions_, sessions_);
  peak_queued_ = std::max<std::uint64_t>(peak_queued_, queued_);
  peak_bytes_ = std::max(peak_bytes_, bytes_);
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
  bytes_ -= std::min(bytes_, options_.session_bytes);
}

Warpd::Warpd(WarpdOptions options)
    : options_(std::move(options)),
      n_shards_(std::max(1u, options_.shards)),
      n_workers_(options_.workers ? options_.workers : std::thread::hardware_concurrency()),
      ring_(n_shards_, std::max(1u, options_.ring_points_per_shard)),
      admission_(options_.admission) {
  if (n_workers_ == 0) n_workers_ = 1;
  shard_queues_.resize(n_shards_);
  stats_.shards.resize(n_shards_);
  for (unsigned s = 0; s < n_shards_; ++s) {
    shard_cvs_.push_back(std::make_unique<std::condition_variable>());
  }
  threads_.reserve(2 + n_shards_ + n_workers_);
  threads_.emplace_back([this] { sequencer_main(); });
  threads_.emplace_back([this] { deadline_main(); });
  for (unsigned s = 0; s < n_shards_; ++s) {
    threads_.emplace_back([this, s] { shard_main(s); });
  }
  for (unsigned w = 0; w < n_workers_; ++w) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

Warpd::~Warpd() { stop(); }

void Warpd::submit(const protocol::Request& request, Callback done) {
  std::string err = validate_request(request);
  std::unique_lock lock(mutex_);
  // A drained engine keeps shedding busy while it stops: its connections
  // still deliver the retries of the drain's busy storm until they close.
  if (err.empty() && stopping_ && !draining_) err = "server is stopping";
  // Seq checks, without committing: a shed request must not burn a seq slot
  // or lock the stream's seq mode.
  if (err.empty()) {
    if (request.seq) {
      if (seq_mode_ == SeqMode::kImplicit) {
        err = "seq on a stream that started without seq";
      } else if (*request.seq < next_seq_) {
        err = "seq already served";
      } else if (used_seqs_.count(*request.seq) != 0) {
        err = "duplicate seq";
      }
    } else if (seq_mode_ == SeqMode::kExplicit) {
      err = "missing seq on a stream that started with seq";
    }
  }
  std::optional<std::uint64_t> busy;
  if (err.empty()) {
    if (draining_) {
      busy = admission_.drain_retry_ms();
    } else if (options_.fault != nullptr && options_.admission.enabled() &&
               options_.fault->probe("serve.admit", common::FaultKind::kIoError)) {
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
    out.node = options_.node_id;
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
  std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
}

WarpdStats Warpd::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WarpdStats stats = stats_;
  stats.max_queue_depth = admission_.peak_queued();
  stats.peak_sessions = admission_.peak_sessions();
  stats.peak_bytes = admission_.peak_bytes();
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
    if (next_claim_ >= sessions_.size()) {
      if (stopping_) break;
      continue;
    }
    Session& s = *sessions_[next_claim_++];
    if (s.claimed) continue;  // the deadliner already resolved it
    if (s.deadline && std::chrono::steady_clock::now() >= *s.deadline) {
      // Claim-time expiry: same outcome as a deadliner cancellation — the
      // session never starts, never charges the clock.
      cancel_locked(s);
      continue;
    }
    s.claimed = true;
    admission_.started();
    if (options_.coalesce) {
      const std::string key = coalesce_key_of(s.request);
      auto leader = inflight_leaders_.find(key);
      if (leader != inflight_leaders_.end()) {
        // Identical request already in flight: subscribe as a follower and
        // free this worker. The leader resolves us when it lands.
        sessions_[leader->second]->followers.push_back(s.index);
        continue;
      }
      inflight_leaders_.emplace(key, s.index);
      s.coalesce_key = key;
    }
    ++stats_.pipeline_runs;
    lock.unlock();

    // Build + profiled run, outside the lock; no other thread touches the
    // session's pipeline state until the job is filed.
    common::Digest kernel_hash{};
    auto built = build_session(s.request, options_.base);
    if (built) {
      BuiltSession b = std::move(built).value();
      s.system = std::move(b.system);
      kernel_hash = b.kernel_hash;
      s.has_job = warpsys::profile_phase(*s.system, s.entry);
    } else {
      s.entry.detail = built.message();
    }

    lock.lock();
    if (s.has_job) {
      s.shard = ring_.owner(kernel_hash);
      if (kernels_seen_.insert({kernel_hash.hi, kernel_hash.lo}).second) {
        ++stats_.unique_kernels;
      }
      shard_queues_[s.shard].insert({s.seq, s.index});
      shard_cvs_[s.shard]->notify_one();
      grant_cv_.wait(lock, [&] { return s.dpm_done; });
    } else {
      s.dpm_done = true;
      seq_cv_.notify_all();
    }
    const bool has_job = s.has_job;
    const bool partitioned = s.partitioned;
    lock.unlock();
    if (has_job) warpsys::warped_phase(*s.system, s.entry, partitioned);
    lock.lock();
    s.runs_done = true;
    std::vector<Delivery> deliveries;
    resolve_followers_locked(s, deliveries);
    if (auto delivery = try_finalize_locked(s)) deliveries.push_back(std::move(*delivery));
    if (!deliveries.empty()) {
      lock.unlock();
      for (Delivery& d : deliveries) deliver(std::move(d));
      lock.lock();
    }
  }
  // Exiting with the lock held: the last worker out releases the shard and
  // sequencer threads (their queues are final once no worker can enqueue).
  if (++workers_exited_ == n_workers_) {
    for (auto& cv : shard_cvs_) cv->notify_all();
    seq_cv_.notify_all();
  }
}

void Warpd::shard_main(unsigned shard) {
  std::unique_lock lock(mutex_);
  auto& queue = shard_queues_[shard];
  std::condition_variable& cv = *shard_cvs_[shard];
  for (;;) {
    cv.wait(lock, [&] {
      return !queue.empty() || (stopping_ && workers_exited_ == n_workers_);
    });
    if (queue.empty()) break;
    // Pop the owned job with the lowest virtual admission slot. Repeats of
    // one kernel are owned by this shard and thus serialized here — the
    // first occurrence computes, later ones resolve from the shared cache.
    const std::size_t index = queue.begin()->second;
    queue.erase(queue.begin());
    Session& s = *sessions_[index];
    lock.unlock();
    const auto start = std::chrono::steady_clock::now();
    const bool partitioned =
        warpsys::dpm_phase(*s.system, s.entry, options_.cache, options_.fault);
    const double busy_ms = ms_since(start);
    lock.lock();
    s.partitioned = partitioned;
    s.dpm_done = true;
    stats_.shards[shard].jobs += 1;
    stats_.shards[shard].busy_ms += busy_ms;
    grant_cv_.notify_all();
    seq_cv_.notify_all();
  }
}

void Warpd::sequencer_main() {
  std::unique_lock lock(mutex_);
  for (;;) {
    seq_cv_.wait(lock, [&] {
      const bool collapse = stopping_ && workers_exited_ == n_workers_;
      if (pending_waits_.empty()) return collapse;
      const auto& head = *pending_waits_.begin();
      return head.second->dpm_done && (head.first == next_seq_ || collapse);
    });
    if (pending_waits_.empty()) break;
    Session& s = *pending_waits_.begin()->second;
    pending_waits_.erase(pending_waits_.begin());
    if (s.has_job) {
      // The one place virtual DPM time advances: strictly in seq order,
      // with run_multiprocessor's arithmetic (DpmVirtualClock). Followers
      // are charged here like anyone else — coalescing saved the host CAD
      // work, not the session's virtual service.
      s.entry.dpm_wait_seconds = clock_.start(s.entry.sw_seconds);
      clock_.finish(s.entry.dpm_seconds);
    }
    next_seq_ = s.seq + 1;
    s.wait_done = true;
    auto delivery = try_finalize_locked(s);
    if (delivery) {
      lock.unlock();
      deliver(std::move(delivery));
      lock.lock();
    }
  }
}

void Warpd::deadline_main() {
  std::unique_lock lock(mutex_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    std::optional<std::chrono::steady_clock::time_point> next;
    for (std::size_t i = next_claim_; i < sessions_.size(); ++i) {
      Session& s = *sessions_[i];
      if (s.claimed || !s.deadline) continue;
      if (*s.deadline <= now) {
        cancel_locked(s);
      } else if (!next || *s.deadline < *next) {
        next = *s.deadline;
      }
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
  s.has_job = false;  // the sequencer passes it without charging the clock
  s.dpm_done = true;
  s.runs_done = true;
  ++stats_.timeouts;
  seq_cv_.notify_all();
}

void Warpd::resolve_followers_locked(Session& leader, std::vector<Delivery>& out) {
  if (!leader.coalesce_key.empty()) {
    inflight_leaders_.erase(leader.coalesce_key);
    leader.coalesce_key.clear();
  }
  if (leader.followers.empty()) return;
  for (const std::size_t index : leader.followers) {
    Session& f = *sessions_[index];
    f.entry = leader.entry;
    // The sequencer assigns f's own wait at f's seq turn; the leader's
    // (possibly already-assigned) wait must not leak through the copy.
    f.entry.dpm_wait_seconds = 0.0;
    f.shard = leader.shard;
    f.has_job = leader.has_job;
    f.partitioned = leader.partitioned;
    f.dpm_done = true;
    f.runs_done = true;
    ++stats_.coalesced;
    if (auto delivery = try_finalize_locked(f)) out.push_back(std::move(*delivery));
  }
  leader.followers.clear();
  seq_cv_.notify_all();
}

std::optional<Warpd::Delivery> Warpd::try_finalize_locked(Session& s) {
  if (s.finalized || !s.runs_done || !s.wait_done) return std::nullopt;
  s.finalized = true;
  SessionOutcome out;
  out.id = s.request.id;
  out.seq = s.seq;
  out.status = s.status;
  out.error = s.message;
  out.entry = s.entry;
  out.shard = s.shard;
  out.node = options_.node_id;
  out.latency_ms = ms_since(s.admitted);
  if (s.status == protocol::ReplyStatus::kOk) {
    latencies_by_seq_[s.seq] = out.latency_ms;
  }
  ++stats_.completed;
  admission_.finished();
  s.system.reset();  // bound live memory to in-flight sessions
  done_cv_.notify_all();
  return Delivery{std::move(s.done), std::move(out)};
}

void Warpd::deliver(std::optional<Delivery> delivery) {
  if (delivery && delivery->first) delivery->first(delivery->second);
}

std::vector<SessionOutcome> run_serial(const std::vector<protocol::Request>& requests,
                                       const WarpdOptions& options) {
  const ShardRing ring(std::max(1u, options.shards),
                       std::max(1u, options.ring_points_per_shard));
  struct Row {
    bool accepted = false;
    bool has_job = false;
  };
  std::vector<SessionOutcome> outcomes(requests.size());
  std::vector<Row> rows(requests.size());

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
    out.node = options.node_id;
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
    rows[i].accepted = true;
    out.seq = request.seq ? *request.seq : implicit_seq++;
    out.entry.name = request.workload;

    const auto admitted = std::chrono::steady_clock::now();
    auto built = build_session(request, options.base);
    if (built) {
      BuiltSession b = std::move(built).value();
      out.shard = ring.owner(b.kernel_hash);
      rows[i].has_job = warpsys::profile_phase(*b.system, out.entry);
      if (rows[i].has_job) {
        const bool partitioned =
            warpsys::dpm_phase(*b.system, out.entry, options.cache, options.fault);
        warpsys::warped_phase(*b.system, out.entry, partitioned);
      }
    } else {
      out.entry.detail = built.message();
    }
    out.latency_ms = ms_since(admitted);
  }

  // Virtual DPM accounting in seq order — the engine's exact arithmetic.
  std::map<std::uint64_t, std::size_t> by_seq;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (rows[i].accepted) by_seq[outcomes[i].seq] = i;
  }
  warpsys::DpmVirtualClock clock;
  for (const auto& [seq, i] : by_seq) {
    if (!rows[i].has_job) continue;
    outcomes[i].entry.dpm_wait_seconds = clock.start(outcomes[i].entry.sw_seconds);
    clock.finish(outcomes[i].entry.dpm_seconds);
  }
  return outcomes;
}

common::Result<common::Digest> kernel_digest_for(const protocol::Request& request,
                                                 const experiments::HarnessOptions& base) {
  using R = common::Result<common::Digest>;
  const std::string err = validate_request(request);
  if (!err.empty()) return R::error(err);
  auto built = build_session(request, base);
  if (!built) return R::error(built.message());
  return built.value().kernel_hash;
}

}  // namespace warp::serve
