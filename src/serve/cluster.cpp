#include "serve/cluster.hpp"

#include <algorithm>
#include <chrono>

#include "common/strings.hpp"

namespace warp::serve {

namespace {

// Replication envelopes ride the line protocol hex-encoded; the cluster
// server's line budget must fit the largest artifact envelope (~2x bytes as
// hex) plus the op framing.
constexpr std::size_t kClusterMaxLineBytes = 8u << 20;

// Consecutive failed heartbeats before a peer is marked down.
constexpr unsigned kHeartbeatMisses = 3;
// Heartbeat jitter and link backoff seeds, folded with the node id so
// nodes do not phase-lock.
constexpr std::uint64_t kHeartbeatSeed = 0x5EED5EED5EED5EEDull;
// How long a forwarded session may take end to end before the origin gives
// up and recomputes locally. Generous: a forward that merely queues at the
// owner must not spuriously fall back.
constexpr std::uint64_t kForwardTimeoutMs = 60'000;
// Timeout for one replication/control RPC attempt.
constexpr std::uint64_t kRpcTimeoutMs = 5'000;

// The digest-relevant part of a request: workload plus the two overrides
// that enter the kernel content hash (packed_width is host-only and
// excluded by kernel_digest_for).
std::string digest_key_of(const protocol::Request& request) {
  const protocol::RequestOverrides& o = request.overrides;
  std::string key = request.workload;
  key += '|';
  key += o.max_candidates ? std::to_string(*o.max_candidates) : std::string("-");
  key += '|';
  key += o.csd_max_terms ? std::to_string(*o.csd_max_terms) : std::string("-");
  return key;
}

SessionOutcome outcome_of(const protocol::Reply& reply) {
  SessionOutcome out;
  out.id = reply.id;
  out.status = reply.status;
  out.node = reply.node;
  out.retry_after_ms = reply.retry_after_ms;
  if (reply.status == protocol::ReplyStatus::kOk) {
    out.entry = protocol::entry_of(reply);
  } else {
    out.error = reply.detail.empty() ? std::string("forwarded failure") : reply.detail;
    if (reply.status == protocol::ReplyStatus::kBusy) out.error = "busy";
  }
  return out;
}

}  // namespace

ShardRing::ShardRing(const std::vector<unsigned>& members, unsigned points_per_member) {
  points_.reserve(members.size() * points_per_member);
  for (const unsigned member : members) {
    for (unsigned point = 0; point < points_per_member; ++point) {
      common::Hasher hasher;
      hasher.str("warpd.ring").u32(member).u32(point);
      points_.emplace_back(hasher.finish().lo, member);
    }
  }
  std::sort(points_.begin(), points_.end());
}

unsigned ShardRing::owner(const common::Digest& key) const {
  if (points_.empty()) return 0;
  auto it = std::lower_bound(points_.begin(), points_.end(), std::make_pair(key.lo, 0u));
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->second;
}

// --- RemotePeer: partition::ReplicaPeer over the replication ops -----------

class ClusterNode::RemotePeer : public partition::ReplicaPeer {
 public:
  RemotePeer(ClusterNode* node, Peer* peer) : node_(node), peer_(peer) {}

  std::string name() const override { return "node" + std::to_string(peer_->id); }

  bool alive() override { return node_->peer_live(*peer_); }

  bool push(const std::string& name, const std::vector<std::uint8_t>& envelope) override {
    const std::string hex = protocol::hex_encode(std::string_view(
        reinterpret_cast<const char*>(envelope.data()), envelope.size()));
    auto reply = node_->rpc(*peer_, "sput name=" + name + " env=" + hex, kRpcTimeoutMs);
    return reply && common::starts_with(reply.value(), "sok");
  }

  std::optional<std::vector<std::uint8_t>> fetch(const std::string& name) override {
    auto reply = node_->rpc(*peer_, "sget name=" + name, kRpcTimeoutMs);
    if (!reply || !common::starts_with(reply.value(), "sok")) return std::nullopt;
    const std::string& line = reply.value();
    const std::size_t pos = line.find(" env=");
    if (pos == std::string::npos) return std::nullopt;
    auto bytes = protocol::hex_decode(std::string_view(line).substr(pos + 5));
    if (!bytes) return std::nullopt;
    const std::string& raw = bytes.value();
    return std::vector<std::uint8_t>(raw.begin(), raw.end());
  }

  std::optional<std::vector<std::string>> list() override {
    auto reply = node_->rpc(*peer_, "slist", kRpcTimeoutMs);
    if (!reply || !common::starts_with(reply.value(), "sok")) return std::nullopt;
    const std::string& line = reply.value();
    const std::size_t pos = line.find(" names=");
    if (pos == std::string::npos) return std::nullopt;
    std::vector<std::string> names;
    for (const auto name : common::split(std::string_view(line).substr(pos + 7), ",")) {
      if (!name.empty()) names.emplace_back(name);
    }
    return names;
  }

 private:
  ClusterNode* node_;
  Peer* peer_;
};

// --- ClusterNode ------------------------------------------------------------

ClusterNode::ClusterNode(ClusterOptions options)
    : options_(std::move(options)),
      hb_rng_(kHeartbeatSeed ^ (0x9E3779B97F4A7C15ull * (options_.node_id + 1))),
      backoff_(kHeartbeatSeed + options_.node_id) {
  for (unsigned id = 0; id < options_.members.size(); ++id) {
    if (id == options_.node_id) continue;
    auto peer = std::make_unique<Peer>();
    peer->id = id;
    peer->spec = options_.members[id];
    peers_.push_back(std::move(peer));
  }
}

ClusterNode::~ClusterNode() { stop(); }

common::Status ClusterNode::start() {
  if (options_.node_id >= options_.members.size()) {
    return common::Status::error("node_id outside members");
  }
  if (options_.store != nullptr) {
    for (const auto& peer : peers_) {
      replica_peers_.push_back(std::make_unique<RemotePeer>(this, peer.get()));
    }
    std::vector<partition::ReplicaPeer*> replica_ptrs;
    for (const auto& rp : replica_peers_) replica_ptrs.push_back(rp.get());
    replicated_ = std::make_unique<partition::ReplicatedStore>(options_.store,
                                                               std::move(replica_ptrs));
    if (options_.cache != nullptr) options_.cache->attach_store(replicated_.get());
  }

  SocketServerOptions server_options = options_.server;
  server_options.path = options_.members[options_.node_id];
  server_options.engine.node_id = options_.node_id;
  server_options.engine.cache = options_.cache;
  server_options.max_line_bytes = std::max(server_options.max_line_bytes,
                                           kClusterMaxLineBytes);
  server_options.route = [this](const protocol::Request& request, Warpd::Callback done) {
    route(request, std::move(done));
  };
  server_options.control = [this](std::string_view line) { return control(line); };
  server_options.extra_stats = [this] { return extra_stats(); };
  server_ = std::make_unique<SocketServer>(std::move(server_options));
  if (const auto status = server_->start(); !status) {
    server_.reset();
    return status;
  }
  started_ = true;
  heartbeat_thread_ = std::thread([this] { heartbeat_main(); });
  return common::Status::ok();
}

void ClusterNode::stop() {
  if (!started_) return;
  closing_.store(true);
  {
    std::lock_guard<std::mutex> lock(hb_mutex_);
    hb_cv_.notify_all();
  }
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (server_) server_->stop();
  // The cache outlives this node; point it back at the plain local store so
  // later lookups never touch the dead replication machinery.
  if (options_.cache != nullptr && replicated_ != nullptr) {
    options_.cache->attach_store(options_.store);
  }
  started_ = false;
}

void ClusterNode::drain() {
  if (server_) server_->drain();
}

ClusterNodeStats ClusterNode::stats() const {
  ClusterNodeStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats = stats_;
  }
  stats.peers_total = peers_.size();
  stats.peers_up = 0;
  for (const auto& peer : peers_) {
    if (peer_live(*peer)) ++stats.peers_up;
  }
  return stats;
}

unsigned ClusterNode::owner_of(const common::Digest& digest) const {
  std::vector<unsigned> live{options_.node_id};
  for (const auto& peer : peers_) {
    if (peer_live(*peer)) live.push_back(peer->id);
  }
  std::sort(live.begin(), live.end());
  return ShardRing(live).owner(digest);
}

std::optional<common::Digest> ClusterNode::digest_for(const protocol::Request& request) {
  const std::string key = digest_key_of(request);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = digests_.find(key);
    if (it != digests_.end()) return it->second;
  }
  auto digest = kernel_digest_for(request, options_.server.engine.base);
  if (!digest) return std::nullopt;  // invalid request: let submit reject it
  std::lock_guard<std::mutex> lock(mutex_);
  digests_.emplace(key, digest.value());
  return digest.value();
}

void ClusterNode::route(const protocol::Request& request, Warpd::Callback done) {
  if (request.forwarded_from) {
    // Already routed by its origin: execute here unconditionally. A stale
    // ring view on the origin can misplace a session (results are identical
    // anywhere); it can never loop one.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.forwarded_in;
    }
    server_->engine().submit(request, std::move(done));
    return;
  }
  const auto digest = digest_for(request);
  if (!digest) {
    server_->engine().submit(request, std::move(done));  // delivers the kErr
    return;
  }
  const unsigned owner = owner_of(*digest);
  if (owner == options_.node_id) {
    server_->engine().submit(request, std::move(done));
    return;
  }
  Peer* peer = nullptr;
  for (const auto& p : peers_) {
    if (p->id == owner) peer = p.get();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.forwards;
  }
  if (peer != nullptr) {
    if (auto reply = forward(*peer, request)) {
      done(outcome_of(*reply));
      return;
    }
    // Link failure mid-forward: the peer is suspect *now*; do not wait for
    // the heartbeat to notice. One successful ping revives it.
    mark_down(*peer);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.forward_failures;
    ++stats_.local_fallbacks;
  }
  // Software fallback, cluster edition: the session runs on the local
  // pipeline. Pure result fields are deterministic, so the client cannot
  // tell (only node= and this node's wait chain reflect the reroute).
  server_->engine().submit(request, std::move(done));
}

std::optional<protocol::Reply> ClusterNode::forward(Peer& peer,
                                                    const protocol::Request& request) {
  protocol::Request tagged = request;
  tagged.forwarded_from = options_.node_id;
  const std::string line = protocol::encode_request(tagged);

  // Only the connect is retried: nothing has reached the owner yet.
  Client client;
  const bool connected = common::retry(backoff_, [&] {
    return !common::injected(options_.fault, "cluster.connect") && client.connect(peer.spec)
               ? common::Attempt::kDone
               : common::Attempt::kRetry;
  });
  if (!connected) return std::nullopt;
  simulate_slow(peer);
  // At-most-once from here: once the request line may have reached the
  // owner, a retransmit could admit the session twice and double-charge the
  // owner's virtual clock. Any failure below is a link failure — the caller
  // recomputes locally and the (possibly completed) remote session's reply
  // dies with this connection.
  if (common::injected(options_.fault, "cluster.write")) return std::nullopt;
  if (!client.send_line(line)) return std::nullopt;
  if (common::injected(options_.fault, "cluster.read")) return std::nullopt;
  auto reply_line = client.read_line_for(kForwardTimeoutMs);
  if (!reply_line) return std::nullopt;
  auto reply = protocol::parse_reply(reply_line.value());
  if (!reply) return std::nullopt;
  return reply.value();
}

common::Result<std::string> ClusterNode::rpc(Peer& peer, const std::string& line,
                                             std::uint64_t timeout_ms, int attempts) {
  using R = common::Result<std::string>;
  if (closing_.load()) return R::error("closing");
  std::string reply;
  // Idempotent: every attempt is a fresh connection and a full exchange.
  const bool answered = common::retry(
      backoff_,
      [&] {
        if (common::injected(options_.fault, "cluster.connect")) return common::Attempt::kRetry;
        Client client;
        if (!client.connect(peer.spec)) return common::Attempt::kRetry;
        simulate_slow(peer);
        if (common::injected(options_.fault, "cluster.write") || !client.send_line(line) ||
            common::injected(options_.fault, "cluster.read")) {
          return common::Attempt::kRetry;
        }
        auto got = client.read_line_for(timeout_ms);
        if (!got) return common::Attempt::kRetry;
        reply = std::move(got).value();
        return common::Attempt::kDone;
      },
      attempts);
  if (!answered) return R::error("peer unreachable: " + peer.spec);
  return reply;
}

void ClusterNode::mark_down(Peer& peer) {
  peer.missed.store(kHeartbeatMisses);
  peer.alive.store(false);
}

void ClusterNode::simulate_slow(const Peer& peer) {
  const std::uint64_t delay = peer.slow_ms.load();
  if (delay != 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

void ClusterNode::heartbeat_main() {
  while (!closing_.load()) {
    std::uint64_t sleep_ms;
    {
      std::lock_guard<std::mutex> lock(hb_mutex_);
      const std::uint64_t jitter_bound = options_.heartbeat_ms / 4 + 1;
      sleep_ms = options_.heartbeat_ms + hb_rng_.next_u64() % jitter_bound;
    }
    {
      std::unique_lock<std::mutex> lock(hb_mutex_);
      hb_cv_.wait_for(lock, std::chrono::milliseconds(sleep_ms),
                      [this] { return closing_.load(); });
    }
    if (closing_.load()) break;
    for (const auto& peer : peers_) {
      if (peer->admin_down.load()) {
        // Simulated partition: no probe traffic crosses it; the peer stays
        // down until peer_up lifts the partition.
        peer->alive.store(false);
        continue;
      }
      // Two attempts per ping: a transient-schedule injector (max_consecutive
      // 2) can eat one attempt per site, and a single-attempt ping would turn
      // that into spurious peer flapping; a genuinely dead peer still fails
      // both attempts immediately.
      const auto reply =
          rpc(*peer, "ping", std::max<std::uint64_t>(1, options_.heartbeat_ms * 2), 2);
      if (reply && reply.value() == "pong") {
        peer->missed.store(0);
        peer->alive.store(true);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.heartbeats;
      } else {
        const unsigned missed = peer->missed.load() + 1;
        peer->missed.store(missed);
        if (missed >= kHeartbeatMisses) peer->alive.store(false);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.heartbeat_failures;
      }
    }
  }
}

std::optional<std::string> ClusterNode::control(std::string_view line) {
  const auto tokens = common::split(line, " \t");
  if (tokens.empty()) return std::nullopt;
  const std::string_view verb = tokens[0];

  auto token_value = [&](std::string_view key) -> std::optional<std::string_view> {
    const std::string prefix = std::string(key) + "=";
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      if (common::starts_with(tokens[t], prefix)) return tokens[t].substr(prefix.size());
    }
    return std::nullopt;
  };
  auto peer_by_id = [&]() -> Peer* {
    const auto value = token_value("id");
    long long id = -1;
    if (!value || !common::parse_int(*value, id)) return nullptr;
    for (const auto& peer : peers_) {
      if (peer->id == static_cast<unsigned>(id)) return peer.get();
    }
    return nullptr;
  };

  if (verb == "peer_down" || verb == "peer_up") {
    Peer* peer = peer_by_id();
    if (peer == nullptr) return "serr msg=unknown peer id";
    const bool down = verb == "peer_down";
    peer->admin_down.store(down);
    if (down) {
      peer->alive.store(false);
    } else {
      // Lifting the partition: optimistically live again; a real failure
      // resurfaces on the next forward or heartbeat.
      peer->missed.store(0);
      peer->alive.store(true);
    }
    return common::format("peer id=%u admin=%s", peer->id, down ? "down" : "up");
  }
  if (verb == "peer_slow") {
    Peer* peer = peer_by_id();
    if (peer == nullptr) return "serr msg=unknown peer id";
    const auto value = token_value("ms");
    long long ms = -1;
    if (!value || !common::parse_int(*value, ms) || ms < 0 || ms > 600'000) {
      return "serr msg=bad ms";
    }
    peer->slow_ms.store(static_cast<std::uint64_t>(ms));
    return common::format("peer id=%u slow_ms=%llu", peer->id,
                          static_cast<unsigned long long>(ms));
  }

  if (options_.store == nullptr) return std::nullopt;
  if (verb == "sput") {
    const auto name = token_value("name");
    const auto hex = token_value("env");
    if (!name || !hex) return "serr msg=sput wants name= and env=";
    auto bytes = protocol::hex_decode(*hex);
    if (!bytes) return "serr msg=bad hex";
    const std::string& raw = bytes.value();
    if (!options_.store->import_raw(std::string(*name),
                                    std::vector<std::uint8_t>(raw.begin(), raw.end()))) {
      return "serr msg=envelope rejected";
    }
    return "sok name=" + std::string(*name);
  }
  if (verb == "sget") {
    const auto name = token_value("name");
    if (!name) return "serr msg=sget wants name=";
    const auto envelope = options_.store->export_raw(std::string(*name));
    if (!envelope) return "serr msg=not found";
    return "sok name=" + std::string(*name) + " env=" +
           protocol::hex_encode(std::string_view(
               reinterpret_cast<const char*>(envelope->data()), envelope->size()));
  }
  if (verb == "slist") {
    std::string names;
    for (const std::string& name : options_.store->list_names()) {
      if (!names.empty()) names += ',';
      names += name;
    }
    return "sok names=" + names;
  }
  if (verb == "repair") {
    if (replicated_ == nullptr) return "serr msg=replication disabled";
    replicated_->repair();
    const partition::ReplicatedStoreStats stats = replicated_->stats();
    return common::format("sok pulled=%llu pushed=%llu rounds=%llu",
                          static_cast<unsigned long long>(stats.repairs_pulled),
                          static_cast<unsigned long long>(stats.repairs_pushed),
                          static_cast<unsigned long long>(stats.repair_rounds));
  }
  return std::nullopt;
}

std::string ClusterNode::extra_stats() {
  const ClusterNodeStats stats = this->stats();
  std::string line = common::format(
      "node=%u forwards=%llu forward_failures=%llu local_fallbacks=%llu "
      "forwarded_in=%llu heartbeats=%llu heartbeat_failures=%llu "
      "peers_up=%llu peers_total=%llu",
      options_.node_id, static_cast<unsigned long long>(stats.forwards),
      static_cast<unsigned long long>(stats.forward_failures),
      static_cast<unsigned long long>(stats.local_fallbacks),
      static_cast<unsigned long long>(stats.forwarded_in),
      static_cast<unsigned long long>(stats.heartbeats),
      static_cast<unsigned long long>(stats.heartbeat_failures),
      static_cast<unsigned long long>(stats.peers_up),
      static_cast<unsigned long long>(stats.peers_total));
  if (replicated_ != nullptr) {
    const partition::ReplicatedStoreStats r = replicated_->stats();
    line += common::format(
        " repl.pushes=%llu repl.push_failures=%llu repl.pulls=%llu "
        "repl.pull_hits=%llu repl.pull_rejects=%llu repl.repairs_pulled=%llu "
        "repl.repairs_pushed=%llu repl.repair_rounds=%llu",
        static_cast<unsigned long long>(r.pushes),
        static_cast<unsigned long long>(r.push_failures),
        static_cast<unsigned long long>(r.pulls),
        static_cast<unsigned long long>(r.pull_hits),
        static_cast<unsigned long long>(r.pull_rejects),
        static_cast<unsigned long long>(r.repairs_pulled),
        static_cast<unsigned long long>(r.repairs_pushed),
        static_cast<unsigned long long>(r.repair_rounds));
  }
  if (options_.store != nullptr) {
    const partition::DiskStoreStats d = options_.store->stats();
    line += common::format(
        " store.files=%llu store.quarantined=%llu store.put_failures=%llu",
        static_cast<unsigned long long>(d.files),
        static_cast<unsigned long long>(d.quarantined),
        static_cast<unsigned long long>(d.put_failures));
  }
  return line;
}

}  // namespace warp::serve
