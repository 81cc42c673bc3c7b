// Multi-host warpd cluster: ShardRing session routing + store replication.
//
// A ClusterNode wraps one SocketServer with the cluster hooks (server.hpp):
//
//   routing     every client "warp" request is keyed by its kernel content
//               hash (kernel_digest_for, warpd.hpp) and routed on a
//               ShardRing over the *live* member ids. The owner executes it;
//               any other node forwards it over a fresh connection, tagging
//               the request fwd=<origin> so the owner always executes
//               locally — a stale ring view can bounce a session at most
//               once, never loop it. Repeats of one kernel thus land on one
//               node's one DPM thread: cluster-wide, each unique kernel is
//               computed once and every repeat is a cache hit.
//   failover    peers are health-checked by a heartbeat thread (fresh-
//               connection pings of two attempts each on a seeded-
//               deterministic jittered period; 3 consecutive failed pings
//               mark a peer down, one success revives it). A down peer
//               leaves the ring — the membership ShardRing reassigns only
//               the ranges its points owned (smooth resharding). A forward that fails or times
//               out marks the peer down immediately and falls back to
//               executing the session on the local pipeline, so every
//               accepted session completes (the paper's software-fallback
//               guarantee, lifted to cluster scope).
//   replication the node's DiskArtifactStore is wrapped in a
//               partition::ReplicatedStore whose peers speak the line
//               protocol's replication ops (sput/sget/slist); the "repair"
//               control op runs an anti-entropy round. Envelopes are hex-
//               encoded on the wire and re-validated outside-in on receipt,
//               so a corrupted replica is quarantined and never poisons a
//               peer.
//
// Determinism: each node keeps its own sequencer and virtual DPM clock, so
// each node's accepted subsequence is bit-identical to run_serial over that
// subsequence; ok replies carry node= so clients can group replies by
// admitting node and replay each node's wait chain independently. The
// *pure* result fields (everything but dpm_wait_seconds) are node-
// independent — the pipeline is deterministic — so per-session bit-identity
// against the serial reference holds wherever a session lands, including
// after a mid-chaos local fallback.
//
// Delivery semantics: forwarding is at-most-once after send — a reply lost
// to a link fault is NOT retransmitted (that could double-charge the
// owner's virtual clock); the origin marks the peer down and recomputes
// locally. Only the forward's connect is retried. The client still sees
// exactly one reply per request. Replication and control ops are idempotent
// and run under common::retry (common/retry.hpp), the store's and server's
// discipline: common::kRetryAttempts attempts with jittered exponential
// backoff. Fault sites on every peer link: "cluster.connect",
// "cluster.write", "cluster.read" (kIoError); their counts are the stats
// op's fault.<site>= fields.
//
// Partition/slow-link simulation (what the chaos harness drives): the
// control ops "peer_down id=N" / "peer_up id=N" make this node treat peer N
// as partitioned (no forwards, no replication, no heartbeats — applied on
// both sides for a symmetric partition), and "peer_slow id=N ms=M" delays
// every operation on that link by M host milliseconds.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "partition/replicated_store.hpp"
#include "serve/server.hpp"

namespace warp::serve {

/// Consistent-hash ring mapping kernel content hashes to cluster members.
/// Each member contributes `points_per_member` ring points, hashed per
/// (member id, point); a key is owned by the first point at or after it
/// (wrapping). For a fixed member set the mapping is a pure function of the
/// key, identical on every host, and removing a member only reassigns the
/// ranges its own points covered — every other key keeps its owner (the
/// smooth-resharding property, tests/shard_ring_test.cpp).
class ShardRing {
 public:
  explicit ShardRing(const std::vector<unsigned>& members, unsigned points_per_member = 16);
  /// The owning member id (NOT an index into members). Returns 0 on an
  /// empty ring so callers need no special case.
  unsigned owner(const common::Digest& key) const;

 private:
  std::vector<std::pair<std::uint64_t, unsigned>> points_;  // sorted by .first
};

struct ClusterOptions {
  /// This node's id — an index into `members`.
  std::uint32_t node_id = 0;
  /// Endpoint spec per node id, cluster-wide and identical on every node;
  /// members[node_id] is the endpoint this node serves.
  std::vector<std::string> members;
  /// The wrapped server/engine configuration. `path`, the cluster hooks and
  /// `engine.node_id` are overwritten by start(); `engine.cache` should be
  /// `cache` below. max_line_bytes is raised to fit replication envelopes.
  SocketServerOptions server;
  /// The artifact cache the engine uses (not owned; may be null). start()
  /// re-attaches it to the ReplicatedStore wrapping `store`.
  partition::ArtifactCache* cache = nullptr;
  /// This node's local disk store (not owned; may be null to disable
  /// replication).
  partition::DiskArtifactStore* store = nullptr;
  /// Injector for the cluster.* peer-link sites (not owned; may be null).
  common::FaultInjector* fault = nullptr;
  /// Heartbeat period; each cycle sleeps period + seeded jitter in
  /// [0, period/4].
  std::uint64_t heartbeat_ms = 100;
};

struct ClusterNodeStats {
  std::uint64_t forwards = 0;          // sessions sent to their ring owner
  std::uint64_t forward_failures = 0;  // forwards that died on the link
  std::uint64_t local_fallbacks = 0;   // failed forwards recomputed locally
  std::uint64_t forwarded_in = 0;      // fwd=-tagged sessions executed here
  std::uint64_t heartbeats = 0;        // pings answered "pong"
  std::uint64_t heartbeat_failures = 0;
  std::uint64_t peers_up = 0;          // live peers right now
  std::uint64_t peers_total = 0;
};

class ClusterNode {
 public:
  explicit ClusterNode(ClusterOptions options);
  ~ClusterNode();
  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Wire the hooks, attach the replicated store, start the server and the
  /// heartbeat thread.
  common::Status start();

  /// Stop heartbeats, detach the replicated store (the cache falls back to
  /// the plain local store) and stop the server. Idempotent.
  void stop();

  /// Graceful drain of the wrapped server (in-flight sessions finish).
  void drain();

  SocketServer& server() { return *server_; }
  /// The bound TCP port (resolves a tcp:...:0 member spec).
  std::uint16_t port() const { return server_->port(); }
  ClusterNodeStats stats() const;
  partition::ReplicatedStore* replicated() { return replicated_.get(); }

 private:
  struct Peer {
    unsigned id = 0;
    std::string spec;
    std::atomic<bool> alive{true};
    std::atomic<bool> admin_down{false};   // simulated partition
    std::atomic<std::uint64_t> slow_ms{0}; // simulated slow link
    std::atomic<unsigned> missed{0};       // consecutive failed heartbeats
  };
  class RemotePeer;  // ReplicaPeer over the replication ops

  void route(const protocol::Request& request, Warpd::Callback done);
  std::optional<std::string> control(std::string_view line);
  std::string extra_stats();
  void heartbeat_main();

  bool peer_live(const Peer& peer) const {
    return peer.alive.load() && !peer.admin_down.load();
  }
  /// The live-member ring owner for a kernel digest.
  unsigned owner_of(const common::Digest& digest) const;
  /// Kernel digest for a request, memoized per digest-relevant override key.
  std::optional<common::Digest> digest_for(const protocol::Request& request);
  /// Forward one session to `peer`; nullopt = link failure (caller marks
  /// the peer down and falls back). At-most-once after send.
  std::optional<protocol::Reply> forward(Peer& peer, const protocol::Request& request);
  /// One idempotent request/reply exchange with bounded retries
  /// (heartbeats use two attempts, so one transient injected fault cannot
  /// flap a live peer).
  common::Result<std::string> rpc(Peer& peer, const std::string& line,
                                  std::uint64_t timeout_ms,
                                  int attempts = common::kRetryAttempts);
  void mark_down(Peer& peer);
  void simulate_slow(const Peer& peer);

  ClusterOptions options_;
  std::vector<std::unique_ptr<Peer>> peers_;  // every member but this node
  std::vector<std::unique_ptr<RemotePeer>> replica_peers_;
  std::unique_ptr<partition::ReplicatedStore> replicated_;

  std::atomic<bool> closing_{false};
  bool started_ = false;
  std::mutex hb_mutex_;               // guards hb_cv_ sleeps and hb_rng_
  std::condition_variable hb_cv_;
  common::Rng hb_rng_;
  std::thread heartbeat_thread_;

  mutable std::mutex mutex_;  // guards stats_, digests_
  ClusterNodeStats stats_;
  std::map<std::string, common::Digest> digests_;
  common::Backoff backoff_;

  std::unique_ptr<SocketServer> server_;  // declared last: destroyed first
};

}  // namespace warp::serve
