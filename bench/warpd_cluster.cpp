// warpd_cluster: multi-host partition-tolerance chaos harness for the
// warpd cluster layer (serve/cluster.hpp).
//
// The driver spawns 2-4 real ClusterNode processes (hidden --node mode of
// this same binary) on auto-assigned loopback TCP ports, streams sessions
// at chosen nodes over the unchanged line protocol, and attacks the
// cluster with the full fault menu while holding the paper's transparency
// contract: every accepted session completes, bit-identical to the serial
// engine, no matter which node ends up executing it.
//
// Run set:
//   forward    3 clean nodes, all client traffic at node 0: sessions whose
//              kernel hashes to a peer must be forwarded there (forwards ==
//              forwarded_in, zero failures), every artifact must replicate
//              to every node (slist sets equal), and each node's wait chain
//              must replay exactly through its own virtual DPM clock;
//   failover   transient cluster/store/serve fault schedules armed from
//              --fault-seed; a peer that owns live kernels is SIGKILLed
//              mid-stream. Forwards to the dead node must fall back to the
//              local pipeline (local_fallbacks > 0) and every session must
//              still land bit-identically — zero failed sessions;
//   partition  a symmetric simulated partition (peer_down on both sides)
//              isolates one replica while a slow link (peer_slow) delays
//              another; traffic keeps completing via smooth resharding, the
//              isolated replica misses the new artifacts, and healing +
//              "repair" anti-entropy rounds must reconverge every slist.
//              The isolated node is then SIGKILLed, every artifact in its
//              store is bit-flipped on disk, and it is respawned: serving
//              its own kernels must quarantine the damage and re-pull valid
//              envelopes from peers (pull-on-miss), after which a final
//              repair round converges the cluster again.
//
// Verification is reply-table-only, as in warpd_load: pure result fields
// are checked bit for bit against run_serial references, and ok replies
// are grouped by their node= field so each node incarnation's wait chain
// replays through a DpmVirtualClock (exact for clean runs, a lower bound
// once forwarded replies can be lost to chaos).
//
// Emits BENCH_warpd_cluster.json (schema in docs/benchmarks.md). --check
// runs the same gates and writes no JSON — the CI cluster-soak job wraps
// `warpd_cluster --check --fault-seed S` in a hard timeout.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fault_injector.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "partition/disk_store.hpp"
#include "serve/cluster.hpp"
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

// --- hidden --node mode ------------------------------------------------------

volatile std::sig_atomic_t g_sigterm = 0;
void on_sigterm(int) { g_sigterm = 1; }

struct NodeArgs {
  unsigned id = 0;
  std::string members;  // comma-joined endpoint specs, indexed by node id
  std::string store_dir;
  std::optional<std::uint64_t> fault_seed;  // transient_sweep profile
  std::uint64_t hb_ms = 100;
};

// The child process: one ClusterNode supervised by a 50ms poll loop, same
// contract as warpd_load's daemon — SIGTERM or a remote "drain" op ends the
// loop, drain finishes in-flight sessions, exit 0 is the graceful-shutdown
// contract the driver asserts.
int run_node(const NodeArgs& args) {
  std::signal(SIGTERM, on_sigterm);
  std::vector<std::string> members;
  for (const auto spec : common::split(args.members, ",")) members.emplace_back(spec);
  std::optional<common::FaultInjector> fault;
  if (args.fault_seed) {
    fault.emplace(common::FaultConfig::transient_sweep(*args.fault_seed));
  }
  partition::DiskArtifactStore store(partition::DiskStoreOptions{
      .directory = args.store_dir, .fault = fault ? &*fault : nullptr});
  partition::ArtifactCache cache;
  serve::ClusterOptions options;
  options.node_id = args.id;
  options.members = members;
  options.server.engine.workers = 2;
  options.server.engine.base = experiments::default_options();
  options.server.engine.fault = fault ? &*fault : nullptr;
  options.server.fault = fault ? &*fault : nullptr;
  options.cache = &cache;
  options.store = &store;
  options.fault = fault ? &*fault : nullptr;
  options.heartbeat_ms = args.hb_ms;
  serve::ClusterNode node(std::move(options));
  if (const auto status = node.start(); !status) {
    std::fprintf(stderr, "warpd_cluster --node %u: %s\n", args.id,
                 status.message().c_str());
    return 1;
  }
  while (!g_sigterm && !node.server().drain_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  node.drain();
  node.stop();
  return 0;
}

// --- node supervision from the driver ---------------------------------------

struct NodeProc {
  unsigned id = 0;
  std::string spec;       // tcp:127.0.0.1:<port>
  std::string store_dir;
  std::optional<std::uint64_t> fault_seed;
  std::uint64_t hb_ms = 100;
  pid_t pid = -1;
  unsigned incarnation = 0;
};

// Reserve a free loopback port by binding port 0 and reading it back. The
// close() leaves a tiny reuse race; the spawn readiness probe turns a lost
// race into a visible startup failure instead of a hang.
std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "socket failed: %s\n", std::strerror(errno));
    std::exit(1);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "bind failed: %s\n", std::strerror(errno));
    std::exit(1);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    std::fprintf(stderr, "getsockname failed: %s\n", std::strerror(errno));
    std::exit(1);
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

void spawn_node(NodeProc& node, const std::string& members) {
  std::vector<std::string> argv = {"--node",         "--id",    std::to_string(node.id),
                                   "--members",      members,   "--store",
                                   node.store_dir,   "--hb-ms", std::to_string(node.hb_ms)};
  if (node.fault_seed) {
    argv.push_back("--fault-seed");
    argv.push_back(std::to_string(*node.fault_seed));
  }
  node.pid = spawn_self(argv, node.spec, common::format("node %u", node.id));
}

// --- request set and serial references --------------------------------------

// 9 distinct cheap kernels. The first 6 (3 workloads x max_candidates
// {2,3}) are the base mix every phase cycles through; the last 3 are
// *different workloads* that appear only inside the simulated partition —
// a new program guarantees new input digests (hence new artifact names) at
// every pipeline stage, so the isolated replica verifiably misses their
// artifacts until repair.
constexpr std::size_t kBaseKeys = 6;
constexpr std::size_t kAllKeys = 9;

Request make_key_request(std::size_t key_index) {
  static const char* kBase[] = {"brev", "crc", "fir"};
  static const char* kExtra[] = {"g3fax", "canrdr", "bitmnp"};
  Request request;
  if (key_index < kBaseKeys) {
    request.workload = kBase[key_index % 3];
    request.overrides.max_candidates = 2 + static_cast<int>(key_index / 3);
  } else {
    request.workload = kExtra[key_index - kBaseKeys];
    request.overrides.max_candidates = 2;
  }
  return request;
}

// The ring owner per key on the full healthy membership {0,1,2} — the same
// digest + ShardRing the nodes route by, computed in-process so the driver
// can pick a victim that provably owns live kernels. Deterministic: the
// digests depend only on the assembled kernels, never on seeds or hosts.
std::vector<unsigned> owners_of_keys(unsigned nodes) {
  const auto base = experiments::default_options();
  std::vector<unsigned> members;
  for (unsigned id = 0; id < nodes; ++id) members.push_back(id);
  const serve::ShardRing ring(members);
  std::vector<unsigned> owners;
  for (std::size_t k = 0; k < kAllKeys; ++k) {
    const auto digest = serve::kernel_digest_for(make_key_request(k), base);
    if (!digest) {
      std::fprintf(stderr, "kernel digest failed for key %zu: %s\n", k,
                   digest.message().c_str());
      std::exit(1);
    }
    owners.push_back(ring.owner(digest.value()));
  }
  return owners;
}

// --- one client phase --------------------------------------------------------

// (wait_s, dpm_s) ok replies grouped per (node id, incarnation): one chain
// per virtual-clock lifetime.
using ChainMap = std::map<std::pair<unsigned, unsigned>, std::vector<std::pair<double, double>>>;

struct KillPlan {
  pid_t pid = -1;
  std::uint64_t after_ok = 0;  // 0 = no kill
  bool fired = false;
};

// Stream `requests` pipelined over one connection to `spec` and read until
// every id is terminal. Busy replies (possible only under injected admit
// faults here — no caps are set) honor their retry_after_ms hint plus a
// seeded jitter so retries never storm in lockstep. Returns false on any
// deviation from the serial reference or any failed session.
bool run_phase(const char* label, const std::string& spec,
               const std::vector<Request>& requests,
               const std::map<std::string, warpsys::MultiWarpEntry>& references,
               const std::vector<unsigned>& incarnations, ChainMap& chains,
               common::Rng& rng, std::uint64_t& ok_count, std::uint64_t& busy_retries,
               KillPlan* kill_plan = nullptr) {
  constexpr int kMaxBusyRetries = 200;
  constexpr std::uint64_t kMaxRetrySleepMs = 250;
  serve::Client client;
  if (const auto status = client.connect(spec); !status) {
    std::printf("  FAIL %s: connect %s: %s\n", label, spec.c_str(),
                status.message().c_str());
    return false;
  }
  std::map<std::uint64_t, const Request*> open;
  for (const auto& request : requests) {
    if (const auto status = client.send_line(serve::protocol::encode_request(request));
        !status) {
      std::printf("  FAIL %s: send: %s\n", label, status.message().c_str());
      return false;
    }
    open.emplace(request.id, &request);
  }
  std::map<std::uint64_t, int> busy_seen;
  bool ok_all = true;
  while (!open.empty()) {
    auto line = client.read_line_for(120'000);
    if (!line) {
      std::printf("  FAIL %s: reply stream died with %zu sessions open: %s\n", label,
                  open.size(), line.message().c_str());
      return false;
    }
    auto parsed = serve::protocol::parse_reply(line.value());
    if (!parsed) {
      std::printf("  FAIL %s: unparseable reply '%s': %s\n", label, line.value().c_str(),
                  parsed.message().c_str());
      return false;
    }
    const auto& reply = parsed.value();
    const auto it = open.find(reply.id);
    if (it == open.end()) {
      std::printf("  FAIL %s: reply for unknown id %llu\n", label,
                  static_cast<unsigned long long>(reply.id));
      ok_all = false;
      continue;
    }
    switch (reply.status) {
      case serve::protocol::ReplyStatus::kOk: {
        const auto& reference = references.at(key_of(*it->second));
        if (!pure_fields_match(serve::protocol::entry_of(reply), reference)) {
          std::printf("  FAIL %s: id=%llu (node %u) deviates from the serial reference\n",
                      label, static_cast<unsigned long long>(reply.id), reply.node);
          ok_all = false;
        }
        if (reply.node < incarnations.size()) {
          chains[{reply.node, incarnations[reply.node]}].emplace_back(
              reply.dpm_wait_seconds, reply.dpm_seconds);
        } else {
          std::printf("  FAIL %s: id=%llu carries unknown node=%u\n", label,
                      static_cast<unsigned long long>(reply.id), reply.node);
          ok_all = false;
        }
        open.erase(it);
        ++ok_count;
        if (kill_plan != nullptr && kill_plan->after_ok != 0 && !kill_plan->fired &&
            ok_count >= kill_plan->after_ok) {
          ::kill(kill_plan->pid, SIGKILL);
          kill_plan->fired = true;
        }
        break;
      }
      case serve::protocol::ReplyStatus::kBusy: {
        ++busy_retries;
        if (++busy_seen[reply.id] > kMaxBusyRetries) {
          std::printf("  FAIL %s: id=%llu gave up after %d busy retries\n", label,
                      static_cast<unsigned long long>(reply.id), kMaxBusyRetries);
          ok_all = false;
          open.erase(it);
          break;
        }
        const std::uint64_t base_ms = std::min(reply.retry_after_ms, kMaxRetrySleepMs);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(base_ms + rng.next_u64() % (base_ms + 1)));
        if (const auto status =
                client.send_line(serve::protocol::encode_request(*it->second));
            !status) {
          std::printf("  FAIL %s: busy resend: %s\n", label, status.message().c_str());
          return false;
        }
        break;
      }
      case serve::protocol::ReplyStatus::kTimeout:
      case serve::protocol::ReplyStatus::kErr:
        std::printf("  FAIL %s: id=%llu failed: %s\n", label,
                    static_cast<unsigned long long>(reply.id), reply.detail.c_str());
        ok_all = false;
        open.erase(it);
        break;
    }
  }
  return ok_all;
}

// One wait-chain replay per node incarnation: exact when every ok reply of
// the incarnation was observed, a lower bound once chaos can eat forwarded
// replies (a locally-recomputed session's remote twin still charged the
// remote clock).
bool verify_chains(const ChainMap& chains, bool exact, const char* run_label) {
  bool ok = true;
  for (const auto& [key, chain] : chains) {
    const std::string label =
        common::format("%s node%u inc%u", run_label, key.first, key.second);
    ok = verify_wait_chain(chain, exact, label) && ok;
  }
  return ok;
}

// --- control-plane helpers ---------------------------------------------------

std::set<std::string> slist_of(const std::string& spec) {
  const std::string reply = control_rpc(spec, "slist");
  std::set<std::string> names;
  const std::size_t pos = reply.find(" names=");
  if (!common::starts_with(reply, "sok") || pos == std::string::npos) return names;
  for (const auto name : common::split(std::string_view(reply).substr(pos + 7), ",")) {
    if (!name.empty()) names.emplace(name);
  }
  return names;
}

bool drain_node(NodeProc& node, const char* run_label) {
  const std::string ack = control_rpc(node.spec, "drain");
  if (ack != "draining") {
    std::printf("  FAIL %s: node %u did not acknowledge drain\n", run_label, node.id);
    return false;
  }
  const ExitInfo info = reap(node.pid);
  node.pid = -1;
  if (!info.exited || info.exit_code != 0) {
    std::printf("  FAIL %s: node %u drain did not exit 0 (exited=%d code=%d sig=%d)\n",
                run_label, node.id, info.exited ? 1 : 0, info.exit_code, info.signal);
    return false;
  }
  return true;
}

// Bit-flip one mid-file byte of every resident artifact (the checksum
// trailer covers the whole body, so any flip must be caught on read).
std::size_t corrupt_store(const std::string& dir) {
  namespace fs = std::filesystem;
  std::size_t corrupted = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".art") continue;
    std::FILE* file = std::fopen(entry.path().c_str(), "r+b");
    if (file == nullptr) continue;
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    if (size <= 0) {
      std::fclose(file);
      continue;
    }
    const long offset = size / 2;
    std::fseek(file, offset, SEEK_SET);
    const int byte = std::fgetc(file);
    if (byte != EOF) {
      std::fseek(file, offset, SEEK_SET);
      std::fputc(byte ^ 0xFF, file);
      ++corrupted;
    }
    std::fclose(file);
  }
  return corrupted;
}

// --- cluster lifecycle -------------------------------------------------------

struct Cluster {
  std::vector<NodeProc> nodes;
  std::string members;
};

Cluster make_cluster(const char* label, unsigned count,
                     std::optional<std::uint64_t> fault_seed, std::uint64_t hb_ms) {
  namespace fs = std::filesystem;
  Cluster cluster;
  std::set<std::uint16_t> ports;
  for (unsigned id = 0; id < count; ++id) {
    NodeProc node;
    node.id = id;
    std::uint16_t port = pick_free_port();
    while (ports.count(port) != 0) port = pick_free_port();
    ports.insert(port);
    node.spec = common::format("tcp:127.0.0.1:%u", port);
    node.store_dir = common::format("warpd_cluster_%s_%d_n%u", label,
                                    static_cast<int>(::getpid()), id);
    std::error_code ec;
    fs::remove_all(node.store_dir, ec);
    if (fault_seed) node.fault_seed = *fault_seed + id * 1000;
    node.hb_ms = hb_ms;
    if (!cluster.members.empty()) cluster.members += ',';
    cluster.members += node.spec;
    cluster.nodes.push_back(std::move(node));
  }
  for (auto& node : cluster.nodes) spawn_node(node, cluster.members);
  return cluster;
}

void destroy_cluster(Cluster& cluster) {
  namespace fs = std::filesystem;
  for (auto& node : cluster.nodes) {
    if (node.pid > 0) {
      ::kill(node.pid, SIGKILL);
      reap(node.pid);
      node.pid = -1;
    }
    std::error_code ec;
    fs::remove_all(node.store_dir, ec);
  }
}

// --- runs --------------------------------------------------------------------

struct RunResult {
  std::string label;
  unsigned nodes = 3;
  std::size_t sessions = 0;
  std::uint64_t ok = 0, busy_retries = 0;
  std::uint64_t forwards = 0, forward_failures = 0, local_fallbacks = 0, forwarded_in = 0;
  std::uint64_t repl_pushes = 0, repl_pull_hits = 0, repairs_pulled = 0,
                repairs_pushed = 0;
  std::uint64_t quarantined = 0, fault_injected = 0;
  unsigned kills = 0;
  bool converged = false;
  bool bit_identical = true;
  double wall_ms = 0.0;
  bool passed = false;
};

void accumulate(RunResult& result, const StatsLine& stats) {
  result.forwards += stats.get("forwards");
  result.forward_failures += stats.get("forward_failures");
  result.local_fallbacks += stats.get("local_fallbacks");
  result.forwarded_in += stats.get("forwarded_in");
  result.repl_pushes += stats.get("repl.pushes");
  result.repl_pull_hits += stats.get("repl.pull_hits");
  result.repairs_pulled += stats.get("repl.repairs_pulled");
  result.repairs_pushed += stats.get("repl.repairs_pushed");
  result.quarantined += stats.get("store.quarantined");
  result.fault_injected += stats.sum_prefix("fault.");
}

void print_run(const RunResult& r) {
  std::printf(
      "  %-10s sessions=%3zu ok=%3llu fwd=%3llu fwd_fail=%2llu fallback=%2llu "
      "fwd_in=%3llu pushes=%3llu pull_hits=%2llu repaired=%2llu quarantined=%2llu "
      "kills=%u converged=%d wall=%6.0fms %s\n",
      r.label.c_str(), r.sessions, static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.forwards),
      static_cast<unsigned long long>(r.forward_failures),
      static_cast<unsigned long long>(r.local_fallbacks),
      static_cast<unsigned long long>(r.forwarded_in),
      static_cast<unsigned long long>(r.repl_pushes),
      static_cast<unsigned long long>(r.repl_pull_hits),
      static_cast<unsigned long long>(r.repairs_pulled + r.repairs_pushed),
      static_cast<unsigned long long>(r.quarantined), r.kills, r.converged ? 1 : 0,
      r.wall_ms, r.passed ? "PASS" : "FAIL");
}

std::vector<Request> make_cycle(std::size_t cycles, std::size_t keys,
                                std::uint64_t first_id) {
  std::vector<Request> requests;
  for (std::size_t i = 0; i < cycles * keys; ++i) {
    Request request = make_key_request(i % keys);
    request.id = first_id + i;
    requests.push_back(std::move(request));
  }
  return requests;
}

// The nodes still running (a killed node has pid -1 once reaped).
std::vector<const NodeProc*> live_nodes(const Cluster& cluster) {
  std::vector<const NodeProc*> live;
  for (const auto& node : cluster.nodes) {
    if (node.pid > 0) live.push_back(&node);
  }
  return live;
}

// True when every live node holds the same, non-empty artifact set.
bool slists_converged(const Cluster& cluster) {
  const auto live = live_nodes(cluster);
  if (live.empty()) return false;
  const std::set<std::string> first = slist_of(live[0]->spec);
  if (first.empty()) return false;
  for (std::size_t i = 1; i < live.size(); ++i) {
    if (slist_of(live[i]->spec) != first) return false;
  }
  return true;
}

// Anti-entropy is *eventually* convergent: a repair round can skip a peer
// the (fault-injected) heartbeat currently thinks is down, and transient
// link faults can starve individual transfers. Drive rounds on every live
// node until their artifact sets agree, bounded; print the residual diff
// when they never do.
bool repair_until_converged(const Cluster& cluster, const char* run_label) {
  const auto live = live_nodes(cluster);
  for (int round = 0; round < 8; ++round) {
    for (const NodeProc* node : live) {
      if (!common::starts_with(control_rpc(node->spec, "repair"), "sok")) {
        std::printf("  FAIL %s: repair op failed on node %u\n", run_label, node->id);
        return false;
      }
    }
    if (slists_converged(cluster)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("  FAIL %s: artifact sets did not converge after repair\n", run_label);
  if (live.empty()) return false;
  const auto reference = slist_of(live[0]->spec);
  for (const NodeProc* node : live) {
    const auto have = slist_of(node->spec);
    std::size_t missing = 0, extra = 0;
    for (const auto& name : reference) missing += have.count(name) == 0 ? 1 : 0;
    for (const auto& name : have) extra += reference.count(name) == 0 ? 1 : 0;
    std::printf("    node %u: %zu artifacts, vs node %u: %zu missing, %zu extra\n",
                node->id, have.size(), live[0]->id, missing, extra);
  }
  return false;
}

// Wait until `spec` reports at least `want` live peers — respawned nodes
// start optimistic but their first heartbeat cycles can transiently flap
// under an armed fault schedule.
void wait_for_peers(const std::string& spec, std::uint64_t want) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (query_stats(spec).get("peers_up") >= want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

// Clean 3-node routing + replication: forwards land on ring owners, every
// artifact replicates everywhere, every wait chain replays exactly.
RunResult forward_run(const std::map<std::string, warpsys::MultiWarpEntry>& references,
                      std::size_t cycles) {
  RunResult result;
  result.label = "forward";
  const auto wall_start = Clock::now();
  Cluster cluster = make_cluster("fwd", 3, std::nullopt, 100);

  const auto requests = make_cycle(cycles, kBaseKeys, 0);
  result.sessions = requests.size();
  ChainMap chains;
  common::Rng rng(7);
  const std::vector<unsigned> incarnations(3, 0);
  bool ok = run_phase("forward", cluster.nodes[0].spec, requests, references,
                      incarnations, chains, rng, result.ok, result.busy_retries);
  ok = verify_chains(chains, /*exact=*/true, "forward") && ok;
  result.bit_identical = ok;

  for (const auto& node : cluster.nodes) accumulate(result, query_stats(node.spec));
  if (result.ok != result.sessions) {
    std::printf("  FAIL forward: %llu/%zu sessions completed\n",
                static_cast<unsigned long long>(result.ok), result.sessions);
    ok = false;
  }
  if (result.forwards == 0) {
    std::printf("  FAIL forward: no session was forwarded to a ring peer\n");
    ok = false;
  }
  if (result.forward_failures != 0 || result.forwarded_in != result.forwards) {
    std::printf("  FAIL forward: clean run lost forwards (fwd=%llu in=%llu fail=%llu)\n",
                static_cast<unsigned long long>(result.forwards),
                static_cast<unsigned long long>(result.forwarded_in),
                static_cast<unsigned long long>(result.forward_failures));
    ok = false;
  }
  if (result.repl_pushes == 0) {
    std::printf("  FAIL forward: no artifact was pushed to a replica\n");
    ok = false;
  }
  result.converged = slists_converged(cluster);
  if (!result.converged) {
    std::printf("  FAIL forward: replica artifact sets did not converge\n");
    ok = false;
  }
  for (auto& node : cluster.nodes) ok = drain_node(node, "forward") && ok;
  destroy_cluster(cluster);
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - wall_start).count();
  result.passed = ok;
  print_run(result);
  return result;
}

// SIGKILL a peer that owns live kernels mid-stream, with transient fault
// schedules armed cluster-wide: every session must still complete
// bit-identically, the failed forwards recomputed on the local pipeline.
RunResult failover_run(const std::map<std::string, warpsys::MultiWarpEntry>& references,
                       const std::vector<unsigned>& owners, unsigned victim,
                       std::size_t cycles, std::uint64_t fault_seed) {
  RunResult result;
  result.label = "failover";
  const auto wall_start = Clock::now();
  // Slow heartbeats: the first post-kill forward must hit the dead socket
  // (and fall back) before the health checker quietly reshards around it.
  Cluster cluster = make_cluster("fo", 3, fault_seed, 250);

  const auto requests = make_cycle(cycles, kBaseKeys, 0);
  result.sessions = requests.size();
  ChainMap chains;
  common::Rng rng(fault_seed + 13);
  const std::vector<unsigned> incarnations(3, 0);
  KillPlan kill_plan;
  kill_plan.pid = cluster.nodes[victim].pid;
  kill_plan.after_ok = std::max<std::uint64_t>(4, result.sessions / 6);
  bool ok = run_phase("failover", cluster.nodes[0].spec, requests, references,
                      incarnations, chains, rng, result.ok, result.busy_retries,
                      &kill_plan);
  // Chaos can eat forwarded replies (the origin recomputes, the remote twin
  // still charged its clock), so every chain is a lower bound here.
  ok = verify_chains(chains, /*exact=*/false, "failover") && ok;
  result.bit_identical = ok;

  if (!kill_plan.fired) {
    std::printf("  FAIL failover: kill threshold never reached\n");
    ok = false;
    ::kill(cluster.nodes[victim].pid, SIGKILL);
  }
  const ExitInfo info = reap(cluster.nodes[victim].pid);
  cluster.nodes[victim].pid = -1;
  ++result.kills;
  if (!info.signaled || info.signal != SIGKILL) {
    std::printf("  FAIL failover: victim did not die by SIGKILL (signaled=%d sig=%d)\n",
                info.signaled ? 1 : 0, info.signal);
    ok = false;
  }
  if (result.ok != result.sessions) {
    std::printf("  FAIL failover: %llu/%zu sessions completed\n",
                static_cast<unsigned long long>(result.ok), result.sessions);
    ok = false;
  }
  // The surviving replicas must still converge without the victim.
  result.converged = repair_until_converged(cluster, "failover");
  ok = result.converged && ok;
  for (const auto& node : cluster.nodes) {
    if (node.pid > 0) accumulate(result, query_stats(node.spec));
  }
  if (result.local_fallbacks == 0) {
    std::printf("  FAIL failover: no forward fell back to the local pipeline\n");
    ok = false;
  }
  if (result.fault_injected == 0) {
    std::printf("  FAIL failover: the fault schedule never fired\n");
    ok = false;
  }
  for (auto& node : cluster.nodes) {
    if (node.pid > 0) ok = drain_node(node, "failover") && ok;
  }
  destroy_cluster(cluster);
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - wall_start).count();
  result.passed = ok;
  print_run(result);
  (void)owners;
  return result;
}

// Symmetric partition + slow link + corrupt replica + anti-entropy repair.
RunResult partition_run(const std::map<std::string, warpsys::MultiWarpEntry>& references,
                        unsigned victim, std::size_t cycles, std::uint64_t fault_seed) {
  RunResult result;
  result.label = "partition";
  const auto wall_start = Clock::now();
  Cluster cluster = make_cluster("part", 3, fault_seed, 100);
  NodeProc& v = cluster.nodes[victim];
  const unsigned other = victim == 1 ? 2 : 1;  // the non-victim peer of node 0

  ChainMap chains;
  common::Rng rng(fault_seed + 29);
  std::vector<unsigned> incarnations(3, 0);
  bool ok = true;

  // Phase A: warm the base kernels through node 0; replication fans the
  // artifacts out to every node.
  const auto phase_a = make_cycle(cycles, kBaseKeys, 0);
  ok = run_phase("partition/A", cluster.nodes[0].spec, phase_a, references, incarnations,
                 chains, rng, result.ok, result.busy_retries) &&
       ok;

  // Partition the victim symmetrically and slow the surviving link.
  for (unsigned id : {0u, other}) {
    control_rpc(cluster.nodes[id].spec, common::format("peer_down id=%u", victim));
    control_rpc(v.spec, common::format("peer_down id=%u", id));
  }
  control_rpc(cluster.nodes[0].spec, common::format("peer_slow id=%u ms=25", other));
  // The victim must be out of node 0's ring view. `peers_up == 0` is also
  // acceptable: with faults armed the surviving link can transiently flap.
  if (query_stats(cluster.nodes[0].spec).get("peers_up") > 1) {
    std::printf("  FAIL partition: victim still in node 0's ring view\n");
    ok = false;
  }

  // Phase B: new kernels (the 3 extra keys) plus the base mix. The victim
  // must see none of it — no forwards cross the partition — and must
  // therefore miss the new artifacts.
  const std::uint64_t fwd_in_before = query_stats(v.spec).get("forwarded_in");
  const auto phase_b = make_cycle(cycles, kAllKeys, 1000);
  ok = run_phase("partition/B", cluster.nodes[0].spec, phase_b, references, incarnations,
                 chains, rng, result.ok, result.busy_retries) &&
       ok;
  result.sessions = phase_a.size() + phase_b.size();
  if (query_stats(v.spec).get("forwarded_in") != fwd_in_before) {
    std::printf("  FAIL partition: sessions crossed the simulated partition\n");
    ok = false;
  }
  {
    // The new artifacts live somewhere on the live side of the partition
    // (transient store faults decide whether node 0 or its peer persisted a
    // given one); the isolated replica must lack at least one of them.
    auto live_side = slist_of(cluster.nodes[0].spec);
    live_side.merge(slist_of(cluster.nodes[other].spec));
    const auto have_v = slist_of(v.spec);
    std::size_t missing = 0;
    for (const auto& name : live_side) missing += have_v.count(name) == 0 ? 1 : 0;
    if (missing == 0) {
      std::printf("  FAIL partition: isolated replica missed nothing\n");
      ok = false;
    }
  }

  // Heal the partition, then drive anti-entropy to convergence: all three
  // artifact sets must become identical.
  for (unsigned id : {0u, other}) {
    control_rpc(cluster.nodes[id].spec, common::format("peer_up id=%u", victim));
    control_rpc(v.spec, common::format("peer_up id=%u", id));
  }
  control_rpc(cluster.nodes[0].spec, common::format("peer_slow id=%u ms=0", other));
  result.converged = repair_until_converged(cluster, "partition");
  ok = result.converged && ok;

  // Corrupt-replica chaos: kill the victim, bit-flip every artifact in its
  // store, respawn it and serve its own kernels — each damaged artifact must
  // be quarantined and re-pulled from a peer, never served or re-shared.
  ::kill(v.pid, SIGKILL);
  const ExitInfo info = reap(v.pid);
  v.pid = -1;
  ++result.kills;
  if (!info.signaled || info.signal != SIGKILL) {
    std::printf("  FAIL partition: victim did not die by SIGKILL\n");
    ok = false;
  }
  if (corrupt_store(v.store_dir) == 0) {
    std::printf("  FAIL partition: no artifacts to corrupt in %s\n", v.store_dir.c_str());
    ok = false;
  }
  if (v.fault_seed) *v.fault_seed += 17;
  v.incarnation = 1;
  spawn_node(v, cluster.members);
  incarnations[victim] = 1;
  wait_for_peers(v.spec, 2);  // the pull-on-miss gate needs reachable peers

  const auto phase_c = make_cycle(cycles, kBaseKeys, 2000);
  ok = run_phase("partition/C", v.spec, phase_c, references, incarnations, chains, rng,
                 result.ok, result.busy_retries) &&
       ok;
  result.sessions += phase_c.size();
  {
    const StatsLine sv = query_stats(v.spec);
    if (sv.get("store.quarantined") == 0) {
      std::printf("  FAIL partition: corrupted replica quarantined nothing\n");
      ok = false;
    }
    if (sv.get("repl.pull_hits") == 0) {
      std::printf("  FAIL partition: no damaged artifact was re-pulled from a peer\n");
      ok = false;
    }
  }
  const bool reconverged = repair_until_converged(cluster, "partition");
  result.converged = reconverged && result.converged;
  ok = reconverged && ok;

  ok = verify_chains(chains, /*exact=*/false, "partition") && ok;
  result.bit_identical = ok;
  for (const auto& node : cluster.nodes) accumulate(result, query_stats(node.spec));
  if (result.ok != result.sessions) {
    std::printf("  FAIL partition: %llu/%zu sessions completed\n",
                static_cast<unsigned long long>(result.ok), result.sessions);
    ok = false;
  }
  if (result.fault_injected == 0) {
    std::printf("  FAIL partition: the fault schedule never fired\n");
    ok = false;
  }
  for (auto& node : cluster.nodes) ok = drain_node(node, "partition") && ok;
  destroy_cluster(cluster);
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - wall_start).count();
  result.passed = ok;
  print_run(result);
  return result;
}

void emit_json(const std::vector<RunResult>& runs, std::uint64_t fault_seed) {
  FILE* json = std::fopen("BENCH_warpd_cluster.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_warpd_cluster.json\n");
    std::exit(1);
  }
  std::fprintf(json, "{\n  \"bench\": \"warpd_cluster\",\n");
  std::fprintf(json, "  \"host_threads\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(json, "  \"fault_seed\": %llu,\n",
               static_cast<unsigned long long>(fault_seed));
  std::fprintf(json, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::fprintf(
        json,
        "    {\"label\": \"%s\", \"nodes\": %u, \"sessions\": %zu, \"ok\": %llu, "
        "\"busy_retries\": %llu, \"forwards\": %llu, \"forward_failures\": %llu, "
        "\"local_fallbacks\": %llu, \"forwarded_in\": %llu, \"repl_pushes\": %llu, "
        "\"repl_pull_hits\": %llu, \"repairs_pulled\": %llu, \"repairs_pushed\": %llu, "
        "\"quarantined\": %llu, \"fault_injected\": %llu, \"kills\": %u, "
        "\"converged\": %s, \"wall_ms\": %.2f, \"bit_identical\": %s}%s\n",
        r.label.c_str(), r.nodes, r.sessions, static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.busy_retries),
        static_cast<unsigned long long>(r.forwards),
        static_cast<unsigned long long>(r.forward_failures),
        static_cast<unsigned long long>(r.local_fallbacks),
        static_cast<unsigned long long>(r.forwarded_in),
        static_cast<unsigned long long>(r.repl_pushes),
        static_cast<unsigned long long>(r.repl_pull_hits),
        static_cast<unsigned long long>(r.repairs_pulled),
        static_cast<unsigned long long>(r.repairs_pushed),
        static_cast<unsigned long long>(r.quarantined),
        static_cast<unsigned long long>(r.fault_injected), r.kills,
        r.converged ? "true" : "false", r.wall_ms, r.bit_identical ? "true" : "false",
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_warpd_cluster.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool node_mode = false;
  bool check = false;
  std::uint64_t fault_seed = 1;
  std::size_t sessions = 24;
  NodeArgs node_args;
  bool have_fault_seed = false;
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
    if (std::strcmp(argv[i], "--node") == 0) {
      node_mode = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--id") == 0) {
      node_args.id = static_cast<unsigned>(uint_arg("--id"));
    } else if (std::strcmp(argv[i], "--members") == 0 && i + 1 < argc) {
      node_args.members = argv[++i];
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      node_args.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--hb-ms") == 0) {
      node_args.hb_ms = uint_arg("--hb-ms");
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      fault_seed = uint_arg("--fault-seed");
      have_fault_seed = true;
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = static_cast<std::size_t>(uint_arg("--sessions"));
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (supported: --check, --fault-seed S, "
                   "--sessions N)\n",
                   argv[i]);
      return 1;
    }
  }
  if (node_mode) {
    if (node_args.members.empty() || node_args.store_dir.empty()) {
      std::fprintf(stderr, "--node requires --members LIST and --store DIR\n");
      return 1;
    }
    if (have_fault_seed) node_args.fault_seed = fault_seed;
    return run_node(node_args);
  }

  const std::size_t cycles = std::max<std::size_t>(2, sessions / kBaseKeys);
  std::printf("warpd_cluster%s: 3 nodes over tcp, %zu-key kernel mix, fault seed %llu\n",
              check ? " --check" : "", kAllKeys,
              static_cast<unsigned long long>(fault_seed));

  std::vector<Request> probe_requests;
  for (std::size_t k = 0; k < kAllKeys; ++k) {
    Request request = make_key_request(k);
    request.id = k;
    probe_requests.push_back(std::move(request));
  }
  const auto references = make_references(probe_requests);
  const auto owners = owners_of_keys(3);
  {
    std::string line = "  ring owners:";
    for (std::size_t k = 0; k < kAllKeys; ++k) {
      line += common::format(" %s->%u", key_of(make_key_request(k)).c_str(), owners[k]);
    }
    std::printf("%s\n", line.c_str());
  }
  // The victim must own at least one base kernel, or killing/partitioning
  // it would not disturb routing at all. Ownership is deterministic (pure
  // content hashing), so this cannot flake run to run.
  unsigned victim = 0;
  for (std::size_t k = 0; k < kBaseKeys; ++k) {
    if (owners[k] != 0) {
      victim = owners[k];
      break;
    }
  }
  if (victim == 0) {
    std::fprintf(stderr,
                 "warpd_cluster: every base kernel hashes to node 0; widen the key set\n");
    return 1;
  }

  bool ok = true;
  std::vector<RunResult> results;
  results.push_back(forward_run(references, cycles));
  ok = results.back().passed && ok;
  results.push_back(failover_run(references, owners, victim, cycles + 2, fault_seed));
  ok = results.back().passed && ok;
  results.push_back(partition_run(references, victim, std::max<std::size_t>(2, cycles / 2),
                                  fault_seed + 5000));
  ok = results.back().passed && ok;

  if (!check) emit_json(results, fault_seed);
  std::printf("warpd_cluster: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
