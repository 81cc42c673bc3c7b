// Harness code shared by the warpd serving benches (warpd_bench and
// warpd_load): self-spawned daemon processes, control RPCs over the line
// protocol, serial references and the reply-table checks every chaos gate
// applies.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "warp/warp_system.hpp"

namespace warp::bench {

/// Fork + execv this same binary (/proc/self/exe) with `args` and wait until
/// the unix socket at `socket_path` accepts a connection. Exits the process
/// if the child dies or never becomes reachable; `label` names the child in
/// those messages.
pid_t spawn_self(const std::vector<std::string>& args, const std::string& socket_path,
                 const std::string& label);

/// How a reaped child ended.
struct ExitInfo {
  bool exited = false;    // WIFEXITED
  int exit_code = -1;
  bool signaled = false;  // WIFSIGNALED
  int signal = 0;
};

/// Block until `pid` ends and report how.
ExitInfo reap(pid_t pid);

/// One control-plane line (stats, drain, ...) over a fresh connection to
/// `socket_path`; returns the one-line reply. Every step is bounded (a 60 s
/// read deadline); any failure exits the process.
std::string control_rpc(const std::string& socket_path, const std::string& line);

/// A parsed "stats" reply: key=value fields as unsigned integers.
struct StatsLine {
  std::map<std::string, std::uint64_t> values;
  std::uint64_t get(const char* key) const;
};

StatsLine query_stats(const std::string& socket_path);

/// Request identity for the reference tables: workload plus every
/// override, so requests with one key are served by one reference row.
std::string key_of(const serve::protocol::Request& request);

/// Everything an "ok" reply claims about the session except its queue
/// position (dpm_wait_seconds). These must be bit-identical to the serial
/// engine no matter which overload or chaos path the session took.
bool pure_fields_match(const warpsys::MultiWarpEntry& a, const warpsys::MultiWarpEntry& b);

/// run_serial over one request per distinct key_of: the pure-field
/// reference table. Exits the process if the serial engine rejects one.
std::map<std::string, warpsys::MultiWarpEntry> make_references(
    const std::vector<serve::protocol::Request>& requests);

/// Replay one engine incarnation's ok replies, as (wait_s, dpm_s) pairs,
/// through the round-robin DpmVirtualClock the engine's sequencing uses.
/// Sorted by wait, each wait must equal the accumulated busy time bit for
/// bit when `exact` (every reply observed). Otherwise replies were lost,
/// and a lost session only *adds* busy time, so each wait must be at least
/// the accumulated lower bound. Prints a FAIL line and returns false on the
/// first violation.
bool verify_wait_chain(std::vector<std::pair<double, double>> chain, bool exact,
                       const std::string& label);

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);

}  // namespace warp::bench
