// The warpd side of the warpd_warm workload: a daemon in a child process,
// an open-loop client over its unix socket, and the stats op.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/error.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

/// Serve warpd on `socket_path` until stdin closes (the --daemon mode).
int daemon_main(const std::string& socket_path);

/// Peak resident set (VmHWM) of a process in MiB; 0 if unreadable.
double peak_rss_mb(pid_t pid);

/// A warpd daemon running this executable in --daemon mode. Its stdin is a
/// pipe this object holds: closing it stops the daemon, and so does this
/// process exiting. stop() (and the destructor) waits for the child.
class Daemon {
 public:
  static warp::common::Result<std::unique_ptr<Daemon>> spawn(const std::string& exe,
                                                            const std::string& socket_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& socket_path() const { return socket_path_; }
  /// Close the daemon's stdin and reap it (SIGKILL after a grace period).
  void stop();

 private:
  Daemon(pid_t pid, int stdin_fd, std::string socket_path)
      : pid_(pid), stdin_fd_(stdin_fd), socket_path_(std::move(socket_path)) {}
  pid_t pid_;
  int stdin_fd_;
  std::string socket_path_;
};

/// Send `requests` on one connection, each after the previous one's reply.
/// Replies by id, which must equal the request's index; missing ones empty.
std::vector<std::optional<warp::serve::protocol::Reply>> run_in_turn(
    const std::string& socket_path, const std::vector<warp::serve::protocol::Request>& requests);

/// One open-loop pass: request i is due `due_s[i]` seconds after the pass
/// starts and goes out on connection i % connections. Replies are matched
/// by id, which must equal the request's index.
struct OpenLoopResult {
  std::vector<std::optional<warp::serve::protocol::Reply>> replies;  // by id
  std::vector<double> latency_ms;  // reply arrival - due time, by id (NaN: none)
  std::vector<double> lag_ms;      // send time - due time, by id
  double wall_s = 0.0;             // pass start to last reply
  // Host speed probes taken while the daemon was idle: before the pass,
  // during it when no request was in flight, and after it.
  std::vector<double> probes_ms;
};

OpenLoopResult run_open_loop(const std::string& socket_path, unsigned connections,
                             const std::vector<warp::serve::protocol::Request>& requests,
                             const std::vector<double>& due_s);

/// The daemon's "stats" reply as key -> value.
warp::common::Result<std::map<std::string, std::uint64_t>> query_stats(
    const std::string& socket_path);

/// Connect to `socket_path`, retrying until it listens or `timeout_ms` passes.
warp::common::Status wait_listening(const std::string& socket_path, unsigned timeout_ms);

}  // namespace perfbench
