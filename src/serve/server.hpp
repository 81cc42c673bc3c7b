// Socket front end for the warpd engine, over one unix-domain socket.
//
// One listener thread accepts connections; one reader thread per connection
// frames '\n'-delimited request lines (protocol.hpp), submits them to the
// shared Warpd engine and writes each session's reply line when its
// callback fires. Replies are written in completion order — clients
// correlate by the echoed id. Malformed, oversized and unknown-workload
// lines are answered with "err" replies; nothing a client sends can crash
// or stop the server (fuzz-gated by tests/warpd_proto_test.cpp).
//
// `path` is the socket's filesystem path: start() unlinks any stale socket
// there and binds a fresh one, stop() unlinks it. A path that is empty or
// does not fit sockaddr_un::sun_path with its terminator (107 bytes on
// Linux) makes start() and Client::connect() fail before any socket exists.
//
// The stats op also reports per-site injected-fault counters from the
// attached injectors ("fault.<site>=N"), so harnesses can assert a fault
// schedule actually fired instead of inferring it from timing.
//
// Fault injection: the sites "serve.accept", "serve.read" and
// "serve.write" (kIoError) model a flaky front end. Every site runs under
// common::retry (common/retry.hpp): up to common::kRetryAttempts attempts,
// so a transient schedule (max_consecutive below the budget) is absorbed
// invisibly — sessions complete bit-identically. An accept or recv error
// other than EINTR stops at once. A persistent fault degrades cleanly,
// never fatally: accept never admits the connection (clients see a hang,
// the server keeps serving others and shuts down cleanly), a dead read
// drops the rest of the connection's input after in-flight sessions finish,
// and a dead write drops that connection's remaining replies while sessions
// still complete server-side. Injected fault counts are the injector's: the
// stats op's fault.<site>= fields.
//
// One common::Backoff, at its default seed, serves the accept thread and
// every connection thread, so one seed reproduces the sleep schedule.
//
// Graceful drain: the "drain" protocol op or request_drain() (what a
// daemon's SIGTERM handler calls) makes the engine shed all new sessions
// as "busy" while in-flight ones finish; drain() then waits them out and
// stops the server. A supervisor observing drain_requested() can exit 0
// afterwards; the next incarnation starts with a cold artifact cache.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injector.hpp"
#include "common/retry.hpp"
#include "serve/warpd.hpp"

namespace warp::serve {

struct SocketServerOptions {
  /// Filesystem path of the unix socket; start() unlinks and rebinds it.
  std::string path;
  WarpdOptions engine;
  std::size_t max_line_bytes = protocol::kMaxLineBytes;
  /// Injector for the serve.* sites (not owned; may be null). May be the
  /// same injector as engine.fault or a different one.
  common::FaultInjector* fault = nullptr;
};

struct SocketServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;        // well-formed request lines submitted
  std::uint64_t replies = 0;         // reply/pong lines fully written
  std::uint64_t parse_errors = 0;    // lines answered with an err reply
  std::uint64_t oversized_lines = 0;
  std::uint64_t read_failures = 0;   // read budget exhausted: input dropped
  std::uint64_t write_failures = 0;  // write budget exhausted: conn muted
};

class SocketServer {
 public:
  explicit SocketServer(SocketServerOptions options);
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Bind + listen + start accepting. Error if the socket cannot be bound.
  common::Status start();

  /// Stop accepting, finish every admitted session (Warpd::stop), write the
  /// remaining replies, close all connections and join every thread.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Begin a graceful drain: the engine sheds every new session as "busy"
  /// while in-flight ones finish. Async-signal-unsafe (takes locks) — a
  /// SIGTERM handler sets a flag and the supervisor loop calls this.
  /// Idempotent; also triggered by the "drain" protocol op.
  void request_drain();
  bool drain_requested() const { return drain_requested_.load(); }

  /// Finish a graceful drain: wait out in-flight sessions and stop(). Calls
  /// request_drain() first if nobody did. Returns once the server is fully
  /// stopped.
  void drain();

  Warpd& engine() { return *engine_; }
  SocketServerStats stats() const;
  const SocketServerOptions& options() const { return options_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex mutex;              // guards writes, `dead` and `outstanding`
    std::condition_variable idle;  // outstanding -> 0
    bool dead = false;             // write side failed; drop future replies
    std::uint64_t outstanding = 0; // submitted sessions awaiting their reply
  };

  void accept_main();
  void connection_main(std::shared_ptr<Connection> conn);
  void handle_line(const std::shared_ptr<Connection>& conn, std::string_view line);
  std::string stats_line();
  /// Serialize + write one line (appending '\n') with the retry discipline.
  bool write_line(Connection& conn, const std::string& line);

  SocketServerOptions options_;
  std::unique_ptr<Warpd> engine_;
  int listen_fd_ = -1;
  std::atomic<bool> closing_{false};
  std::atomic<bool> drain_requested_{false};
  bool stopped_ = false;
  common::Backoff backoff_;

  mutable std::mutex mutex_;  // guards stats_, connections_, threads_
  SocketServerStats stats_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> threads_;  // reader threads
  std::thread accept_thread_;
};

/// Minimal blocking line-oriented client, for tests and the bench drivers.
/// connect() takes the server's socket path.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  common::Status connect(const std::string& path);
  /// Write `line` + '\n'.
  common::Status send_line(const std::string& line);
  /// Write raw bytes with no framing added (tests send partial lines).
  common::Status send_raw(const std::string& bytes);
  /// A read_line_for timeout that never expires.
  static constexpr std::uint64_t kNoDeadline = UINT64_MAX;
  /// Next '\n'-delimited line, newline stripped. Error on EOF/failure.
  /// Same as read_line_for(kNoDeadline).
  common::Result<std::string> read_line();
  /// read_line with a deadline: error "timeout" if no full line arrives
  /// within `timeout_ms` (bytes already buffered are kept for a later try).
  common::Result<std::string> read_line_for(std::uint64_t timeout_ms);
  /// Half-close: no more sends; the server still writes pending replies.
  void shutdown_send();
  void close();
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace warp::serve
