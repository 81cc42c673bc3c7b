#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>

#include "common/strings.hpp"

namespace warp::serve {

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// A fresh CLOEXEC unix stream socket, with the address of `path` in
// `addr`. The path must be nonempty and fit sun_path with its terminator;
// that is checked before the socket exists, so a bad path leaves no file.
common::Result<int> unix_socket(const std::string& path, sockaddr_un& addr) {
  using R = common::Result<int>;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return R::error("bad socket path: " + path);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return R::error(errno_text("socket"));
  return fd;
}

common::Result<int> close_with_error(int fd, std::string message) {
  ::close(fd);
  return common::Result<int>::error(std::move(message));
}

// A socket listening at `path`, replacing any stale socket file there.
common::Result<int> listen_unix(const std::string& path) {
  sockaddr_un addr{};
  auto fd = unix_socket(path, addr);
  if (!fd) return fd;
  ::unlink(path.c_str());
  if (::bind(fd.value(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return close_with_error(fd.value(), errno_text("bind " + path));
  }
  if (::listen(fd.value(), 64) != 0) return close_with_error(fd.value(), errno_text("listen"));
  return fd;
}

common::Result<int> connect_unix(const std::string& path) {
  sockaddr_un addr{};
  auto fd = unix_socket(path, addr);
  if (fd && ::connect(fd.value(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return close_with_error(fd.value(), errno_text("connect " + path));
  }
  return fd;
}

// A failed accept/recv: EINTR is retried, any real error stops at once.
common::Attempt after_syscall_error() {
  return errno == EINTR ? common::Attempt::kRetry : common::Attempt::kGiveUp;
}

}  // namespace

SocketServer::SocketServer(SocketServerOptions options) : options_(std::move(options)) {
  engine_ = std::make_unique<Warpd>(options_.engine);
}

SocketServer::~SocketServer() { stop(); }

common::Status SocketServer::start() {
  auto fd = listen_unix(options_.path);
  if (!fd) return common::Status::error(fd.message());
  listen_fd_ = fd.value();
  accept_thread_ = std::thread([this] { accept_main(); });
  return common::Status::ok();
}

void SocketServer::accept_main() {
  while (!closing_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (closing_.load()) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;

    int fd = -1;
    const bool accepted = common::retry(backoff_, [&] {
      if (common::injected(options_.fault, "serve.accept")) return common::Attempt::kRetry;
      fd = ::accept(listen_fd_, nullptr, nullptr);
      return fd >= 0 ? common::Attempt::kDone : after_syscall_error();
    });
    if (!accepted) {
      // Budget exhausted (persistent accept fault) or a real accept error:
      // the pending connection stays unserved; keep the server alive, and
      // pause so the still-pending connection does not spin this loop.
      backoff_.sleep(common::kRetryAttempts);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.connections;
    connections_.push_back(conn);
    threads_.emplace_back([this, conn] { connection_main(conn); });
  }
}

void SocketServer::connection_main(std::shared_ptr<Connection> conn) {
  std::string inbuf;
  bool discarding = false;  // inside an oversized line, waiting for its end
  char buf[4096];
  for (;;) {
    ssize_t n = -1;
    const bool received = common::retry(backoff_, [&] {
      if (common::injected(options_.fault, "serve.read")) return common::Attempt::kRetry;
      n = ::recv(conn->fd, buf, sizeof(buf), 0);
      return n >= 0 ? common::Attempt::kDone : after_syscall_error();
    });
    if (!received) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.read_failures;
      break;
    }
    if (n == 0) break;  // client EOF
    inbuf.append(buf, static_cast<std::size_t>(n));

    for (;;) {
      const std::size_t newline = inbuf.find('\n');
      if (newline == std::string::npos) {
        if (inbuf.size() > options_.max_line_bytes && !discarding) {
          // The line is already over budget with no end in sight: answer
          // now and drop bytes until the newline finally arrives.
          {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.oversized_lines;
          }
          write_line(*conn, protocol::encode_reply(
                                protocol::make_error_reply(0, "oversized request line")));
          discarding = true;
        }
        if (discarding) inbuf.clear();
        break;
      }
      std::string line = inbuf.substr(0, newline);
      inbuf.erase(0, newline + 1);
      if (discarding) {
        discarding = false;  // the tail of the oversized line; already answered
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.size() > options_.max_line_bytes) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.oversized_lines;
        }
        write_line(*conn, protocol::encode_reply(
                              protocol::make_error_reply(0, "oversized request line")));
        continue;
      }
      handle_line(conn, line);
    }
  }

  // Serve every in-flight session's reply before closing our side.
  {
    std::unique_lock<std::mutex> lock(conn->mutex);
    conn->idle.wait(lock, [&] { return conn->outstanding == 0; });
  }
  ::shutdown(conn->fd, SHUT_RDWR);
}

std::string SocketServer::stats_line() {
  const WarpdStats es = engine_->stats();
  const SocketServerStats ss = stats();
  std::string line = common::format(
      "stats admitted=%llu completed=%llu rejected=%llu busy=%llu "
      "timeouts=%llu pipeline_runs=%llu unique_kernels=%llu "
      "max_queue_depth=%llu peak_sessions=%llu replies=%llu draining=%d",
      static_cast<unsigned long long>(es.admitted),
      static_cast<unsigned long long>(es.completed),
      static_cast<unsigned long long>(es.rejected),
      static_cast<unsigned long long>(es.busy_rejected),
      static_cast<unsigned long long>(es.timeouts),
      static_cast<unsigned long long>(es.pipeline_runs),
      static_cast<unsigned long long>(es.unique_kernels),
      static_cast<unsigned long long>(es.max_queue_depth),
      static_cast<unsigned long long>(es.peak_sessions),
      static_cast<unsigned long long>(ss.replies), es.draining ? 1 : 0);
  // Per-site injected-fault counters from every distinct attached injector:
  // the chaos harnesses assert "the schedule actually fired" off these.
  std::map<std::string, std::uint64_t> by_site;
  std::vector<common::FaultInjector*> injectors{options_.fault};
  if (options_.engine.fault != options_.fault) injectors.push_back(options_.engine.fault);
  for (common::FaultInjector* injector : injectors) {
    if (injector == nullptr) continue;
    for (const auto& [site, count] : injector->stats().injected_by_site) {
      by_site[site] += count;
    }
  }
  for (const auto& [site, count] : by_site) {
    line += common::format(" fault.%s=%llu", site.c_str(),
                           static_cast<unsigned long long>(count));
  }
  return line;
}

void SocketServer::handle_line(const std::shared_ptr<Connection>& conn,
                               std::string_view line) {
  if (line.empty()) return;
  if (line == "ping") {
    write_line(*conn, "pong");
    return;
  }
  if (line == "drain") {
    request_drain();
    write_line(*conn, "draining");
    return;
  }
  if (line == "stats") {
    write_line(*conn, stats_line());
    return;
  }
  auto parsed = protocol::parse_request(line);
  if (!parsed) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.parse_errors;
    }
    write_line(*conn, protocol::encode_reply(protocol::make_error_reply(0, parsed.message())));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    ++conn->outstanding;
  }
  auto done = [this, conn](const SessionOutcome& outcome) {
    protocol::Reply reply;
    switch (outcome.status) {
      case protocol::ReplyStatus::kOk:
        reply = protocol::make_ok_reply(outcome.id, outcome.entry);
        break;
      case protocol::ReplyStatus::kBusy:
        reply = protocol::make_busy_reply(outcome.id, outcome.retry_after_ms);
        break;
      case protocol::ReplyStatus::kTimeout:
        reply = protocol::make_timeout_reply(outcome.id, outcome.error);
        break;
      case protocol::ReplyStatus::kErr:
        reply = protocol::make_error_reply(outcome.id, outcome.error);
        break;
    }
    write_line(*conn, protocol::encode_reply(reply));
    std::lock_guard<std::mutex> lock(conn->mutex);
    --conn->outstanding;
    conn->idle.notify_all();
  };
  engine_->submit(parsed.value(), std::move(done));
}

bool SocketServer::write_line(Connection& conn, const std::string& line) {
  std::lock_guard<std::mutex> lock(conn.mutex);
  if (conn.dead) return false;
  const std::string out = line + "\n";
  std::size_t off = 0;
  const bool sent = common::retry(backoff_, [&] {
    if (common::injected(options_.fault, "serve.write")) return common::Attempt::kRetry;
    while (off < out.size()) {
      const ssize_t n = ::send(conn.fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n == 0 || errno != EINTR) {
        return common::Attempt::kRetry;
      }
    }
    return common::Attempt::kDone;
  });
  if (sent) {
    std::lock_guard<std::mutex> stats_lock(mutex_);
    ++stats_.replies;
    return true;
  }
  // Budget exhausted: mute the connection (sessions still complete
  // server-side); the client observes a half-open stream, never a crash.
  conn.dead = true;
  std::lock_guard<std::mutex> stats_lock(mutex_);
  ++stats_.write_failures;
  return false;
}

void SocketServer::request_drain() {
  if (drain_requested_.exchange(true)) return;
  engine_->begin_drain();
}

void SocketServer::drain() {
  request_drain();
  // In-flight sessions finish; everything arriving meanwhile is shed busy.
  engine_->drain();
  stop();
}

void SocketServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  closing_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.path.c_str());
  }
  // Finish every admitted session; callbacks write the remaining replies.
  engine_->stop();
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections = connections_;
    threads = std::move(threads_);
  }
  for (const auto& conn : connections) ::shutdown(conn->fd, SHUT_RDWR);
  for (std::thread& t : threads) t.join();
  for (const auto& conn : connections) ::close(conn->fd);
  std::lock_guard<std::mutex> lock(mutex_);
  connections_.clear();
}

SocketServerStats SocketServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Client::~Client() { close(); }

common::Status Client::connect(const std::string& path) {
  auto fd = connect_unix(path);
  if (!fd) return common::Status::error(fd.message());
  fd_ = fd.value();
  return common::Status::ok();
}

common::Status Client::send_line(const std::string& line) { return send_raw(line + "\n"); }

common::Status Client::send_raw(const std::string& bytes) {
  if (fd_ < 0) return common::Status::error("not connected");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return common::Status::error(errno_text("send"));
  }
  return common::Status::ok();
}

common::Result<std::string> Client::read_line() { return read_line_for(kNoDeadline); }

common::Result<std::string> Client::read_line_for(std::uint64_t timeout_ms) {
  using R = common::Result<std::string>;
  if (fd_ < 0) return R::error("not connected");
  const bool bounded = timeout_ms != kNoDeadline;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    int wait_ms = -1;  // poll's "no timeout"
    if (bounded) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return R::error("timeout");
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
      wait_ms = static_cast<int>(std::max<long long>(1, left));
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return R::error(std::string("poll: ") + std::strerror(errno));
    }
    if (ready == 0) return R::error("timeout");
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) return R::error("connection closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      return R::error(std::string("recv: ") + std::strerror(errno));
    }
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

void Client::shutdown_send() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

}  // namespace warp::serve
