#include "daemon.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "probe.hpp"
#include "serve/server.hpp"

extern char** environ;

namespace perfbench {

using namespace warp;
using Clock = std::chrono::steady_clock;

namespace {

// Host speed probes of an open-loop pass, all at this interval: a few
// before it and after it, and attempts during it that are kept when no
// request was in flight, so that the daemon's own load never slows a probe.
constexpr int kProbeBurst = 8;
constexpr auto kProbeInterval = std::chrono::milliseconds(100);

void probe_idle(std::vector<double>& probes_ms) {
  for (int i = 0; i < kProbeBurst; ++i) {
    std::this_thread::sleep_for(kProbeInterval);
    probes_ms.push_back(probe_ms());
  }
}

}  // namespace

int daemon_main(const std::string& socket_path) {
  partition::ArtifactCache cache;
  serve::SocketServerOptions options;
  options.path = socket_path;
  options.engine.base = experiments::default_options();
  options.engine.cache = &cache;
  serve::SocketServer server(options);
  if (const auto status = server.start(); !status) {
    std::fprintf(stderr, "warpbench daemon: %s\n", status.message().c_str());
    return 1;
  }
  while (std::getchar() != EOF) {
  }
  server.stop();
  return 0;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

common::Result<std::unique_ptr<Daemon>> Daemon::spawn(const std::string& exe,
                                                       const std::string& socket_path) {
  using R = common::Result<std::unique_ptr<Daemon>>;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return R::error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[0], 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  std::vector<std::string> args{exe, "--daemon", socket_path};
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[0]);
  if (rc != 0) {
    ::close(fds[1]);
    return R::error("posix_spawn failed");
  }
  return std::unique_ptr<Daemon>(new Daemon(pid, fds[1], socket_path));
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (pid_ <= 0) return;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = 0;
  ::unlink(socket_path_.c_str());
}

common::Status wait_listening(const std::string& socket_path, unsigned timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    serve::Client client;
    if (client.connect(socket_path)) return common::Status::ok();
    if (Clock::now() > deadline) return common::Status::error("daemon never listened");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<std::optional<serve::protocol::Reply>> run_in_turn(
    const std::string& socket_path, const std::vector<serve::protocol::Request>& requests) {
  std::vector<std::optional<serve::protocol::Reply>> replies(requests.size());
  serve::Client client;
  if (!client.connect(socket_path)) return replies;
  for (const auto& request : requests) {
    if (!client.send_line(serve::protocol::encode_request(request))) break;
    auto line = client.read_line_for(60'000);
    if (!line) break;
    auto reply = serve::protocol::parse_reply(line.value());
    if (reply && reply.value().id < replies.size()) {
      replies[reply.value().id] = std::move(reply).value();
    }
  }
  return replies;
}

OpenLoopResult run_open_loop(const std::string& socket_path, unsigned connections,
                             const std::vector<serve::protocol::Request>& requests,
                             const std::vector<double>& due_s) {
  const std::size_t n = requests.size();
  OpenLoopResult out;
  out.replies.resize(n);
  out.latency_ms.assign(n, std::numeric_limits<double>::quiet_NaN());
  out.lag_ms.assign(n, 0.0);
  std::vector<Clock::time_point> reply_at(n);

  std::vector<std::unique_ptr<serve::Client>> clients;
  std::vector<std::size_t> expected(connections, 0);
  for (unsigned c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<serve::Client>());
    if (!clients.back()->connect(socket_path)) return out;  // every reply missing
  }
  for (std::size_t i = 0; i < n; ++i) ++expected[i % connections];

  probe_idle(out.probes_ms);
  std::atomic<std::size_t> sent{0}, received{0};
  const Clock::time_point start = Clock::now();
  auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };
  std::vector<std::thread> readers;
  for (unsigned c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      for (std::size_t got = 0; got < expected[c]; ++got) {
        auto line = clients[c]->read_line_for(60'000);
        if (!line) return;
        auto reply = serve::protocol::parse_reply(line.value());
        if (!reply || reply.value().id >= n) continue;
        const std::size_t id = reply.value().id;
        reply_at[id] = Clock::now();
        out.replies[id] = std::move(reply).value();
        ++received;
      }
    });
  }
  std::atomic<bool> replied{false};
  std::thread prober([&] {
    while (!replied.load()) {
      const std::size_t before = sent.load();
      if (received.load() == before) {
        const double ms = probe_ms();
        if (sent.load() == before) out.probes_ms.push_back(ms);
      }
      std::this_thread::sleep_for(kProbeInterval);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due(i));
    ++sent;
    out.lag_ms[i] = std::chrono::duration<double, std::milli>(Clock::now() - due(i)).count();
    if (!clients[i % connections]->send_line(serve::protocol::encode_request(requests[i]))) {
      break;
    }
  }
  for (auto& reader : readers) reader.join();
  replied = true;
  prober.join();
  probe_idle(out.probes_ms);

  Clock::time_point last = start;
  for (std::size_t i = 0; i < n; ++i) {
    if (!out.replies[i]) continue;
    out.latency_ms[i] = std::chrono::duration<double, std::milli>(reply_at[i] - due(i)).count();
    last = std::max(last, reply_at[i]);
  }
  out.wall_s = std::chrono::duration<double>(last - start).count();
  return out;
}

common::Result<std::map<std::string, std::uint64_t>> query_stats(
    const std::string& socket_path) {
  using R = common::Result<std::map<std::string, std::uint64_t>>;
  serve::Client client;
  if (auto status = client.connect(socket_path); !status) return R::error(status.message());
  if (auto status = client.send_line("stats"); !status) return R::error(status.message());
  auto line = client.read_line_for(10'000);
  if (!line) return R::error(line.message());
  std::map<std::string, std::uint64_t> stats;
  std::istringstream fields(line.value());
  std::string field;
  fields >> field;  // "stats"
  while (fields >> field) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) continue;
    stats[field.substr(0, eq)] = std::strtoull(field.c_str() + eq + 1, nullptr, 10);
  }
  return stats;
}

}  // namespace perfbench
