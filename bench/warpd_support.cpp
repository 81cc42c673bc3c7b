#include "warpd_support.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "serve/server.hpp"
#include "serve/warpd.hpp"

namespace warp::bench {

pid_t spawn_self(const std::vector<std::string>& args, const std::string& socket_path,
                 const std::string& label) {
  std::vector<std::string> argv_store = {"/proc/self/exe"};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& arg : argv_store) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "fork failed: %s\n", std::strerror(errno));
    std::exit(1);
  }
  if (pid == 0) {
    ::execv("/proc/self/exe", argv.data());
    std::fprintf(stderr, "execv failed: %s\n", std::strerror(errno));
    ::_exit(127);
  }
  // Ready when the socket accepts a connection (start() binds before the
  // child's supervisor loop runs, so this is quick).
  for (int attempt = 0; attempt < 400; ++attempt) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      std::fprintf(stderr, "%s died during startup (status %d)\n", label.c_str(), status);
      std::exit(1);
    }
    serve::Client probe;
    if (probe.connect(socket_path)) return pid;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  std::fprintf(stderr, "%s never became reachable on %s\n", label.c_str(),
               socket_path.c_str());
  ::kill(pid, SIGKILL);
  std::exit(1);
}

ExitInfo reap(pid_t pid) {
  int status = 0;
  ExitInfo info;
  if (::waitpid(pid, &status, 0) != pid) return info;
  info.exited = WIFEXITED(status);
  if (info.exited) info.exit_code = WEXITSTATUS(status);
  info.signaled = WIFSIGNALED(status);
  if (info.signaled) info.signal = WTERMSIG(status);
  return info;
}

std::string control_rpc(const std::string& socket_path, const std::string& line) {
  serve::Client client;
  if (const auto status = client.connect(socket_path); !status) {
    std::fprintf(stderr, "control connect %s failed: %s\n", socket_path.c_str(),
                 status.message().c_str());
    std::exit(1);
  }
  if (const auto status = client.send_line(line); !status) {
    std::fprintf(stderr, "control send failed: %s\n", status.message().c_str());
    std::exit(1);
  }
  auto reply = client.read_line_for(60'000);
  if (!reply) {
    std::fprintf(stderr, "control '%s' on %s got no reply: %s\n", line.c_str(),
                 socket_path.c_str(), reply.message().c_str());
    std::exit(1);
  }
  return reply.value();
}

std::uint64_t StatsLine::get(const char* key) const {
  const auto it = values.find(key);
  return it == values.end() ? 0 : it->second;
}

StatsLine query_stats(const std::string& socket_path) {
  StatsLine stats;
  for (const auto field : common::split(control_rpc(socket_path, "stats"), " ")) {
    const auto eq = field.find('=');
    if (eq == std::string_view::npos) continue;
    stats.values[std::string(field.substr(0, eq))] =
        std::strtoull(std::string(field.substr(eq + 1)).c_str(), nullptr, 10);
  }
  return stats;
}

std::string key_of(const serve::protocol::Request& request) {
  const auto& o = request.overrides;
  return common::format("%s|%d|%d|%d", request.workload.c_str(),
                        o.packed_width ? static_cast<int>(*o.packed_width) : -1,
                        o.max_candidates ? static_cast<int>(*o.max_candidates) : -1,
                        o.csd_max_terms ? static_cast<int>(*o.csd_max_terms) : -1);
}

bool pure_fields_match(const warpsys::MultiWarpEntry& a, const warpsys::MultiWarpEntry& b) {
  return a.name == b.name && a.detail == b.detail && a.sw_seconds == b.sw_seconds &&
         a.warped_seconds == b.warped_seconds && a.speedup == b.speedup &&
         a.dpm_seconds == b.dpm_seconds && a.warped == b.warped;
}

std::map<std::string, warpsys::MultiWarpEntry> make_references(
    const std::vector<serve::protocol::Request>& requests) {
  std::map<std::string, warpsys::MultiWarpEntry> references;
  std::vector<serve::protocol::Request> distinct;
  for (const auto& request : requests) {
    if (references.emplace(key_of(request), warpsys::MultiWarpEntry{}).second) {
      serve::protocol::Request bare = request;
      bare.id = distinct.size();
      bare.seq.reset();
      bare.deadline_ms.reset();
      distinct.push_back(bare);
    }
  }
  serve::WarpdOptions options;
  options.base = experiments::default_options();
  const auto outcomes = serve::run_serial(distinct, options);
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    if (!outcomes[i].error.empty()) {
      std::fprintf(stderr, "serial reference rejected %s: %s\n",
                   distinct[i].workload.c_str(), outcomes[i].error.c_str());
      std::exit(1);
    }
    references[key_of(distinct[i])] = outcomes[i].entry;
  }
  return references;
}

bool verify_wait_chain(std::vector<std::pair<double, double>> chain, bool exact,
                       const std::string& label) {
  std::sort(chain.begin(), chain.end());
  warpsys::DpmVirtualClock clock;  // round robin, as the engine's sequencing
  double lower = 0.0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const auto [wait, dpm] = chain[i];
    if (exact) {
      const double expect = clock.start(0.0);
      if (wait != expect) {
        std::printf("  FAIL %s: wait chain diverges at reply %zu: wait=%.17g expected=%.17g\n",
                    label.c_str(), i, wait, expect);
        return false;
      }
      clock.finish(dpm);
    } else {
      if (wait + 1e-9 < lower) {
        std::printf("  FAIL %s: wait chain below lower bound at reply %zu: %.17g < %.17g\n",
                    label.c_str(), i, wait, lower);
        return false;
      }
      lower = wait + dpm;
    }
  }
  return true;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace warp::bench
