// warpbench: the warp-session benchmark program.
//
//   warpbench --workload <paper_cold|warpd_warm|sw_profile> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Run from the repository root. Prints human-readable lines (reference
// checks, the paper comparison, layer shares when tracing), then as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
//
//   warpbench --print-reference    the pinned-digest file's contents
//   warpbench --daemon <socket>    internal: the warpd_warm daemon
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "daemon.hpp"
#include "workloads.hpp"

namespace {

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  if (text[0] == '-' || text[0] == '\0') return false;
  out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

int usage(const char* message) {
  std::fprintf(stderr,
               "warpbench: %s\nusage: warpbench --workload <paper_cold|warpd_warm|sw_profile> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

std::string self_exe() {
  std::error_code ec;
  return std::filesystem::read_symlink("/proc/self/exe", ec).string();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  RunOptions options;
  std::uint64_t trace = 0, seconds = 0;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-reference") {
      print_reference();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--daemon") return daemon_main(value);
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, options.seed)) return usage("--seed expects an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0 || seconds > 120) {
        return usage("--seconds expects an integer in 1..120");
      }
      options.seconds = static_cast<double>(seconds);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage("--trace expects 0 or 1");
      options.trace = trace == 1;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return usage("--workload, --seed and --seconds are required");
  }
  bool known = false;
  for (const auto& name : workload_names()) known = known || name == options.workload;
  if (!known) return usage(("unknown workload " + options.workload).c_str());

  options.exe = self_exe();
  options.work_dir = ".bench_build/run";
  options.pinned_path = "perfbench/reference_digests.txt";
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec || !std::filesystem::exists(options.pinned_path)) {
    std::fprintf(stderr, "warpbench: run from the repository root\n");
    return 2;
  }

  const RunReport report = run_workload(options);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct && report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
