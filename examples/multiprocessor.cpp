// Multi-processor warp system (paper Figure 4).
//
// Builds a four-processor system — two CAN readers, a fax decoder and a
// matrix multiply, the kind of mix the paper's multi-core FPGA argument
// targets — served by ONE dynamic partitioning module in round-robin
// fashion. Each processor keeps its own profiler; the shared DPM warps them
// one after another, so later processors wait longer before their kernels
// come online.
//
// Host-side, the default engine is threaded: warpd's workers run the
// software/warped simulations and take turns running the partitioning
// jobs on the one DPM, and the waits follow the virtual-time queue. The
// serial engine (parallel = false) computes the exact same table — this
// example cross-checks that guarantee.
#include <cstdio>
#include <cstdlib>

#include "experiments/harness.hpp"
#include "serve/multiprocessor.hpp"

namespace {

std::vector<std::unique_ptr<warp::warpsys::WarpSystem>> build_systems(
    const std::vector<std::string>& mix) {
  using namespace warp;
  auto built = experiments::build_warp_systems(mix, experiments::default_options());
  if (!built) {
    std::printf("build systems failed: %s\n", built.message().c_str());
    std::exit(1);
  }
  return std::move(built).value();
}

}  // namespace

int main() {
  using namespace warp;
  const std::vector<std::string> mix = {"canrdr", "g3fax", "canrdr", "matmul"};

  std::printf("four MicroBlaze processors, one shared DPM (round robin):\n\n");
  auto systems = build_systems(mix);
  const auto entries = serve::run_multiprocessor(systems, mix);  // threaded engine
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    std::printf("cpu%zu %-7s: sw %7.3f ms -> warped %7.3f ms (%.2fx)"
                "  [DPM job %.1f ms after waiting %.1f ms]\n",
                i, e.name.c_str(), e.sw_seconds * 1e3, e.warped_seconds * 1e3, e.speedup,
                e.dpm_seconds * 1e3, e.dpm_wait_seconds * 1e3);
  }

  // Verify results on every processor after warping.
  bool all_ok = true;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const auto check = workloads::workload_by_name(mix[i]).check(systems[i]->data_mem());
    if (!check) {
      std::printf("cpu%zu result check FAILED: %s\n", i, check.message().c_str());
      all_ok = false;
    }
  }
  std::printf("\nall results bit-exact after warping: %s\n", all_ok ? "yes" : "NO");

  // The parallel engine is a host-side optimization only: the serial
  // reference engine must produce the identical table.
  serve::MultiWarpOptions serial;
  serial.parallel = false;
  auto serial_systems = build_systems(mix);
  const auto reference = serve::run_multiprocessor(serial_systems, mix, serial);
  const bool identical = reference == entries;
  std::printf("threaded engine matches the serial reference bit-for-bit: %s\n",
              identical ? "yes" : "NO");
  return (all_ok && identical) ? 0 : 1;
}
