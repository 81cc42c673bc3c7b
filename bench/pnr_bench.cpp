// PnR microbenchmark: place and route wall clock of the lean on-chip CAD
// stage on every kernel's mapped netlist (the exact PnR input the DPM sees).
//
//   - placement: the annealer with its metered moves' delta evaluations
//     (distinct nets rescanned per move, summed);
//   - routing: the selective rip-up router on that placement, with its
//     congestion iterations, rerouted nets and metered A* expansions (the
//     DPM time model charges per expansion).
//
// Timings are per-call medians. Emits BENCH_pnr.json in the working
// directory so the performance trajectory is tracked in-repo. Exits nonzero
// if place or route fails on any kernel — timings are reported, not gated
// (machine-dependent).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiments/harness.hpp"
#include "fabric/wcla.hpp"
#include "pnr/pnr.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace warp;

struct KernelResult {
  std::string name;
  std::size_t luts = 0;
  std::size_t nets = 0;
  double place_ms = 0.0;
  std::uint64_t delta_evaluations = 0;
  double route_ms = 0.0;
  unsigned route_iterations = 0;
  std::uint64_t nets_rerouted = 0;
  std::uint64_t expansions = 0;
  double critical_path_ns = 0.0;
  std::string content_hash;
};

// Median of at least 5 repetitions spanning at least `min_seconds`: one
// slow repetition on a shared host does not move it.
template <typename F>
double time_ms(F&& run, double min_seconds = 0.25) {
  run();  // warm-up
  std::vector<double> reps_ms;
  double elapsed_ms = 0.0;
  while (reps_ms.size() < 5 || elapsed_ms < min_seconds * 1e3) {
    const auto start = std::chrono::steady_clock::now();
    run();
    reps_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count());
    elapsed_ms += reps_ms.back();
  }
  std::sort(reps_ms.begin(), reps_ms.end());
  return reps_ms[reps_ms.size() / 2];
}

KernelResult bench_kernel(const workloads::Workload& workload) {
  KernelResult out;
  out.name = workload.name;

  const auto options = experiments::default_options();
  auto netlist = experiments::partition_netlist(workload, options);
  if (!netlist) {
    std::fprintf(stderr, "%s: %s\n", out.name.c_str(), netlist.message().c_str());
    std::exit(1);
  }
  const fabric::FabricGeometry geometry;  // the DPM's default fabric
  out.luts = netlist.value().luts.size();

  const pnr::PnrOptions pnr_options;  // defaults, as the DPM runs them

  auto placed_and_routed = pnr::place_and_route(netlist.value(), geometry, pnr_options);
  if (!placed_and_routed) {
    std::fprintf(stderr, "%s: place and route failed: %s\n", out.name.c_str(),
                 placed_and_routed.message().c_str());
    std::exit(1);
  }
  const pnr::PlaceResult& placed = placed_and_routed.value().place;
  const pnr::RouteResult& routed = placed_and_routed.value().route;
  out.delta_evaluations = placed.delta_evaluations;
  out.route_iterations = routed.iterations;
  out.nets_rerouted = routed.nets_rerouted;
  out.expansions = routed.expansions;
  out.critical_path_ns = routed.critical_path_ns;
  out.nets = routed.routes.size();
  out.content_hash = pnr::content_hash(placed_and_routed.value()).to_string();

  out.place_ms =
      time_ms([&] { (void)pnr::place(netlist.value(), geometry, pnr_options.place); });
  out.route_ms =
      time_ms([&] { (void)pnr::route(netlist.value(), geometry, placed, pnr_options.route); });
  return out;
}

}  // namespace

int main() {
  std::vector<KernelResult> results;
  for (const auto& workload : workloads::extended_workloads()) {
    results.push_back(bench_kernel(workload));
  }

  std::printf("pnr microbenchmark: annealing placer, selective router\n");
  std::printf("%-8s %5s %5s %10s %11s %10s %5s %8s %10s\n", "kernel", "luts", "nets",
              "place ms", "delta evals", "route ms", "iters", "rerouted", "expansions");
  double sum_place_ms = 0.0, sum_route_ms = 0.0;
  for (const auto& r : results) {
    std::printf("%-8s %5zu %5zu %10.3f %11llu %10.3f %5u %8llu %10llu\n", r.name.c_str(),
                r.luts, r.nets, r.place_ms,
                static_cast<unsigned long long>(r.delta_evaluations), r.route_ms,
                r.route_iterations, static_cast<unsigned long long>(r.nets_rerouted),
                static_cast<unsigned long long>(r.expansions));
    sum_place_ms += r.place_ms;
    sum_route_ms += r.route_ms;
  }
  std::printf("%zu-kernel total: place %.1f ms, route %.1f ms\n", results.size(),
              sum_place_ms, sum_route_ms);

  FILE* json = std::fopen("BENCH_pnr.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_pnr.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"pnr\",\n"
               "  \"total_place_ms\": %.4f,\n  \"total_route_ms\": %.4f,\n"
               "  \"kernels\": [\n",
               sum_place_ms, sum_route_ms);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"luts\": %zu, \"nets\": %zu,\n"
        "     \"place_ms\": %.4f, \"delta_evaluations\": %llu,\n"
        "     \"route_ms\": %.4f, \"route_iterations\": %u, \"nets_rerouted\": %llu,\n"
        "     \"expansions\": %llu, \"critical_path_ns\": %.3f,\n"
        "     \"content_hash\": \"%s\"}%s\n",
        r.name.c_str(), r.luts, r.nets, r.place_ms,
        static_cast<unsigned long long>(r.delta_evaluations), r.route_ms, r.route_iterations,
        static_cast<unsigned long long>(r.nets_rerouted),
        static_cast<unsigned long long>(r.expansions), r.critical_path_ns,
        r.content_hash.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_pnr.json\n");
  return 0;
}
