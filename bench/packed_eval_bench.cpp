// Packed-evaluation microbenchmark: iterations/sec of the WCLA kernel
// executor's lane-block engine swept across every supported width (W =
// 1/2/4 words, i.e. 64/128/256 iterations per fabric pass), plus the auto
// width mode.
//
// Host timing on a shared machine drifts by tens of percent between
// back-to-back runs, so every timed figure is taken in kRounds rounds: in
// each round the compared runs alternate (the widths and auto; the
// software and warped runs) kRunsPerRound times, and the round keeps each
// one's minimum. The bench reports the median of the round minimums and
// their spread, (max - min) / median.
//
// Kernels cover the engine's regimes: brev (pure wires, IO-dominated),
// matmul (MAC-bound), bitmnp (packed-eligible with real fabric logic),
// idct (large netlist whose hard-MAC products feed back into the fabric:
// packed in two stages around the MACs), and canrdr and crc (fabric-held
// XOR reductions carried across iterations: packed up to the state cone,
// whose few LUTs then run lane by lane). Each kernel goes through the full
// warp flow (profile -> DPM partition -> configure), the stub's real
// invocation is captured from the WCLA device, the trip count is scaled up
// (within the data BRAM) so timing is stable, and every width is checked
// bit-exact against the dataflow-graph reference (hwsim::reference_run)
// before timing.
//
// The sweep also times the bare fabric pass (PackedEvaluator::run on the
// kernel's mapped netlist, all stages in one pass) per width — the
// component the lane-block widening vectorizes — for every kernel with
// surviving packed nodes.
//
// Per registered workload it also times whole runs at default_options():
// the profiled software run of the original binary and the warped run of
// the patched one (host ms, rounds across all workloads), and their ratio,
// the warped/software ratio ROADMAP item 4 tracks. The warped run is where
// the WCLA's short invocations share lane blocks, so this is the
// per-kernel cost the simulator pays for warping. Each row also carries
// the kernel's port classes: the 64xW bit-matrix transposes one lane block
// pays, and the state bits it holds.
//
// Emits BENCH_packed_eval.json in the working directory so the performance
// trajectory is tracked in-repo.
//
// `--check`: skip all timing; verify bit-exactness of every width (and
// auto) against the DFG reference on all registered workloads, print a
// table with the reason of every 1-lane run, require idct's warped run,
// whose invocations share lane blocks, to leave the data image of its
// verify_hw warped run (every invocation alone, as 1-lane blocks checked
// against the DFG) at every width, and exit nonzero on any mismatch. No
// timing thresholds, so it is stable on shared CI runners.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "experiments/harness.hpp"
#include "hwsim/packed_eval.hpp"
#include "isa/assembler.hpp"
#include "warp/warp_system.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace warp;
using hwsim::KernelExecutor;
using hwsim::KernelInvocation;
using hwsim::PackedOptions;

constexpr unsigned kWidths[] = {1, 2, 4};

constexpr int kRounds = 7;
constexpr int kRunsPerRound = 15;

/// The median of kRounds round minimums and their spread.
struct Timing {
  double median = 0.0;
  double spread_pct = 0.0;  // (max - min) / median
};

Timing summarize(std::vector<double> minimums) {
  std::sort(minimums.begin(), minimums.end());
  Timing t;
  t.median = minimums[minimums.size() / 2];
  t.spread_pct = 100.0 * (minimums.back() - minimums.front()) / t.median;
  return t;
}

/// Round minimums (host ms) of `arms` compared runs: in each of kRounds
/// rounds, `run_ms(a)` runs every arm in turn, kRunsPerRound times, and the
/// round keeps each arm's minimum.
template <typename Fn>
std::vector<std::vector<double>> round_minimums(std::size_t arms, Fn&& run_ms) {
  std::vector<std::vector<double>> minimums(arms);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> best(arms, 1e300);
    for (int i = 0; i < kRunsPerRound; ++i) {
      for (std::size_t a = 0; a < arms; ++a) best[a] = std::min(best[a], run_ms(a));
    }
    for (std::size_t a = 0; a < arms; ++a) minimums[a].push_back(best[a]);
  }
  return minimums;
}

/// summarize() of the rates `iterations` per round minimum (ms) reaches.
Timing summarize_rate(std::vector<double> minimum_ms, double iterations) {
  for (double& v : minimum_ms) v = 1e3 * iterations / v;
  return summarize(std::move(minimum_ms));
}

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

struct WidthResult {
  unsigned width = 0;
  Timing iters_per_sec;
  bool full_blocks = false;  // ran full lane blocks, not 1-lane blocks
  bool bit_exact = false;
};

struct FabricPassResult {
  unsigned width = 0;
  Timing iters_per_sec;
  double speedup_vs_w1 = 0.0;
};

struct KernelResult {
  std::string name;
  std::uint64_t trip = 0;
  std::size_t luts = 0;
  std::size_t packed_nodes = 0;  // executor plan
  std::size_t fabric_nodes = 0;  // standalone plan timed by the fabric-pass sweep
  bool packed_supported = false;
  unsigned width_auto_choice = 0;  // 0: auto ran 1-lane blocks
  Timing auto_iters_per_sec;
  bool auto_bit_exact = false;
  std::vector<WidthResult> widths;       // executor sweep (packed kernels)
  std::vector<FabricPassResult> fabric;  // bare netlist pass (nodes > 0)
};

/// Host cost of simulating one workload's software and warped runs.
struct RunCost {
  std::string name;
  Timing software_ms;  // profiled software run, original binary
  Timing warped_ms;    // warped run, patched binary
  std::uint64_t invocations = 0;
  std::uint64_t packed_blocks = 0;
  hwsim::PortClasses port_classes;
};

/// The full warp flow for one workload (experiments::flow_workload), with
/// bench-style fail-fast error handling.
experiments::FlowedWorkload run_flow(const workloads::Workload& workload,
                                     std::uint64_t trip_cap) {
  auto flowed =
      experiments::flow_workload(workload, experiments::default_options(), trip_cap);
  if (!flowed) {
    std::fprintf(stderr, "%s failed\n", flowed.message().c_str());
    std::exit(1);
  }
  return std::move(flowed).value();
}

hwsim::KernelRunResult run_once(KernelExecutor& exec, sim::Memory& mem,
                                const KernelInvocation& inv) {
  auto result = exec.run(mem, inv);
  if (!result) {
    std::fprintf(stderr, "run failed: %s\n", result.message().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Iterations/sec of `inv` at each of `widths` (0: auto), alternated in
/// every round.
std::vector<Timing> time_widths(KernelExecutor& exec, sim::Memory& mem,
                                const KernelInvocation& inv,
                                const std::vector<unsigned>& widths) {
  auto minimums = round_minimums(widths.size(), [&](std::size_t w) {
    exec.set_packed_options(PackedOptions{widths[w]});
    return time_ms([&] { (void)run_once(exec, mem, inv); });
  });
  std::vector<Timing> out;
  for (auto& ms : minimums) out.push_back(summarize_rate(std::move(ms), inv.trip));
  return out;
}

/// Iterations per timed batch of bare fabric passes.
constexpr unsigned kFabricBatchLanes = 1u << 14;

/// Time the bare fabric pass (no executor IO) on the mapped netlist: in
/// every round, batches of kFabricBatchLanes iterations alternate over the
/// widths.
std::vector<FabricPassResult> time_fabric_pass(const techmap::LutNetlist& netlist,
                                               std::size_t* nodes_out) {
  std::vector<FabricPassResult> results;
  hwsim::PackedEvaluator evaluator(netlist);
  *nodes_out = evaluator.node_count();
  if (evaluator.node_count() == 0) return results;
  common::Rng rng(0x9E3779B9u);
  auto minimums = round_minimums(std::size(kWidths), [&](std::size_t w) {
    evaluator.set_width(kWidths[w]);  // inputs must be set again after
    for (std::size_t in = 0; in < evaluator.num_inputs(); ++in) {
      for (unsigned word = 0; word < kWidths[w]; ++word) {
        evaluator.set_input(in, word, rng.next_u64());
      }
    }
    return time_ms([&] {
      for (unsigned lanes = 0; lanes < kFabricBatchLanes; lanes += evaluator.lanes()) {
        evaluator.run();
      }
    });
  });
  for (std::size_t w = 0; w < std::size(kWidths); ++w) {
    FabricPassResult r;
    r.width = kWidths[w];
    r.iters_per_sec = summarize_rate(std::move(minimums[w]), kFabricBatchLanes);
    results.push_back(r);
  }
  for (auto& r : results) {
    r.speedup_vs_w1 = r.iters_per_sec.median / results.front().iters_per_sec.median;
  }
  return results;
}

KernelResult bench_kernel(const std::string& name) {
  KernelResult out;
  out.name = name;

  auto flowed = run_flow(workloads::workload_by_name(name), 1u << 16);
  KernelExecutor* exec = flowed.system->wcla().executor();
  sim::Memory& mem = flowed.system->data_mem();
  const KernelInvocation& inv = flowed.invocation;
  out.trip = inv.trip;
  out.luts = exec->config().netlist.luts.size();
  out.packed_nodes = exec->packed_node_count();
  out.packed_supported = exec->packed_supported();

  // The DFG reference: the golden memory image every width is compared
  // against (snapshot/restore so in-place kernels compare like for like).
  const std::vector<std::uint32_t> snapshot = mem.snapshot_words();
  const auto reference_acc = hwsim::reference_run(exec->kernel().ir, mem, inv);
  const std::uint64_t reference_sum = mem.checksum_words();

  // Each pinned width, then auto mode (the default configuration every
  // harness run uses), checked against the reference before any timing.
  std::vector<unsigned> timed;
  if (out.packed_supported) {
    for (const unsigned width : kWidths) {
      WidthResult r;
      r.width = width;
      exec->set_packed_options(PackedOptions{width});
      mem.load_words(0, snapshot);
      const auto run = run_once(*exec, mem, inv);
      r.full_blocks = run.scalar_reason == hwsim::ScalarReason::kNone;
      r.bit_exact = mem.checksum_words() == reference_sum && run.acc_final == reference_acc;
      out.widths.push_back(r);
      timed.push_back(width);
    }
  }
  exec->set_packed_options(PackedOptions{});
  mem.load_words(0, snapshot);
  const auto auto_run = run_once(*exec, mem, inv);
  out.width_auto_choice =
      auto_run.scalar_reason == hwsim::ScalarReason::kNone ? auto_run.packed_width : 0;
  out.auto_bit_exact = mem.checksum_words() == reference_sum && auto_run.acc_final == reference_acc;
  timed.push_back(0);

  const std::vector<Timing> rates = time_widths(*exec, mem, inv, timed);
  for (std::size_t w = 0; w < out.widths.size(); ++w) out.widths[w].iters_per_sec = rates[w];
  out.auto_iters_per_sec = rates.back();
  exec->set_packed_options(PackedOptions{});

  out.fabric = time_fabric_pass(exec->config().netlist, &out.fabric_nodes);
  return out;
}

/// One workload's two systems at default_options(): the original binary,
/// and the binary the DPM patched.
struct RunPair {
  std::unique_ptr<warpsys::WarpSystem> software;
  std::unique_ptr<warpsys::WarpSystem> warped;
};

/// Software and warped runs of every registered workload, all alternating
/// in every round, so a slow spell of the host hits one round of each, not
/// every round of one.
std::vector<RunCost> time_runs() {
  const experiments::HarnessOptions options = experiments::default_options();
  std::vector<RunPair> pairs;
  std::vector<RunCost> costs;
  for (const auto& workload : workloads::extended_workloads()) {
    auto program = isa::assemble(workload.source, options.cpu);
    if (!program) {
      std::fprintf(stderr, "%s: assemble: %s\n", workload.name.c_str(),
                   program.message().c_str());
      std::exit(1);
    }
    RunPair pair;
    pair.software =
        std::make_unique<warpsys::WarpSystem>(program.value(), workload.init, options.system);
    pair.warped =
        std::make_unique<warpsys::WarpSystem>(program.value(), workload.init, options.system);
    if (!pair.warped->run_software() || !pair.warped->warp().success) {
      std::fprintf(stderr, "%s: did not warp\n", workload.name.c_str());
      std::exit(1);
    }
    // Warm-up: the first touch of each system's memory and scratch.
    (void)pair.software->run_software();
    (void)pair.warped->run_warped();
    RunCost cost;
    cost.name = workload.name;
    cost.port_classes = pair.warped->wcla().executor()->port_classes();
    costs.push_back(cost);
    pairs.push_back(std::move(pair));
  }
  // Arm 2k is workload k's software run, arm 2k + 1 its warped run.
  auto minimums = round_minimums(2 * pairs.size(), [&](std::size_t arm) {
    RunPair& pair = pairs[arm / 2];
    RunCost& cost = costs[arm / 2];
    bool ok = true;
    const double ms = time_ms([&] {
      if (arm % 2 == 0) {
        ok = pair.software->run_software().is_ok();
        return;
      }
      auto run = pair.warped->run_warped();
      ok = run.is_ok();
      if (run) {
        cost.invocations = run.value().wcla.invocations;
        cost.packed_blocks = run.value().wcla.packed_blocks;
      }
    });
    if (!ok) {
      std::fprintf(stderr, "%s: run failed\n", cost.name.c_str());
      std::exit(1);
    }
    return ms;
  });
  for (std::size_t k = 0; k < costs.size(); ++k) {
    costs[k].software_ms = summarize(std::move(minimums[2 * k]));
    costs[k].warped_ms = summarize(std::move(minimums[2 * k + 1]));
  }
  return costs;
}

bool kernel_ok(const KernelResult& r) {
  bool ok = r.auto_bit_exact;
  for (const auto& w : r.widths) ok = ok && w.bit_exact;
  // Pinned widths AND the default auto mode must actually run full lane
  // blocks — a regression that silently fell back to 1-lane blocks would
  // otherwise keep CI green while losing the speed.
  for (const auto& w : r.widths) ok = ok && w.full_blocks;
  return ok && r.width_auto_choice != 0;
}

void write_json(const std::vector<KernelResult>& results, const std::vector<RunCost>& costs) {
  FILE* json = std::fopen("BENCH_packed_eval.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_packed_eval.json\n");
    std::exit(1);
  }
  std::fprintf(json, "{\n  \"bench\": \"packed_eval\",\n  \"widths\": [1, 2, 4],\n"
               "  \"kernels\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"trip\": %llu, \"luts\": %zu, "
                 "\"packed_nodes\": %zu, \"fabric_nodes\": %zu, \"packed_supported\": %s,\n"
                 "     \"width_auto_choice\": %u, \"auto_iters_per_sec\": %.4e, "
                 "\"auto_spread_pct\": %.1f, \"auto_bit_exact\": %s,\n"
                 "     \"executor_widths\": [",
                 r.name.c_str(), static_cast<unsigned long long>(r.trip), r.luts,
                 r.packed_nodes, r.fabric_nodes, r.packed_supported ? "true" : "false",
                 r.width_auto_choice, r.auto_iters_per_sec.median,
                 r.auto_iters_per_sec.spread_pct, r.auto_bit_exact ? "true" : "false");
    for (std::size_t w = 0; w < r.widths.size(); ++w) {
      const auto& wr = r.widths[w];
      std::fprintf(json,
                   "%s\n       {\"width\": %u, \"lanes\": %u, \"iters_per_sec\": %.4e, "
                   "\"spread_pct\": %.1f, \"bit_exact\": %s}",
                   w ? "," : "", wr.width, wr.width * hwsim::kPackedWordBits,
                   wr.iters_per_sec.median, wr.iters_per_sec.spread_pct,
                   wr.bit_exact ? "true" : "false");
    }
    std::fprintf(json, "],\n     \"fabric_pass\": [");
    for (std::size_t w = 0; w < r.fabric.size(); ++w) {
      const auto& fr = r.fabric[w];
      std::fprintf(json,
                   "%s\n       {\"width\": %u, \"lanes\": %u, \"iters_per_sec\": %.4e, "
                   "\"spread_pct\": %.1f, \"speedup_vs_w1\": %.3f}",
                   w ? "," : "", fr.width, fr.width * hwsim::kPackedWordBits,
                   fr.iters_per_sec.median, fr.iters_per_sec.spread_pct, fr.speedup_vs_w1);
    }
    std::fprintf(json, "]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"rounds\": %d,\n  \"runs_per_round\": %d,\n  \"runs\": [\n",
               kRounds, kRunsPerRound);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const auto& c = costs[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"software_ms\": %.4f, \"software_spread_pct\": %.1f, "
                 "\"warped_ms\": %.4f, \"warped_spread_pct\": %.1f, \"ratio\": %.3f,\n"
                 "     \"invocations\": %llu, \"packed_blocks\": %llu, "
                 "\"transposes_per_block\": %u, \"held_state_bits\": %u}%s\n",
                 c.name.c_str(), c.software_ms.median, c.software_ms.spread_pct,
                 c.warped_ms.median, c.warped_ms.spread_pct,
                 c.warped_ms.median / c.software_ms.median,
                 static_cast<unsigned long long>(c.invocations),
                 static_cast<unsigned long long>(c.packed_blocks),
                 c.port_classes.transposes_per_block(), c.port_classes.held_state_bits,
                 i + 1 < costs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_packed_eval.json\n");
}

/// --check: bit-exactness of every width and the auto mode against the
/// DFG reference, on every registered workload. No timing.
int run_check() {
  bool all_exact = true;
  bool any_fallback_regression = false;
  std::printf("packed-eval width check (DFG reference vs. lane-block widths)\n");
  std::printf("%-8s %8s %6s %9s %6s %8s %8s %8s %8s  %s\n", "kernel", "trip", "nodes",
              "supported", "auto_w", "W1", "W2", "W4", "auto", "1-lane reason");
  for (const auto& workload : workloads::extended_workloads()) {
    auto flowed = run_flow(workload, 2048);
    KernelExecutor* exec = flowed.system->wcla().executor();
    sim::Memory& mem = flowed.system->data_mem();
    const KernelInvocation& inv = flowed.invocation;

    const std::vector<std::uint32_t> snapshot = mem.snapshot_words();
    const auto reference_acc = hwsim::reference_run(exec->kernel().ir, mem, inv);
    const std::uint64_t reference_sum = mem.checksum_words();

    std::string cells[4];
    std::string reasons;  // distinct reasons of this kernel's 1-lane runs
    unsigned auto_width = 0;
    for (int pass = 0; pass < 4; ++pass) {
      const unsigned width = (pass < 3) ? kWidths[pass] : 0;  // 0: auto
      exec->set_packed_options(PackedOptions{width});
      mem.load_words(0, snapshot);
      const auto run = run_once(*exec, mem, inv);
      const bool exact = mem.checksum_words() == reference_sum && run.acc_final == reference_acc;
      const bool one_lane = run.scalar_reason != hwsim::ScalarReason::kNone;
      // Packed-capable kernels must not silently run 1-lane blocks — that
      // would hide an engine regression. (The registered workloads have no
      // block-size-dependent stream hazards, the one legitimate reason a
      // pinned width may drop to 1-lane blocks; a NOPACK cell on a future
      // workload means revisit this expectation, not that the results
      // disagree.)
      const bool unexpected_fallback = exec->packed_supported() && one_lane;
      all_exact = all_exact && exact;
      any_fallback_regression = any_fallback_regression || unexpected_fallback;
      if (pass == 3) auto_width = one_lane ? 0 : run.packed_width;
      cells[pass] = !exact ? "FAIL" : unexpected_fallback ? "NOPACK" : one_lane ? "1-lane" : "ok";
      const std::string reason = hwsim::scalar_reason_name(run.scalar_reason);
      if (one_lane && reasons.find(reason) == std::string::npos) {
        reasons += (reasons.empty() ? "" : ", ") + reason;
      }
    }
    std::printf("%-8s %8llu %6zu %9s %6u %8s %8s %8s %8s  %s\n", workload.name.c_str(),
                static_cast<unsigned long long>(inv.trip), exec->packed_node_count(),
                exec->packed_supported() ? "yes" : "no", auto_width, cells[0].c_str(),
                cells[1].c_str(), cells[2].c_str(), cells[3].c_str(),
                reasons.empty() ? "-" : reasons.c_str());
  }
  std::printf("1-lane = bit-exact, but ran 1-lane blocks (reason in the last column)\n");

  // idct's 96 trip-8 invocations share lane blocks in the warped run: at
  // every width, the whole run must leave the image of the verify_hw run
  // (which queues nothing: every invocation runs alone, as 1-lane blocks
  // each checked against the DFG), in fewer blocks than invocations.
  auto idct = run_flow(workloads::workload_by_name("idct"), 0);
  hwsim::WclaDevice& wcla = idct.system->wcla();
  std::printf("idct warped run, shared blocks vs. verify_hw:");
  for (const unsigned width : {0u, 1u, 2u, 4u}) {
    wcla.executor()->set_packed_options(PackedOptions{width});
    wcla.set_verify(true);
    const auto verified_run = idct.system->run_warped();
    const std::uint64_t verified_sum = idct.system->data_mem().checksum_words();
    wcla.set_verify(false);
    const auto shared_run = idct.system->run_warped();
    const bool ran = verified_run.is_ok() && shared_run.is_ok();
    const hwsim::WclaStats stats = ran ? shared_run.value().wcla : hwsim::WclaStats{};
    const hwsim::WclaStats verified = ran ? verified_run.value().wcla : hwsim::WclaStats{};
    const bool exact =
        ran && idct.system->data_mem().checksum_words() == verified_sum &&
        verified.runs_by_reason[static_cast<std::size_t>(hwsim::ScalarReason::kVerify)] ==
            verified.invocations;
    const bool shared = stats.packed_blocks != 0 && stats.packed_blocks < stats.invocations;
    all_exact = all_exact && exact && shared;
    std::printf("  W%u %llu blocks/%llu %s", width,
                static_cast<unsigned long long>(stats.packed_blocks),
                static_cast<unsigned long long>(stats.invocations),
                !exact ? "FAIL" : shared ? "ok" : "UNSHARED");
  }
  std::printf("  (W0 = auto)\n");
  if (!all_exact) {
    std::fprintf(stderr, "FAIL: a run disagrees with the DFG reference\n");
    return 1;
  }
  if (any_fallback_regression) {
    std::fprintf(stderr,
                 "FAIL: full lane blocks never engaged on a packed-capable kernel "
                 "(NOPACK above) — results are still bit-exact, but the engine "
                 "regressed to 1-lane blocks\n");
    return 1;
  }
  std::printf("all widths bit-exact\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) return run_check();

  const char* const kernels[] = {
      "brev",    // pure wires, IO-dominated
      "matmul",  // MAC-bound
      "bitmnp",  // packed-eligible with real fabric logic
      "idct",    // large netlist, staged around MAC-result feedback
      "canrdr",  // fabric-held XOR state beside a MAC add: 8-LUT state cone
      "crc",     // fabric-held XOR state: 8-LUT state cone
  };
  std::vector<KernelResult> results;
  for (const char* name : kernels) results.push_back(bench_kernel(name));
  const std::vector<RunCost> costs = time_runs();

  std::printf("packed-eval microbenchmark (lane-block widths 1/2/4 = 64/128/256 iters/pass; "
              "median of %d round minimums, spread in %%)\n",
              kRounds);
  std::printf("%-8s %8s %6s %6s | %-46s | %6s %18s\n", "kernel", "trip", "luts", "nodes",
              "executor it/s (W1 / W2 / W4)", "auto_w", "auto it/s");
  bool all_ok = true;
  for (const auto& r : results) {
    char widths[96] = "1-lane blocks";
    if (!r.widths.empty()) {
      std::snprintf(widths, sizeof(widths), "%.2e %2.0f / %.2e %2.0f / %.2e %2.0f",
                    r.widths[0].iters_per_sec.median, r.widths[0].iters_per_sec.spread_pct,
                    r.widths[1].iters_per_sec.median, r.widths[1].iters_per_sec.spread_pct,
                    r.widths[2].iters_per_sec.median, r.widths[2].iters_per_sec.spread_pct);
    }
    std::printf("%-8s %8llu %6zu %6zu | %-46s | %6u %12.3e %4.0f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.trip), r.luts, r.packed_nodes, widths,
                r.width_auto_choice, r.auto_iters_per_sec.median,
                r.auto_iters_per_sec.spread_pct);
    if (!r.fabric.empty()) {
      std::printf("  fabric pass: W1 %.3e  W2 %.3e (%.2fx)  W4 %.3e (%.2fx) it/s\n",
                  r.fabric[0].iters_per_sec.median, r.fabric[1].iters_per_sec.median,
                  r.fabric[1].speedup_vs_w1, r.fabric[2].iters_per_sec.median,
                  r.fabric[2].speedup_vs_w1);
    }
    all_ok = all_ok && kernel_ok(r);
  }

  std::printf("\nwhole runs at default_options (host ms: median of %d round minimums of %d "
              "alternating runs, spread in %%)\n",
              kRounds, kRunsPerRound);
  std::printf("%-8s %16s %16s %7s %12s %14s %11s %5s\n", "kernel", "software ms", "warped ms",
              "ratio", "invocations", "packed blocks", "transposes", "held");
  for (const auto& c : costs) {
    std::printf("%-8s %10.3f %4.0f%% %10.3f %4.0f%% %7.2f %12llu %14llu %11u %5u\n",
                c.name.c_str(), c.software_ms.median, c.software_ms.spread_pct,
                c.warped_ms.median, c.warped_ms.spread_pct,
                c.warped_ms.median / c.software_ms.median,
                static_cast<unsigned long long>(c.invocations),
                static_cast<unsigned long long>(c.packed_blocks),
                c.port_classes.transposes_per_block(), c.port_classes.held_state_bits);
  }

  write_json(results, costs);

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: a width disagrees with the DFG reference or full lane blocks "
                 "never engaged\n");
    return 1;
  }
  return 0;
}
