// Packed-evaluation microbenchmark: iterations/sec of the WCLA kernel
// executor with the scalar reference engine vs. the packed lane-block
// engine swept across every supported width (W = 1/2/4 words, i.e.
// 64/128/256 iterations per fabric pass), plus the auto width mode.
//
// Kernels cover the engine's regimes: brev (pure wires, IO-dominated),
// matmul (MAC-bound), bitmnp (packed-eligible with real fabric logic),
// idct (large netlist whose hard-MAC products feed back into the fabric:
// packed in two stages around the MACs), and canrdr and crc (fabric-held
// XOR reductions carried across iterations: packed up to the state cone,
// whose few LUTs then run lane by lane). Each kernel goes through the full
// warp flow (profile -> DPM partition -> configure), the stub's real
// invocation is captured from the WCLA device, the trip count is scaled up
// (within the data BRAM) so timing is stable, and every engine/width is
// checked bit-exact against the scalar reference before timing.
//
// The sweep also times the bare fabric pass (PackedEvaluator::run on the
// kernel's mapped netlist, all stages in one pass) per width — the
// component the lane-block widening vectorizes — for every kernel with
// surviving packed nodes.
//
// Emits BENCH_packed_eval.json in the working directory so the performance
// trajectory is tracked in-repo.
//
// `--check`: skip all timing; verify bit-exactness of every width (and
// auto) against the scalar engine on all registered workloads, print a
// table with the reason of every scalar run, and exit nonzero on any
// mismatch. No timing thresholds, so it is stable on shared CI runners.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
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

struct WidthResult {
  unsigned width = 0;
  double iters_per_sec = 0.0;
  double speedup = 0.0;  // vs. the scalar reference engine
  std::uint64_t packed_iterations = 0;
  bool bit_exact = false;
};

struct FabricPassResult {
  unsigned width = 0;
  double iters_per_sec = 0.0;
  double speedup_vs_w1 = 0.0;
};

struct KernelResult {
  std::string name;
  std::uint64_t trip = 0;
  std::size_t luts = 0;
  std::size_t packed_nodes = 0;  // executor plan (0 when the kernel falls back)
  std::size_t fabric_nodes = 0;  // standalone plan timed by the fabric-pass sweep
  bool packed_supported = false;
  double scalar_iters_per_sec = 0.0;
  unsigned width_auto_choice = 0;  // 0: auto fell back to the scalar engine
  std::uint64_t auto_packed_iterations = 0;
  double auto_iters_per_sec = 0.0;
  bool auto_bit_exact = false;
  std::vector<WidthResult> widths;       // executor sweep (packed kernels)
  std::vector<FabricPassResult> fabric;  // bare netlist pass (nodes > 0)
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

double time_engine(KernelExecutor& exec, sim::Memory& mem, const KernelInvocation& inv,
                   double min_seconds) {
  (void)run_once(exec, mem, inv);  // warm-up
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t runs = 0;
  double elapsed = 0.0;
  do {
    (void)run_once(exec, mem, inv);
    ++runs;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(inv.trip) * static_cast<double>(runs) / elapsed;
}

/// Time the bare fabric pass (no executor IO) on the mapped netlist.
std::vector<FabricPassResult> time_fabric_pass(const techmap::LutNetlist& netlist,
                                               double min_seconds, std::size_t* nodes_out) {
  std::vector<FabricPassResult> results;
  hwsim::PackedEvaluator evaluator(netlist);
  *nodes_out = evaluator.node_count();
  if (evaluator.node_count() == 0) return results;
  common::Rng rng(0x9E3779B9u);
  for (const unsigned width : kWidths) {
    evaluator.set_width(width);
    for (std::size_t i = 0; i < evaluator.num_inputs(); ++i) {
      for (unsigned w = 0; w < width; ++w) evaluator.set_input(i, w, rng.next_u64());
    }
    evaluator.run();  // warm-up
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t passes = 0;
    double elapsed = 0.0;
    do {
      evaluator.run();
      ++passes;
      elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (elapsed < min_seconds);
    FabricPassResult r;
    r.width = width;
    r.iters_per_sec = static_cast<double>(passes) * evaluator.lanes() / elapsed;
    results.push_back(r);
  }
  for (auto& r : results) r.speedup_vs_w1 = r.iters_per_sec / results.front().iters_per_sec;
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

  // Scalar reference: baseline timing and the golden memory image every
  // width is compared against (snapshot/restore so in-place kernels
  // compare like for like).
  const std::vector<std::uint32_t> snapshot = mem.snapshot_words();
  exec->set_engine(KernelExecutor::EvalEngine::kScalar);
  const auto scalar_run = run_once(*exec, mem, inv);
  const std::uint64_t scalar_sum = mem.checksum_words();
  out.scalar_iters_per_sec = time_engine(*exec, mem, inv, 0.4);
  exec->set_engine(KernelExecutor::EvalEngine::kAuto);

  auto check_width = [&](unsigned width) {
    WidthResult r;
    r.width = width;
    exec->set_packed_options(PackedOptions{width});
    mem.load_words(0, snapshot);
    const auto run = run_once(*exec, mem, inv);
    r.packed_iterations = run.packed_iterations;
    r.bit_exact = mem.checksum_words() == scalar_sum && run.acc_final == scalar_run.acc_final;
    return r;
  };

  if (out.packed_supported) {
    for (const unsigned width : kWidths) {
      WidthResult r = check_width(width);
      r.iters_per_sec = time_engine(*exec, mem, inv, 0.4);
      r.speedup = r.iters_per_sec / out.scalar_iters_per_sec;
      out.widths.push_back(r);
    }
  }

  // Auto mode (the default configuration every harness run uses).
  exec->set_packed_options(PackedOptions{});
  mem.load_words(0, snapshot);
  const auto auto_run = run_once(*exec, mem, inv);
  out.width_auto_choice = auto_run.packed_width;
  out.auto_packed_iterations = auto_run.packed_iterations;
  out.auto_bit_exact =
      mem.checksum_words() == scalar_sum && auto_run.acc_final == scalar_run.acc_final;
  out.auto_iters_per_sec = time_engine(*exec, mem, inv, 0.4);

  out.fabric = time_fabric_pass(exec->config().netlist, 0.4, &out.fabric_nodes);
  return out;
}

bool kernel_ok(const KernelResult& r) {
  bool ok = r.auto_bit_exact;
  for (const auto& w : r.widths) ok = ok && w.bit_exact;
  // Pinned widths AND the default auto mode must actually engage the
  // packed engine — a regression that silently fell back to scalar would
  // otherwise keep CI green while losing the speedup.
  for (const auto& w : r.widths) ok = ok && w.packed_iterations > 0;
  return ok && r.width_auto_choice != 0 && r.auto_packed_iterations > 0;
}

void write_json(const std::vector<KernelResult>& results) {
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
                 "     \"scalar_iters_per_sec\": %.4e, \"width_auto_choice\": %u, "
                 "\"auto_iters_per_sec\": %.4e, \"auto_bit_exact\": %s,\n"
                 "     \"executor_widths\": [",
                 r.name.c_str(), static_cast<unsigned long long>(r.trip), r.luts,
                 r.packed_nodes, r.fabric_nodes, r.packed_supported ? "true" : "false",
                 r.scalar_iters_per_sec, r.width_auto_choice, r.auto_iters_per_sec,
                 r.auto_bit_exact ? "true" : "false");
    for (std::size_t w = 0; w < r.widths.size(); ++w) {
      const auto& wr = r.widths[w];
      std::fprintf(json,
                   "%s\n       {\"width\": %u, \"lanes\": %u, \"iters_per_sec\": %.4e, "
                   "\"speedup\": %.3f, \"packed_iterations\": %llu, \"bit_exact\": %s}",
                   w ? "," : "", wr.width, wr.width * hwsim::kPackedWordBits,
                   wr.iters_per_sec, wr.speedup,
                   static_cast<unsigned long long>(wr.packed_iterations),
                   wr.bit_exact ? "true" : "false");
    }
    std::fprintf(json, "],\n     \"fabric_pass\": [");
    for (std::size_t w = 0; w < r.fabric.size(); ++w) {
      const auto& fr = r.fabric[w];
      std::fprintf(json,
                   "%s\n       {\"width\": %u, \"lanes\": %u, \"iters_per_sec\": %.4e, "
                   "\"speedup_vs_w1\": %.3f}",
                   w ? "," : "", fr.width, fr.width * hwsim::kPackedWordBits,
                   fr.iters_per_sec, fr.speedup_vs_w1);
    }
    std::fprintf(json, "]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_packed_eval.json\n");
}

/// --check: bit-exactness of every width and the auto mode against the
/// scalar engine, on every registered workload. No timing.
int run_check() {
  bool all_exact = true;
  bool any_fallback_regression = false;
  std::printf("packed-eval width check (scalar reference vs. lane-block widths)\n");
  std::printf("%-8s %8s %6s %9s %6s %8s %8s %8s %8s  %s\n", "kernel", "trip", "nodes",
              "supported", "auto_w", "W1", "W2", "W4", "auto", "scalar reason");
  for (const auto& workload : workloads::extended_workloads()) {
    auto flowed = run_flow(workload, 2048);
    KernelExecutor* exec = flowed.system->wcla().executor();
    sim::Memory& mem = flowed.system->data_mem();
    const KernelInvocation& inv = flowed.invocation;

    const std::vector<std::uint32_t> snapshot = mem.snapshot_words();
    exec->set_engine(KernelExecutor::EvalEngine::kScalar);
    const auto scalar_run = run_once(*exec, mem, inv);
    const std::uint64_t scalar_sum = mem.checksum_words();
    exec->set_engine(KernelExecutor::EvalEngine::kAuto);

    std::string cells[4];
    std::string reasons;  // distinct reasons of this kernel's scalar runs
    unsigned auto_width = 0;
    for (int pass = 0; pass < 4; ++pass) {
      const unsigned width = (pass < 3) ? kWidths[pass] : 0;  // 0: auto
      exec->set_packed_options(PackedOptions{width});
      mem.load_words(0, snapshot);
      const auto run = run_once(*exec, mem, inv);
      const bool exact =
          mem.checksum_words() == scalar_sum && run.acc_final == scalar_run.acc_final;
      // Packed-capable kernels with room for at least one block must not
      // silently fall back — that would hide an engine regression. (The
      // registered workloads have no block-size-dependent stream hazards,
      // the one legitimate reason a pinned width may drop to scalar; a
      // NOPACK cell on a future workload means revisit this expectation,
      // not that the engines disagree.)
      const bool unexpected_fallback =
          exec->packed_supported() && run.packed_iterations == 0 &&
          inv.trip >= ((pass < 3) ? kWidths[pass] : 1u) * hwsim::kPackedWordBits;
      all_exact = all_exact && exact;
      any_fallback_regression = any_fallback_regression || unexpected_fallback;
      if (pass == 3) auto_width = run.packed_width;
      const bool scalar = run.packed_iterations == 0 && inv.trip != 0;
      cells[pass] = !exact ? "FAIL" : unexpected_fallback ? "NOPACK" : scalar ? "scalar" : "ok";
      const std::string reason = hwsim::scalar_reason_name(run.scalar_reason);
      if (scalar && reasons.find(reason) == std::string::npos) {
        reasons += (reasons.empty() ? "" : ", ") + reason;
      }
    }
    std::printf("%-8s %8llu %6zu %9s %6u %8s %8s %8s %8s  %s\n", workload.name.c_str(),
                static_cast<unsigned long long>(inv.trip), exec->packed_node_count(),
                exec->packed_supported() ? "yes" : "no", auto_width, cells[0].c_str(),
                cells[1].c_str(), cells[2].c_str(), cells[3].c_str(),
                reasons.empty() ? "-" : reasons.c_str());
  }
  std::printf("scalar = bit-exact, but ran entirely on the scalar engine (reason in the "
              "last column)\n");
  if (!all_exact) {
    std::fprintf(stderr, "FAIL: engines disagree\n");
    return 1;
  }
  if (any_fallback_regression) {
    std::fprintf(stderr,
                 "FAIL: packed engine never engaged on a packed-capable kernel "
                 "(NOPACK above) — results are still bit-exact, but the packed "
                 "path regressed to the scalar fallback\n");
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

  std::printf("packed-eval microbenchmark (lane-block widths 1/2/4 = 64/128/256 iters/pass)\n");
  std::printf("%-8s %8s %6s %6s %12s | %-34s | %6s %12s\n", "kernel", "trip", "luts",
              "nodes", "scalar it/s", "executor it/s (W1 / W2 / W4)", "auto_w",
              "auto it/s");
  bool all_ok = true;
  for (const auto& r : results) {
    char widths[64] = "fallback (scalar engine)";
    if (!r.widths.empty()) {
      std::snprintf(widths, sizeof(widths), "%.2e / %.2e / %.2e",
                    r.widths[0].iters_per_sec, r.widths[1].iters_per_sec,
                    r.widths[2].iters_per_sec);
    }
    std::printf("%-8s %8llu %6zu %6zu %12.3e | %-34s | %6u %12.3e\n", r.name.c_str(),
                static_cast<unsigned long long>(r.trip), r.luts, r.packed_nodes,
                r.scalar_iters_per_sec, widths, r.width_auto_choice, r.auto_iters_per_sec);
    if (!r.fabric.empty()) {
      std::printf("  fabric pass: W1 %.3e  W2 %.3e (%.2fx)  W4 %.3e (%.2fx) it/s\n",
                  r.fabric[0].iters_per_sec, r.fabric[1].iters_per_sec,
                  r.fabric[1].speedup_vs_w1, r.fabric[2].iters_per_sec,
                  r.fabric[2].speedup_vs_w1);
    }
    all_ok = all_ok && kernel_ok(r);
  }

  write_json(results);

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: engines disagree or the packed path never engaged\n");
    return 1;
  }
  return 0;
}
