// Benchmark workloads (Powerstone / EEMBC substitutes).
//
// The paper evaluates six embedded benchmarks: brev, g3fax, canrdr
// (Powerstone) and bitmnp, idct, matmul (EEMBC). The original suites are
// proprietary; each workload here re-implements the benchmark's documented
// critical kernel with the same compute/memory structure (see DESIGN.md's
// substitution table):
//
//   brev   — bit reversal over a word array (shift/mask ladder; the paper's
//            headline kernel that reduces to pure wires in hardware);
//   g3fax  — Group-3 fax run-length decode (hot loop: run fill);
//   canrdr — CAN bus message reader (field extraction, conditional counting,
//            checksum reduction);
//   bitmnp — automotive bit manipulation (in-place transform with a
//            sign-dependent diamond);
//   idct   — 8-point fixed-point inverse-DCT-style transform applied to
//            rows of 8x8 blocks, two passes with transposed writes;
//   matmul — integer matrix multiply (MAC-bound inner product).
//
// Each workload carries its assembly source (written against the
// configuration-dependent pseudo-instructions, so the Section-2 ablation
// falls out of re-assembly), a data initializer, and a golden C++ checker
// that validates final data memory — used to prove SW and warped runs
// compute identical results.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/memory.hpp"

namespace warp::workloads {

struct Workload {
  std::string name;
  std::string description;
  std::string source;  // assembly text
  std::function<void(sim::Memory&)> init;
  std::function<common::Status(const sim::Memory&)> check;
};

Workload make_brev();
Workload make_g3fax();
Workload make_canrdr();
Workload make_bitmnp();
Workload make_idct();
Workload make_matmul();
Workload make_crc();
Workload make_fir();

/// All six paper benchmarks, in Figure 6/7 order.
const std::vector<Workload>& all_workloads();

/// The paper benchmarks plus the post-paper coverage workloads: crc (which
/// stresses the simulator's fabric-held-reduction and scalar fallback
/// paths) and fir (LUT-heavy and feedback-free, so the packed engine's
/// wide auto widths engage end-to-end). Figure drivers stay on
/// all_workloads(); engine-coverage tests and the packed-eval
/// microbenchmark use this list.
const std::vector<Workload>& extended_workloads();

/// Lookup by name over extended_workloads(); throws InternalError if
/// unknown.
const Workload& workload_by_name(const std::string& name);

/// Non-throwing lookup over extended_workloads(); nullptr if unknown. For
/// request-driven callers (serve/) where an unknown name is client input,
/// not a programming error.
const Workload* find_workload(const std::string& name);

}  // namespace warp::workloads
