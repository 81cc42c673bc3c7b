// Bit-packed, levelized evaluation of a mapped LUT netlist in lane blocks:
// the WCLA executor's one fabric engine.
//
// techmap::LutNetlist::evaluate walks the LUT array once per input frame
// over std::vector<bool>; it stays the netlist-level reference of the
// tests. This engine compiles the netlist once into a flat evaluation plan
// and then evaluates W*64 loop iterations per pass (the lane-block width W
// is 1, 2 or 4 words), SIMD-within-a-register style: every net owns a
// contiguous block of W std::uint64_t lane words whose bit j of word g is
// the net's value in iteration g*64+j of the current block. A 1-lane block
// (one valid lane of a W=1 pass) evaluates a single iteration.
//
// Compilation (PackedEvaluator's constructor) is width-independent:
//   - every net gets an integer lane slot: slot 0 is constant 0, slot 1 is
//     constant 1, slots [2, 2+inputs) are the primary inputs, and each
//     surviving LUT gets a fresh slot — no NetRef dispatch or string
//     lookups remain in the evaluation loop;
//   - constant fanins are folded into the truth table (cofactoring), LUTs
//     that reduce to a constant or a wire are folded away entirely (their
//     slot aliases the source), and the rest are canonicalized to exactly
//     kLutInputs fanins (unused pins point at the constant-0 lane);
//   - each node's truth table is expanded to eight per-row lane masks, so
//     evaluation is a branchless three-level mux tree over packed words;
//   - surviving nodes are re-sorted by (stage, mux-tree level) and their
//     slots renumbered in evaluation order, so a node's fanins live in the
//     contiguous slot range of the previous level and wide lane blocks
//     stream through the lane array mostly sequentially.
//
// Stages let a caller feed values computed outside the fabric back in
// mid-pass: each primary input carries a stage number (the executor gives
// a hard-MAC result input the stage after its operands'), a node's stage is
// the latest stage among its fanins, and run_stage(s) evaluates only the
// nodes of stage s. Inputs of stage s+1 may be set between run_stage(s)
// and run_stage(s+1); run() evaluates every stage in one pass.
// run_stage_lane(s, lane) evaluates stage s for one lane word only, so a
// caller can run a stage lane by lane in iteration order, setting that
// lane's inputs from the previous lane's outputs (the executor's
// accumulator-state cone).
//
// The LUT array must be emitted in topological (levelized) order — the
// mapper guarantees this, and the constructor rejects arrays that are not
// (a fanin reading a later LUT would silently evaluate stale lanes).
//
// Evaluation is instantiated per width from one templated kernel: W=1 is
// the original one-word SWAR pass, W=2/4 unroll the mux tree over lane
// pairs/quads (with SSE2 and __uint128_t variants where the toolchain
// provides them), and choose_width() implements the heuristic auto mode
// keyed on plan size and trip count.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "techmap/techmap.hpp"

namespace warp::hwsim {

/// Bits per lane word: one bit lane per loop iteration.
inline constexpr unsigned kPackedWordBits = 64;

/// Widest supported lane block, in 64-bit words (W=4: 256 iterations/pass).
inline constexpr unsigned kMaxPackedWidth = 4;

/// Iterations per pass at the widest block.
inline constexpr unsigned kMaxPackedLanes = kMaxPackedWidth * kPackedWordBits;

/// One compiled LUT: fanin lane slots and the truth table as lane masks
/// (mask[m] is all-ones iff truth bit m is set).
struct PackedNode {
  std::uint32_t out = 0;
  std::array<std::uint32_t, techmap::kLutInputs> in{};
  std::array<std::uint64_t, 1u << techmap::kLutInputs> mask{};
};

/// Lane-block engine knob, plumbed from WarpSystemConfig down to the
/// executor so benchmark harnesses can pin or sweep the width.
struct PackedOptions {
  /// Lane-block width in 64-bit words (width*64 iterations per fabric
  /// pass): 1, 2 or 4. 0 selects the width automatically per run from the
  /// plan size and trip count (PackedEvaluator::choose_width).
  unsigned width = 0;
};

class PackedEvaluator {
 public:
  /// Compiles the evaluation plan. `input_stage` gives each primary input's
  /// stage (empty: every input is stage 0). Throws common::InternalError
  /// when the LUT array is not topologically ordered, references are out of
  /// range, or `input_stage` does not cover the inputs.
  explicit PackedEvaluator(const techmap::LutNetlist& netlist,
                           const std::vector<unsigned>& input_stage = {});

  static constexpr bool width_supported(unsigned width) {
    return width == 1 || width == 2 || width == 4;
  }

  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_outputs() const { return output_slot_.size(); }
  /// LUTs surviving constant/wire folding (the per-pass work).
  std::size_t node_count() const { return nodes_.size(); }
  /// Evaluation stages: 1 + the latest input stage.
  unsigned num_stages() const { return static_cast<unsigned>(stage_end_.size()); }

  /// Active lane-block width in words, and iterations per pass.
  unsigned width() const { return width_; }
  unsigned lanes() const { return width_ * kPackedWordBits; }

  /// Select the lane-block width (1, 2 or 4). Resizes the lane array; all
  /// input lanes must be set again before the next run().
  void set_width(unsigned width);

  /// Heuristic auto width for a run of `trip` iterations: the widest block
  /// that still gets at least two full passes, narrowed for very large
  /// plans whose lane working set would outgrow the cache.
  unsigned choose_width(std::uint64_t trip) const;

  /// Set word `word` of primary input `input`'s lane block (bit j = value
  /// in block iteration word*64+j).
  void set_input(std::size_t input, unsigned word, std::uint64_t lanes) {
    assert(input < num_inputs_);
    assert(word < width_);
    lanes_[(2 + input) * width_ + word] = lanes;
  }

  /// Set the full lane block (width() words) of primary input `input`.
  void set_input_block(std::size_t input, const std::uint64_t* words) {
    assert(input < num_inputs_);
    for (unsigned w = 0; w < width_; ++w) {
      lanes_[(2 + input) * width_ + w] = words[w];
    }
  }

  /// Set one lane (block iteration `lane`) of primary input `input`.
  void set_input_lane(std::size_t input, unsigned lane, bool value) {
    assert(input < num_inputs_);
    assert(lane < lanes());
    std::uint64_t& word = lanes_[(2 + input) * width_ + lane / kPackedWordBits];
    const std::uint64_t bit = 1ull << (lane % kPackedWordBits);
    word = value ? (word | bit) : (word & ~bit);
  }

  /// Evaluate all nodes for the width()*64 packed iterations.
  void run() { run_nodes(0, nodes_.size()); }
  /// Evaluate only the nodes of stage `stage` (see the file comment).
  void run_stage(unsigned stage) { run_nodes(stage_begin(stage), stage_end_[stage]); }
  /// Evaluate the nodes of stage `stage` for the lane word holding block
  /// iteration `lane` only. The word's other lanes are recomputed from their
  /// current inputs, so lanes already evaluated keep their values.
  void run_stage_lane(unsigned stage, unsigned lane);

  /// Lane word `word` of netlist output `index` after run().
  std::uint64_t output(std::size_t index, unsigned word = 0) const {
    assert(index < output_slot_.size());
    assert(word < width_);
    return lanes_[output_slot_[index] * width_ + word];
  }
  /// Netlist output `index` in block iteration `lane`.
  bool output_lane(std::size_t index, unsigned lane) const {
    return (output(index, lane / kPackedWordBits) >> (lane % kPackedWordBits)) & 1u;
  }

 private:
  std::size_t stage_begin(unsigned stage) const {
    return stage == 0 ? 0 : stage_end_[stage - 1];
  }
  /// Evaluate nodes_[first, last) at the active width.
  void run_nodes(std::size_t first, std::size_t last);

  // Mux-tree passes over the nodes [first, last): the unrolled
  // word-at-a-time fallback (any width), W == 2/4 in 128-bit halves
  // (baseline x86-64) and W == 2 via __uint128_t (non-x86 fallback).
  template <unsigned W>
  void run_pass(const PackedNode* first, const PackedNode* last);
  template <unsigned W>
  void run_pass_sse2(const PackedNode* first, const PackedNode* last);
  void run_pass_u128(const PackedNode* first, const PackedNode* last);

  std::vector<PackedNode> nodes_;
  std::vector<std::size_t> stage_end_;  // per stage: one past its last node
  std::vector<std::uint64_t> lanes_;  // num_slots_ * width_ words
  std::vector<std::uint32_t> output_slot_;  // per netlist output, resolved
  std::size_t num_inputs_ = 0;
  std::uint32_t num_slots_ = 0;
  unsigned width_ = 1;
};

}  // namespace warp::hwsim
