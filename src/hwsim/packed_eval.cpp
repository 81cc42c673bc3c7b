#include "hwsim/packed_eval.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"
#include "common/strings.hpp"

namespace warp::hwsim {
namespace {

using techmap::NetRef;

/// Cofactor `truth` over `n` inputs with input `k` fixed to `v`.
std::uint8_t cofactor(std::uint8_t truth, unsigned n, unsigned k, bool v) {
  std::uint8_t out = 0;
  for (unsigned m = 0; m < (1u << (n - 1)); ++m) {
    const unsigned low = m & ((1u << k) - 1u);
    const unsigned high = (m >> k) << (k + 1);
    const unsigned full = high | (static_cast<unsigned>(v) << k) | low;
    if ((truth >> full) & 1u) out |= static_cast<std::uint8_t>(1u << m);
  }
  return out;
}

/// Sentinel for LUT ids whose slot has not been assigned yet. A fanin that
/// resolves to this is a forward reference: the array is not topological.
constexpr std::uint32_t kUnassigned = ~0u;

/// One node over one lane word: a three-level mux tree that selects truth
/// rows by input 0, then 1, then 2.
inline std::uint64_t mux_tree(const PackedNode& n, std::uint64_t a, std::uint64_t b,
                              std::uint64_t c) {
  const std::uint64_t na = ~a, nb = ~b, nc = ~c;
  const std::uint64_t s0 = (na & n.mask[0]) | (a & n.mask[1]);
  const std::uint64_t s1 = (na & n.mask[2]) | (a & n.mask[3]);
  const std::uint64_t s2 = (na & n.mask[4]) | (a & n.mask[5]);
  const std::uint64_t s3 = (na & n.mask[6]) | (a & n.mask[7]);
  const std::uint64_t u0 = (nb & s0) | (b & s1);
  const std::uint64_t u1 = (nb & s2) | (b & s3);
  return (nc & u0) | (c & u1);
}

}  // namespace

PackedEvaluator::PackedEvaluator(const techmap::LutNetlist& netlist,
                                 const std::vector<unsigned>& input_stage) {
  num_inputs_ = netlist.primary_inputs.size();
  if (!input_stage.empty() && input_stage.size() != num_inputs_) {
    throw common::InternalError(
        common::format("packed_eval: %zu input stages for %zu inputs", input_stage.size(),
                       num_inputs_));
  }

  // Slot 0/1 hold the constant lanes; inputs follow; surviving LUTs after.
  const std::uint32_t first_node_slot = static_cast<std::uint32_t>(2 + num_inputs_);
  std::vector<std::uint32_t> lut_slot(netlist.luts.size(), kUnassigned);
  std::uint32_t next_slot = first_node_slot;

  auto slot_of = [&](const NetRef& ref) -> std::uint32_t {
    switch (ref.kind) {
      case NetRef::Kind::kConst0: return 0;
      case NetRef::Kind::kConst1: return 1;
      case NetRef::Kind::kPrimaryInput:
        if (ref.index < 0 || static_cast<std::size_t>(ref.index) >= num_inputs_) {
          throw common::InternalError(
              common::format("packed_eval: primary-input reference %d out of range", ref.index));
        }
        return 2 + static_cast<std::uint32_t>(ref.index);
      case NetRef::Kind::kLut: {
        if (ref.index < 0 || static_cast<std::size_t>(ref.index) >= lut_slot.size()) {
          throw common::InternalError(
              common::format("packed_eval: LUT reference %d out of range", ref.index));
        }
        const std::uint32_t slot = lut_slot[static_cast<std::size_t>(ref.index)];
        if (slot == kUnassigned) {
          throw common::InternalError(common::format(
              "packed_eval: LUT array is not topologically ordered (forward "
              "reference to LUT %d)", ref.index));
        }
        return slot;
      }
    }
    throw common::InternalError("packed_eval: bad NetRef kind");
  };

  nodes_.reserve(netlist.luts.size());
  for (std::size_t i = 0; i < netlist.luts.size(); ++i) {
    const techmap::Lut& lut = netlist.luts[i];
    std::array<std::uint32_t, techmap::kLutInputs> slots{};
    unsigned n = lut.num_inputs;
    std::uint8_t truth = lut.truth;
    for (unsigned k = 0; k < n; ++k) slots[k] = slot_of(lut.inputs[k]);

    // Fold constant fanins into the truth table.
    for (unsigned k = 0; k < n;) {
      if (slots[k] <= 1) {
        truth = cofactor(truth, n, k, slots[k] == 1);
        for (unsigned j = k + 1; j < n; ++j) slots[j - 1] = slots[j];
        --n;
      } else {
        ++k;
      }
    }

    const std::uint8_t full = static_cast<std::uint8_t>((1u << (1u << n)) - 1u);
    if ((truth & full) == 0 || (truth & full) == full) {  // constant: alias the lane
      lut_slot[i] = (truth & 1u) ? 1u : 0u;
      continue;
    }
    if (n == 1 && (truth & 0x3u) == 0x2u) {  // wire: alias the fanin
      lut_slot[i] = slots[0];
      continue;
    }

    // Canonicalize to kLutInputs fanins: unused pins read the constant-0
    // lane and the truth table repeats over the missing dimensions.
    PackedNode node;
    node.out = next_slot++;
    for (unsigned k = 0; k < techmap::kLutInputs; ++k) {
      node.in[k] = (k < n) ? slots[k] : 0u;
    }
    const unsigned wrap = (1u << n) - 1u;
    for (unsigned m = 0; m < (1u << techmap::kLutInputs); ++m) {
      node.mask[m] = ((truth >> (m & wrap)) & 1u) ? ~0ull : 0ull;
    }
    nodes_.push_back(node);
    lut_slot[i] = node.out;
  }

  // Reorder surviving nodes by (stage, mux-tree level) and renumber their
  // slots in the new evaluation order: a level-L node's fanins then live in
  // the contiguous slot range of levels < L, so wide lane blocks stream
  // through the lane array mostly sequentially instead of hopping in the
  // mapper's emission order. The order is still topological (every edge
  // keeps the stage and increases the level, or increases the stage), so
  // one forward pass stays correct and each stage is a contiguous range.
  {
    std::vector<unsigned> slot_level(next_slot, 0);
    std::vector<unsigned> slot_stage(next_slot, 0);
    unsigned max_stage = 0;
    for (std::size_t i = 0; i < input_stage.size(); ++i) {
      slot_stage[2 + i] = input_stage[i];
      max_stage = std::max(max_stage, input_stage[i]);
    }
    for (const PackedNode& n : nodes_) {
      unsigned level = 0;
      unsigned stage = 0;
      for (const std::uint32_t in : n.in) {
        level = std::max(level, slot_level[in]);
        stage = std::max(stage, slot_stage[in]);
      }
      slot_level[n.out] = level + 1;
      slot_stage[n.out] = stage;
    }
    const auto key = [&](std::uint32_t node) {
      return std::make_pair(slot_stage[nodes_[node].out], slot_level[nodes_[node].out]);
    };
    std::vector<std::uint32_t> order(nodes_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return key(a) < key(b); });
    stage_end_.assign(max_stage + 1, 0);
    for (const PackedNode& n : nodes_) ++stage_end_[slot_stage[n.out]];
    std::partial_sum(stage_end_.begin(), stage_end_.end(), stage_end_.begin());
    std::vector<std::uint32_t> remap(next_slot);
    std::iota(remap.begin(), remap.end(), 0u);
    std::uint32_t slot = first_node_slot;
    for (const std::uint32_t i : order) remap[nodes_[i].out] = slot++;

    std::vector<PackedNode> reordered;
    reordered.reserve(nodes_.size());
    for (const std::uint32_t i : order) {
      PackedNode node = nodes_[i];
      node.out = remap[node.out];
      for (std::uint32_t& in : node.in) in = remap[in];
      reordered.push_back(node);
    }
    nodes_ = std::move(reordered);
    for (std::uint32_t& slot_ref : lut_slot) {
      if (slot_ref != kUnassigned) slot_ref = remap[slot_ref];
    }
  }

  num_slots_ = next_slot;
  lanes_.assign(num_slots_, 0);
  lanes_[1] = ~0ull;

  output_slot_.resize(netlist.outputs.size());
  for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
    output_slot_[i] = slot_of(netlist.outputs[i].source);
  }
}

void PackedEvaluator::set_width(unsigned width) {
  if (!width_supported(width)) {
    throw common::InternalError(
        common::format("packed_eval: unsupported lane-block width %u", width));
  }
  if (width == width_) return;
  width_ = width;
  lanes_.assign(std::size_t{num_slots_} * width, 0);
  for (unsigned w = 0; w < width; ++w) lanes_[width + w] = ~0ull;  // constant-1 block
}

unsigned PackedEvaluator::choose_width(std::uint64_t trip) const {
  // Wider blocks vectorize the mux-tree work but slightly increase the
  // executor's per-block transpose and unpack cost, so they only win when
  // the plan carries real logic. Thin plans (wire-dominated kernels after
  // folding) are stream-IO-bound: measured on the paper kernels, W>1 costs
  // a few percent there, so they stay at one word.
  if (nodes_.size() < 192) return 1;
  // A partial block (the trip's last trip % (width*64) iterations) costs a
  // full pass however few of its lanes are valid: demand at least two full
  // passes so a short trip doesn't pay for a mostly idle wide block.
  unsigned width = kMaxPackedWidth;
  while (width > 1 &&
         trip < std::uint64_t{2} * width * kPackedWordBits) {
    width >>= 1;
  }
  // Very large plans: the lane array alone is num_slots * width * 8 bytes;
  // stay narrower so the per-pass working set (lanes + masks) keeps some
  // cache locality.
  if (nodes_.size() > 16384 && width > 2) width = 2;
  return width;
}

template <unsigned W>
void PackedEvaluator::run_pass(const PackedNode* first, const PackedNode* last) {
  // The mux tree below is written out for 3-input LUTs; a wider fabric LUT
  // needs another select level here (and 2^K masks above).
  static_assert(techmap::kLutInputs == 3, "packed mux tree assumes 3-input LUTs");
  std::uint64_t* lanes = lanes_.data();
  for (const PackedNode* node = first; node != last; ++node) {
    const PackedNode& n = *node;
    const std::uint64_t* pa = lanes + std::size_t{n.in[0]} * W;
    const std::uint64_t* pb = lanes + std::size_t{n.in[1]} * W;
    const std::uint64_t* pc = lanes + std::size_t{n.in[2]} * W;
    std::uint64_t* out = lanes + std::size_t{n.out} * W;
    for (unsigned w = 0; w < W; ++w) out[w] = mux_tree(n, pa[w], pb[w], pc[w]);
  }
}

void PackedEvaluator::run_stage_lane(unsigned stage, unsigned lane) {
  static_assert(techmap::kLutInputs == 3, "packed mux tree assumes 3-input LUTs");
  assert(lane < lanes());
  // Slot s's word of this lane sits at lanes[s * width_].
  std::uint64_t* lanes = lanes_.data() + lane / kPackedWordBits;
  const std::size_t width = width_;
  const PackedNode* last = nodes_.data() + stage_end_[stage];
  for (const PackedNode* node = nodes_.data() + stage_begin(stage); node != last; ++node) {
    const PackedNode& n = *node;
    lanes[n.out * width] =
        mux_tree(n, lanes[n.in[0] * width], lanes[n.in[1] * width], lanes[n.in[2] * width]);
  }
}

// Vector variants of the same mux tree, one 128/256-bit op per level
// instead of W unrolled word ops. Dispatch (run() below) prefers, per
// width, the widest unit the build provides: SSE2 is part of baseline
// x86-64 so W=2/4 always vectorize there; AVX2 (e.g. -DWARP_NATIVE=ON)
// does W=4 in single registers; elsewhere W=2 falls back to __uint128_t
// where the compiler provides it, and the unrolled template otherwise.
// (A __uint128_t pass was also measured on x86-64 and lost to both the
// unrolled template and SSE2 — the per-node mask broadcasts compile
// poorly there — so it is only the non-x86 fallback.)
#if defined(__SIZEOF_INT128__) && !defined(__SSE2__)
void PackedEvaluator::run_pass_u128(const PackedNode* first, const PackedNode* last) {
  static_assert(techmap::kLutInputs == 3, "packed mux tree assumes 3-input LUTs");
  using u128 = unsigned __int128;
  const auto load = [](const std::uint64_t* p) {
    u128 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  };
  const auto bcast = [](std::uint64_t m) { return (u128{m} << 64) | m; };
  std::uint64_t* lanes = lanes_.data();
  for (const PackedNode* node = first; node != last; ++node) {
    const PackedNode& n = *node;
    const u128 a = load(lanes + std::size_t{n.in[0]} * 2);
    const u128 b = load(lanes + std::size_t{n.in[1]} * 2);
    const u128 c = load(lanes + std::size_t{n.in[2]} * 2);
    const u128 na = ~a, nb = ~b, nc = ~c;
    const u128 s0 = (na & bcast(n.mask[0])) | (a & bcast(n.mask[1]));
    const u128 s1 = (na & bcast(n.mask[2])) | (a & bcast(n.mask[3]));
    const u128 s2 = (na & bcast(n.mask[4])) | (a & bcast(n.mask[5]));
    const u128 s3 = (na & bcast(n.mask[6])) | (a & bcast(n.mask[7]));
    const u128 u0 = (nb & s0) | (b & s1);
    const u128 u1 = (nb & s2) | (b & s3);
    const u128 out = (nc & u0) | (c & u1);
    std::memcpy(lanes + std::size_t{n.out} * 2, &out, sizeof(out));
  }
}
#else
void PackedEvaluator::run_pass_u128(const PackedNode* first, const PackedNode* last) {
  run_pass<2>(first, last);
}
#endif

#if defined(__SSE2__)
// One 128-bit op per mux level; W=4 runs the same kernel over both halves.
template <unsigned W>
void PackedEvaluator::run_pass_sse2(const PackedNode* first, const PackedNode* last) {
  static_assert(techmap::kLutInputs == 3, "packed mux tree assumes 3-input LUTs");
  static_assert(W == 2 || W == 4);
  std::uint64_t* lanes = lanes_.data();
  const auto bcast = [](std::uint64_t m) {
    return _mm_set1_epi64x(static_cast<long long>(m));
  };
  for (const PackedNode* node = first; node != last; ++node) {
    const PackedNode& n = *node;
    const std::uint64_t* pa = lanes + std::size_t{n.in[0]} * W;
    const std::uint64_t* pb = lanes + std::size_t{n.in[1]} * W;
    const std::uint64_t* pc = lanes + std::size_t{n.in[2]} * W;
    std::uint64_t* po = lanes + std::size_t{n.out} * W;
    for (unsigned h = 0; h < W / 2; ++h) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa + 2 * h));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + 2 * h));
      const __m128i c =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pc + 2 * h));
      // _mm_andnot_si128(x, y) = ~x & y, so the ~a/~b/~c factors fold in.
      const __m128i s0 = _mm_or_si128(_mm_andnot_si128(a, bcast(n.mask[0])),
                                      _mm_and_si128(a, bcast(n.mask[1])));
      const __m128i s1 = _mm_or_si128(_mm_andnot_si128(a, bcast(n.mask[2])),
                                      _mm_and_si128(a, bcast(n.mask[3])));
      const __m128i s2 = _mm_or_si128(_mm_andnot_si128(a, bcast(n.mask[4])),
                                      _mm_and_si128(a, bcast(n.mask[5])));
      const __m128i s3 = _mm_or_si128(_mm_andnot_si128(a, bcast(n.mask[6])),
                                      _mm_and_si128(a, bcast(n.mask[7])));
      const __m128i u0 = _mm_or_si128(_mm_andnot_si128(b, s0), _mm_and_si128(b, s1));
      const __m128i u1 = _mm_or_si128(_mm_andnot_si128(b, s2), _mm_and_si128(b, s3));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(po + 2 * h),
                       _mm_or_si128(_mm_andnot_si128(c, u0), _mm_and_si128(c, u1)));
    }
  }
}
#endif

#if defined(__AVX2__)
void PackedEvaluator::run_pass_avx2(const PackedNode* first, const PackedNode* last) {
  static_assert(techmap::kLutInputs == 3, "packed mux tree assumes 3-input LUTs");
  std::uint64_t* lanes = lanes_.data();
  for (const PackedNode* node = first; node != last; ++node) {
    const PackedNode& n = *node;
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes + std::size_t{n.in[0]} * 4));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes + std::size_t{n.in[1]} * 4));
    const __m256i c = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes + std::size_t{n.in[2]} * 4));
    const auto bcast = [](std::uint64_t m) {
      return _mm256_set1_epi64x(static_cast<long long>(m));
    };
    // _mm256_andnot_si256(x, y) = ~x & y, so the ~a/~b/~c factors fold in.
    const __m256i s0 = _mm256_or_si256(_mm256_andnot_si256(a, bcast(n.mask[0])),
                                       _mm256_and_si256(a, bcast(n.mask[1])));
    const __m256i s1 = _mm256_or_si256(_mm256_andnot_si256(a, bcast(n.mask[2])),
                                       _mm256_and_si256(a, bcast(n.mask[3])));
    const __m256i s2 = _mm256_or_si256(_mm256_andnot_si256(a, bcast(n.mask[4])),
                                       _mm256_and_si256(a, bcast(n.mask[5])));
    const __m256i s3 = _mm256_or_si256(_mm256_andnot_si256(a, bcast(n.mask[6])),
                                       _mm256_and_si256(a, bcast(n.mask[7])));
    const __m256i u0 =
        _mm256_or_si256(_mm256_andnot_si256(b, s0), _mm256_and_si256(b, s1));
    const __m256i u1 =
        _mm256_or_si256(_mm256_andnot_si256(b, s2), _mm256_and_si256(b, s3));
    const __m256i out =
        _mm256_or_si256(_mm256_andnot_si256(c, u0), _mm256_and_si256(c, u1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + std::size_t{n.out} * 4), out);
  }
}
#else
void PackedEvaluator::run_pass_avx2(const PackedNode* first, const PackedNode* last) {
  run_pass<4>(first, last);
}
#endif

void PackedEvaluator::run_nodes(std::size_t first, std::size_t last) {
  const PackedNode* begin = nodes_.data() + first;
  const PackedNode* end = nodes_.data() + last;
  switch (width_) {
    case 1:
      run_pass<1>(begin, end);
      return;
    case 2:
#if defined(__SSE2__)
      run_pass_sse2<2>(begin, end);
#else
      run_pass_u128(begin, end);
#endif
      return;
    case 4:
#if defined(__AVX2__)
      run_pass_avx2(begin, end);
#elif defined(__SSE2__)
      run_pass_sse2<4>(begin, end);
#else
      run_pass<4>(begin, end);
#endif
      return;
  }
  throw common::InternalError("packed_eval: bad active width");
}

}  // namespace warp::hwsim
