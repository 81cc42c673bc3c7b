// Bit-manipulation helpers shared across the warp-processing library.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <bit>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace warp::common {

/// Extract bits [lo, lo+width) of `value` (width <= 32).
constexpr std::uint32_t bits(std::uint32_t value, unsigned lo, unsigned width) {
  if (width >= 32) return value >> lo;
  return (value >> lo) & ((1u << width) - 1u);
}

/// Insert `field` (width bits) into bits [lo, lo+width) of `value`.
constexpr std::uint32_t set_bits(std::uint32_t value, unsigned lo, unsigned width,
                                 std::uint32_t field) {
  const std::uint32_t mask = (width >= 32) ? ~0u : ((1u << width) - 1u);
  return (value & ~(mask << lo)) | ((field & mask) << lo);
}

/// Sign-extend the low `width` bits of `value` to 32 bits.
constexpr std::int32_t sign_extend(std::uint32_t value, unsigned width) {
  const unsigned shift = 32u - width;
  return static_cast<std::int32_t>(value << shift) >> shift;
}

/// True if `value` fits in a signed `width`-bit immediate.
constexpr bool fits_signed(std::int64_t value, unsigned width) {
  const std::int64_t lo = -(std::int64_t{1} << (width - 1));
  const std::int64_t hi = (std::int64_t{1} << (width - 1)) - 1;
  return value >= lo && value <= hi;
}

/// Reverse the bit order of a 32-bit word.
constexpr std::uint32_t bit_reverse32(std::uint32_t v) {
  v = ((v >> 1) & 0x55555555u) | ((v & 0x55555555u) << 1);
  v = ((v >> 2) & 0x33333333u) | ((v & 0x33333333u) << 2);
  v = ((v >> 4) & 0x0F0F0F0Fu) | ((v & 0x0F0F0F0Fu) << 4);
  v = ((v >> 8) & 0x00FF00FFu) | ((v & 0x00FF00FFu) << 8);
  return (v >> 16) | (v << 16);
}

/// Ceiling of log2; log2_ceil(1) == 0.
constexpr unsigned log2_ceil(std::uint64_t v) {
  unsigned r = 0;
  std::uint64_t p = 1;
  while (p < v) { p <<= 1; ++r; }
  return r;
}

/// Population count convenience wrapper.
constexpr unsigned popcount32(std::uint32_t v) { return static_cast<unsigned>(std::popcount(v)); }

/// In-place transpose of a 64x64 bit matrix stored as 64 row words, with
/// the plain indexing convention: after the call, m[j] bit i equals the
/// original m[i] bit j. Used by the packed netlist evaluator to move
/// between word-per-iteration and lane-per-bit layouts in O(64 log 64)
/// word operations instead of one shift/mask pair per bit.
///
/// This is the portable scalar reference; transpose64() below dispatches to
/// the SSE2 butterfly stages on x86-64 builds and is validated against this
/// implementation by tests/bitutil_test.cpp.
inline void transpose64_scalar(std::uint64_t m[64]) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

#if defined(__SSE2__)
namespace detail {

// One butterfly stage of the 64x64 transpose at distance J >= 2: exchange
// masked halves between m[k] and m[k|J] for every k with bit J clear. The
// k values come in runs of J consecutive indices, so vector lanes can walk
// them contiguously (two at a time in 128-bit registers).
template <unsigned J>
inline void transpose64_stage_sse2(std::uint64_t* m, std::uint64_t mask) {
  static_assert(J >= 2 && J <= 32);
  const __m128i vmask = _mm_set1_epi64x(static_cast<long long>(mask));
  for (unsigned base = 0; base < 64; base += 2 * J) {
    for (unsigned k = base; k < base + J; k += 2) {
      __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + k));
      __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + k + J));
      const __m128i t =
          _mm_and_si128(_mm_xor_si128(_mm_srli_epi64(a, J), b), vmask);
      a = _mm_xor_si128(a, _mm_slli_epi64(t, J));
      b = _mm_xor_si128(b, t);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(m + k), a);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(m + k + J), b);
    }
  }
}

// The J == 1 stage pairs adjacent words, so the butterfly runs *within* a
// 128-bit register's two lanes: unpack four words into (even, odd) vectors,
// exchange, and re-interleave.
inline void transpose64_stage1_sse2(std::uint64_t* m) {
  const __m128i vmask = _mm_set1_epi64x(0x5555555555555555ll);
  for (unsigned k = 0; k < 64; k += 4) {
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + k));
    const __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + k + 2));
    __m128i a = _mm_unpacklo_epi64(v0, v1);  // m[k],   m[k+2]
    __m128i b = _mm_unpackhi_epi64(v0, v1);  // m[k+1], m[k+3]
    const __m128i t = _mm_and_si128(_mm_xor_si128(_mm_srli_epi64(a, 1), b), vmask);
    a = _mm_xor_si128(a, _mm_slli_epi64(t, 1));
    b = _mm_xor_si128(b, t);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(m + k), _mm_unpacklo_epi64(a, b));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(m + k + 2), _mm_unpackhi_epi64(a, b));
  }
}

}  // namespace detail

inline void transpose64(std::uint64_t m[64]) {
  detail::transpose64_stage_sse2<32>(m, 0x00000000FFFFFFFFull);
  detail::transpose64_stage_sse2<16>(m, 0x0000FFFF0000FFFFull);
  detail::transpose64_stage_sse2<8>(m, 0x00FF00FF00FF00FFull);
  detail::transpose64_stage_sse2<4>(m, 0x0F0F0F0F0F0F0F0Full);
  detail::transpose64_stage_sse2<2>(m, 0x3333333333333333ull);
  detail::transpose64_stage1_sse2(m);
}
#else   // !__SSE2__
inline void transpose64(std::uint64_t m[64]) { transpose64_scalar(m); }
#endif  // __SSE2__

/// Upper bound on the `w_words` parameter of the blocked transposes below
/// (sizes their stack scratch; the packed evaluator's widest block is 4).
inline constexpr unsigned kMaxTransposeBlocks = 8;

#if defined(__SSE2__)
namespace detail {

// Interleave w in {2, 4} transposed 64-word groups into plane-major lane
// blocks: out[b*w + g] = in[64*g + b]. The pattern is a pure 64-bit-lane
// shuffle, so SSE2 unpacks do two output words per instruction.
inline void interleave_planes_sse2(const std::uint64_t* in, std::uint64_t* out,
                                   unsigned w_words) {
  if (w_words == 2) {
    for (unsigned b = 0; b < 64; b += 2) {
      const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + b));
      const __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 64 + b));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * b),
                       _mm_unpacklo_epi64(v0, v1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * b + 2),
                       _mm_unpackhi_epi64(v0, v1));
    }
    return;
  }
  for (unsigned b = 0; b < 64; b += 2) {
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + b));
    const __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 64 + b));
    const __m128i v2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 128 + b));
    const __m128i v3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 192 + b));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * b),
                     _mm_unpacklo_epi64(v0, v1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * b + 2),
                     _mm_unpacklo_epi64(v2, v3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * b + 4),
                     _mm_unpackhi_epi64(v0, v1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * b + 6),
                     _mm_unpackhi_epi64(v2, v3));
  }
}

// Inverse shuffle: out[64*g + b] = in[b*w + g] for w in {2, 4}.
inline void deinterleave_planes_sse2(const std::uint64_t* in, std::uint64_t* out,
                                     unsigned w_words) {
  if (w_words == 2) {
    for (unsigned b = 0; b < 64; b += 2) {
      const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 2 * b));
      const __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 2 * b + 2));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + b), _mm_unpacklo_epi64(v0, v1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 64 + b),
                       _mm_unpackhi_epi64(v0, v1));
    }
    return;
  }
  for (unsigned b = 0; b < 64; b += 2) {
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 4 * b));
    const __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 4 * b + 2));
    const __m128i v2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 4 * b + 4));
    const __m128i v3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 4 * b + 6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + b), _mm_unpacklo_epi64(v0, v2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 64 + b),
                     _mm_unpackhi_epi64(v0, v2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 128 + b),
                     _mm_unpacklo_epi64(v1, v3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 192 + b),
                     _mm_unpackhi_epi64(v1, v3));
  }
}

}  // namespace detail
#endif  // __SSE2__

/// Blocked transpose for lane blocks wider than one word. `m` holds
/// `w_words * 64` words in frame-major order (m[f] is the data word of
/// frame f). Afterwards `m` is plane-major: row b occupies the contiguous
/// block m[b*w_words .. b*w_words+w_words), and bit j of block word g is
/// bit b of original frame g*64+j — i.e. each bit owns one contiguous
/// lane block of w_words words. w_words == 1 is exactly transpose64.
///
/// Both the per-group 64x64 transposes and (for the packed evaluator's
/// w_words in {2, 4}) the plane interleave run vectorized; the scalar
/// reference below is kept for the other widths and for validation.
inline void transpose64_blocked(std::uint64_t* m, unsigned w_words) {
  assert(w_words >= 1 && w_words <= kMaxTransposeBlocks);
  if (w_words == 1) {
    transpose64(m);
    return;
  }
  std::uint64_t planes[kMaxTransposeBlocks * 64];
  for (unsigned g = 0; g < w_words; ++g) transpose64(m + 64 * g);
#if defined(__SSE2__)
  if (w_words == 2 || w_words == 4) {
    detail::interleave_planes_sse2(m, planes, w_words);
    std::copy(planes, planes + 64 * w_words, m);
    return;
  }
#endif
  for (unsigned g = 0; g < w_words; ++g) {
    for (unsigned b = 0; b < 64; ++b) planes[b * w_words + g] = m[64 * g + b];
  }
  std::copy(planes, planes + 64 * w_words, m);
}

/// Inverse of transpose64_blocked: plane-major lane blocks back to
/// frame-major words (m[f] bit b = bit (f % 64) of plane b's word f/64).
inline void transpose64_unblocked(std::uint64_t* m, unsigned w_words) {
  assert(w_words >= 1 && w_words <= kMaxTransposeBlocks);
  if (w_words == 1) {
    transpose64(m);
    return;
  }
  std::uint64_t frames[kMaxTransposeBlocks * 64];
#if defined(__SSE2__)
  if (w_words == 2 || w_words == 4) {
    detail::deinterleave_planes_sse2(m, frames, w_words);
    for (unsigned g = 0; g < w_words; ++g) transpose64(frames + 64 * g);
    std::copy(frames, frames + 64 * w_words, m);
    return;
  }
#endif
  for (unsigned g = 0; g < w_words; ++g) {
    for (unsigned b = 0; b < 64; ++b) frames[64 * g + b] = m[b * w_words + g];
    transpose64(frames + 64 * g);
  }
  std::copy(frames, frames + 64 * w_words, m);
}

}  // namespace warp::common
