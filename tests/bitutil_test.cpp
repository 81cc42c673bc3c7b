// Vectorized 64x64 bit-transpose tests: the SSE2 dispatch must match the
// portable scalar reference bit for bit, for the flat, blocked and
// unblocked variants, at every lane-block width the packed evaluator uses.
#include <gtest/gtest.h>

#include <vector>

#include "common/bitutil.hpp"
#include "common/rng.hpp"

namespace warp {
namespace {

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) {
    w = (static_cast<std::uint64_t>(rng.next_u32()) << 32) | rng.next_u32();
  }
  return words;
}

TEST(BitUtilSimd, Transpose64MatchesScalar) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto vectorized = random_words(64, seed);
    auto scalar = vectorized;
    common::transpose64(vectorized.data());
    common::transpose64_scalar(scalar.data());
    EXPECT_EQ(vectorized, scalar) << "seed " << seed;
  }
}

TEST(BitUtilSimd, Transpose64Semantics) {
  const auto original = random_words(64, 42);
  auto m = original;
  common::transpose64(m.data());
  for (unsigned i = 0; i < 64; ++i) {
    for (unsigned j = 0; j < 64; ++j) {
      EXPECT_EQ((m[j] >> i) & 1, (original[i] >> j) & 1) << i << "," << j;
    }
  }
  // Involution: transposing twice restores the matrix.
  common::transpose64(m.data());
  EXPECT_EQ(m, original);
}

TEST(BitUtilSimd, BlockedMatchesDocumentedLayout) {
  // After transpose64_blocked, bit j of block word g of row b (stored at
  // m[b*w + g]) equals bit b of original frame g*64+j.
  for (const unsigned w : {1u, 2u, 4u, 8u}) {
    const auto original = random_words(64 * w, 7 * w);
    auto m = original;
    common::transpose64_blocked(m.data(), w);
    for (unsigned b = 0; b < 64; ++b) {
      for (unsigned g = 0; g < w; ++g) {
        for (unsigned j = 0; j < 64; ++j) {
          EXPECT_EQ((m[b * w + g] >> j) & 1, (original[g * 64 + j] >> b) & 1)
              << "w=" << w << " b=" << b << " g=" << g << " j=" << j;
        }
      }
    }
  }
}

TEST(BitUtilSimd, UnblockedInvertsBlocked) {
  for (const unsigned w : {1u, 2u, 4u, 8u}) {
    const auto original = random_words(64 * w, 100 + w);
    auto m = original;
    common::transpose64_blocked(m.data(), w);
    common::transpose64_unblocked(m.data(), w);
    EXPECT_EQ(m, original) << "w=" << w;
  }
}

TEST(BitUtilSimd, UnblockedSemantics) {
  // m[f] bit b = bit (f % 64) of plane b's word f/64, per the header.
  for (const unsigned w : {2u, 4u}) {
    const auto planes = random_words(64 * w, 999 + w);
    auto m = planes;
    common::transpose64_unblocked(m.data(), w);
    for (unsigned f = 0; f < 64 * w; ++f) {
      for (unsigned b = 0; b < 64; ++b) {
        EXPECT_EQ((m[f] >> b) & 1, (planes[b * w + f / 64] >> (f % 64)) & 1)
            << "w=" << w << " f=" << f << " b=" << b;
      }
    }
  }
}

}  // namespace
}  // namespace warp
