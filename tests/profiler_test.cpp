// Non-intrusive profiler tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "profiler/profiler.hpp"

namespace warp::profiler {
namespace {

TEST(Profiler, OnlyTakenBackwardBranchesCount) {
  Profiler p;
  p.on_branch(0x100, 0x80, true);    // backward taken: counts
  p.on_branch(0x100, 0x80, false);   // not taken: ignored
  p.on_branch(0x100, 0x200, true);   // forward: ignored
  const auto top = p.hottest();
  EXPECT_EQ(top.branch_pc, 0x100u);
  EXPECT_EQ(top.target_pc, 0x80u);
  EXPECT_EQ(top.count, 1u);
}

TEST(Profiler, HottestLoopWins) {
  Profiler p;
  for (int i = 0; i < 100; ++i) p.on_branch(0x40, 0x20, true);
  for (int i = 0; i < 10; ++i) p.on_branch(0x90, 0x60, true);
  EXPECT_EQ(p.hottest().branch_pc, 0x40u);
  const auto all = p.candidates();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_GE(all[0].count, all[1].count);
}

TEST(Profiler, SurvivesManyColdLoopsWithTinyCache) {
  // Frequent-items behavior: one hot loop plus a parade of cold ones must
  // not evict the hot entry from a small cache.
  ProfilerConfig config;
  config.entries = 4;
  config.decay_interval = 0;  // isolate replacement policy
  Profiler p(config);
  common::Rng rng(7);
  for (int round = 0; round < 2000; ++round) {
    p.on_branch(0x1000, 0x800, true);  // hot
    const std::uint32_t cold = 0x4000 + rng.below(64) * 8;
    p.on_branch(cold, cold - 16, true);
  }
  EXPECT_EQ(p.hottest().branch_pc, 0x1000u);
  EXPECT_GT(p.hottest().count, 1000u);
}

TEST(Profiler, DecayHalvesCounts) {
  ProfilerConfig config;
  config.decay_interval = 8;
  Profiler p(config);
  for (int i = 0; i < 8; ++i) p.on_branch(0x40, 0x20, true);
  // After exactly 8 updates, counts were halved once: 8 -> 4.
  EXPECT_EQ(p.hottest().count, 4u);
}

TEST(Profiler, CounterSaturates) {
  ProfilerConfig config;
  config.counter_bits = 4;  // max 15
  config.decay_interval = 0;
  Profiler p(config);
  for (int i = 0; i < 100; ++i) p.on_branch(0x40, 0x20, true);
  EXPECT_EQ(p.hottest().count, 15u);
}

TEST(Profiler, ResetClears) {
  Profiler p;
  p.on_branch(0x40, 0x20, true);
  p.reset();
  EXPECT_EQ(p.hottest().count, 0u);
  EXPECT_TRUE(p.candidates().empty());
}

// The decay countdown halves at exactly the updates where the update count
// is a multiple of decay_interval, saturating in between, and never halves
// for interval 0.
TEST(Profiler, DecayFollowsTheUpdateCount) {
  for (const unsigned bits : {1u, 2u, 3u, 16u}) {
    for (const std::uint64_t interval : {0u, 1u, 2u, 3u, 5u, 4096u}) {
      ProfilerConfig config;
      config.counter_bits = bits;
      config.decay_interval = interval;
      Profiler p(config);
      const std::uint64_t max = (std::uint64_t{1} << bits) - 1;
      std::uint64_t expected = 0;
      for (std::uint64_t n = 1; n <= 3 * (interval != 0 ? interval : 8) + 7; ++n) {
        p.on_loop_branch(0x40, 0x20);
        expected = std::min(expected + 1, max);
        if (interval != 0 && n % interval == 0) expected >>= 1;
        ASSERT_EQ(p.hottest().count, expected)
            << "bits " << bits << " interval " << interval << " update " << n;
        ASSERT_EQ(p.updates(), n);
      }
    }
  }
}

// reset() re-arms the decay countdown: the first halving after it comes
// after exactly decay_interval updates.
TEST(Profiler, ResetRearmsDecay) {
  ProfilerConfig config;
  config.decay_interval = 8;
  Profiler p(config);
  for (int i = 0; i < 5; ++i) p.on_loop_branch(0x40, 0x20);
  p.reset();
  for (int i = 0; i < 7; ++i) p.on_loop_branch(0x40, 0x20);
  EXPECT_EQ(p.hottest().count, 7u);
  p.on_loop_branch(0x40, 0x20);  // the 8th update halves: 8 -> 4
  EXPECT_EQ(p.hottest().count, 4u);
  EXPECT_EQ(p.updates(), 8u);
}

TEST(ExactProfiler, MatchesGroundTruth) {
  ExactProfiler exact;
  for (int i = 0; i < 42; ++i) exact.on_branch(0x40, 0x20, true);
  for (int i = 0; i < 17; ++i) exact.on_branch(0x90, 0x60, true);
  const auto all = exact.candidates();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].count, 42u);
  EXPECT_EQ(all[1].count, 17u);
}

class ProfilerAccuracyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ProfilerAccuracyTest, TopLoopMatchesExactReference) {
  // Property: for a skewed loop-frequency distribution, the on-chip cache
  // identifies the same hottest loop as exact profiling, for any cache size.
  const unsigned entries = GetParam();
  ProfilerConfig config;
  config.entries = entries;
  Profiler p(config);
  ExactProfiler exact;
  common::Rng rng(entries * 977 + 1);
  for (int i = 0; i < 20000; ++i) {
    // Zipf-ish: loop k chosen with probability ~ 1/(k+1)^2.
    unsigned k = 0;
    while (k < 12 && rng.chance(0.45)) ++k;
    const std::uint32_t branch = 0x1000 + k * 0x40;
    p.on_branch(branch, branch - 0x30, true);
    exact.on_branch(branch, branch - 0x30, true);
  }
  EXPECT_EQ(p.hottest().branch_pc, exact.hottest().branch_pc);
}

INSTANTIATE_TEST_SUITE_P(CacheSizes, ProfilerAccuracyTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

}  // namespace
}  // namespace warp::profiler
