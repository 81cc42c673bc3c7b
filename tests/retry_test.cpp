// The one retry discipline (common/retry.hpp) of the socket server, whose
// attempt budget the pipeline's stage retries share.
//
// Pins the backoff shape (attempt k sleeps in [b, 2b) for b = 50 us << k,
// reproducible from the seed), the attempt budget (kRetryAttempts, above
// the default fault cap, so transient schedules converge), the give-up and
// exhaustion semantics, and that one Backoff is safe to share across
// threads (this binary runs under TSan in CI).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/retry.hpp"

namespace warp {
namespace {

using common::Attempt;
using common::Backoff;

std::uint64_t base_us(int attempt) { return Backoff::kBaseUs << attempt; }

// A wide-band draw (attempt 20 never sleeps here, it only reads the stream):
// two Backoffs agree on it only at the same position of the same stream.
std::uint64_t probe_draw(Backoff& backoff) {
  return static_cast<std::uint64_t>(backoff.delay(20).count());
}

// The draw a Backoff(seed) yields after exactly `sleeps` earlier draws —
// what retry() leaves behind when it slept that many times.
std::uint64_t draw_after(std::uint64_t seed, int sleeps) {
  Backoff reference(seed);
  for (int k = 0; k < sleeps; ++k) reference.delay(k);
  return probe_draw(reference);
}

TEST(Backoff, DelaysStayInBandAndRepeatForOneSeed) {
  Backoff a(42);
  Backoff b(42);
  Backoff other(43);
  bool any_differs = false;
  for (int round = 0; round < 64; ++round) {
    for (int attempt = 0; attempt < common::kRetryAttempts; ++attempt) {
      const auto d = static_cast<std::uint64_t>(a.delay(attempt).count());
      EXPECT_GE(d, base_us(attempt));
      EXPECT_LT(d, 2 * base_us(attempt));
      EXPECT_EQ(static_cast<std::uint64_t>(b.delay(attempt).count()), d)
          << "one seed must reproduce the schedule";
      any_differs |= static_cast<std::uint64_t>(other.delay(attempt).count()) != d;
    }
  }
  EXPECT_TRUE(any_differs) << "distinct seeds must decorrelate";
}

TEST(Retry, BudgetExceedsTheDefaultFaultCap) {
  EXPECT_GT(common::kRetryAttempts, static_cast<int>(common::FaultConfig{}.max_consecutive));
}

// A transient schedule whose cap is below the budget always converges.
TEST(Retry, ConvergesUnderTransientSchedule) {
  common::FaultConfig config;
  config.io_error_p = 1.0;  // every probe faults until the cap forces success
  config.max_consecutive = common::kRetryAttempts - 1;
  common::FaultInjector fault(config);
  Backoff backoff;
  for (int op = 0; op < 8; ++op) {
    int calls = 0;
    const bool done = common::retry(backoff, [&] {
      ++calls;
      return common::injected(&fault, "retry.test") ? Attempt::kRetry : Attempt::kDone;
    });
    EXPECT_TRUE(done) << "op " << op;
    EXPECT_EQ(calls, common::kRetryAttempts) << "op " << op;
  }
  EXPECT_EQ(fault.stats().injected_by_site.at("retry.test"),
            8u * (common::kRetryAttempts - 1));
}

TEST(Retry, GiveUpStopsAtOnceWithoutSleeping) {
  Backoff backoff(11);
  int calls = 0;
  const bool done = common::retry(backoff, [&] {
    ++calls;
    return calls == 1 ? Attempt::kRetry : Attempt::kGiveUp;
  });
  EXPECT_FALSE(done);
  EXPECT_EQ(calls, 2);
  // One sleep, after the retried first attempt; none for the give-up.
  EXPECT_EQ(probe_draw(backoff), draw_after(11, 1));
}

TEST(Retry, ReturnsFalseAfterTheBudget) {
  Backoff backoff(12);
  int calls = 0;
  EXPECT_FALSE(common::retry(backoff, [&] {
    ++calls;
    return Attempt::kRetry;
  }));
  EXPECT_EQ(calls, common::kRetryAttempts);
  // A sleep between attempts, none after the last.
  EXPECT_EQ(probe_draw(backoff), draw_after(12, common::kRetryAttempts - 1));
}

TEST(Retry, HonoursASmallerBudget) {
  Backoff backoff(13);
  int calls = 0;
  EXPECT_FALSE(common::retry(
      backoff,
      [&] {
        ++calls;
        return Attempt::kRetry;
      },
      2));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(probe_draw(backoff), draw_after(13, 1));

  // The second attempt of a 2-attempt budget still counts.
  calls = 0;
  EXPECT_TRUE(common::retry(
      backoff, [&] { return ++calls == 2 ? Attempt::kDone : Attempt::kRetry; }, 2));
  EXPECT_EQ(calls, 2);
}

// One Backoff serves a layer's every thread (the server's accept thread and
// all its connection threads): concurrent draws stay in band.
TEST(Backoff, ConcurrentDrawsFromOneBackoff) {
  Backoff backoff(7);
  constexpr int kThreads = 6;
  constexpr int kDraws = 2000;
  std::vector<std::thread> threads;
  std::vector<int> out_of_band(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kDraws; ++i) {
        const int attempt = i % common::kRetryAttempts;
        const auto d = static_cast<std::uint64_t>(backoff.delay(attempt).count());
        if (d < base_us(attempt) || d >= 2 * base_us(attempt)) ++out_of_band[t];
      }
      // And a few real retries with sleeps, through the shared instance.
      common::retry(backoff, [] { return Attempt::kRetry; });
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(out_of_band[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace warp
