// The one retry discipline for host I/O under transient faults.
//
// The socket front end (serve/server.hpp) retries a failed accept, read or
// write a bounded number of times and then degrades. It does so through
// retry() below, with one attempt budget and one backoff shape, and the
// pipeline's stage retries share the budget, so a transient fault schedule
// converges the same way everywhere.
//
//   kRetryAttempts  attempts per step. Above the default
//                   FaultConfig::max_consecutive (3), so a transient-then-
//                   success schedule (common/fault_injector.hpp) always
//                   converges inside the budget. The pipeline's per-stage
//                   budget is the same constant; its stages probe without
//                   sleeping.
//   Backoff         after failed attempt k, sleep b + U[0, b) for
//                   b = kBaseUs << k. The jitter comes from a seeded
//                   common::Rng, so concurrent retries of one persistent
//                   fault spread out instead of hammering in lockstep, and
//                   one seed reproduces the exact sleep schedule (in call
//                   order). Thread-safe: one Backoff serves every thread of
//                   its layer.
//   retry()         runs a step until it reports done, gives up, or the
//                   budget runs out. Giving up returns at once, without a
//                   sleep; so does the last failed attempt.
//
// retry() is a template over the step (no std::function, no allocation):
// the server's recv/send loops call it on every session.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/rng.hpp"

namespace warp::common {

inline constexpr int kRetryAttempts = 4;

/// What one attempt of a retried step reports.
enum class Attempt : std::uint8_t {
  kDone,    // the step succeeded; stop
  kRetry,   // a transient failure; back off and try again
  kGiveUp,  // a failure retrying cannot fix; stop now
};

class Backoff {
 public:
  static constexpr std::uint64_t kBaseUs = 50;

  explicit Backoff(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : rng_(seed) {}

  /// The sleep after failed attempt `attempt`: in [b, 2b) for
  /// b = kBaseUs << attempt. Draws from the seeded jitter stream.
  std::chrono::microseconds delay(int attempt) {
    const std::uint64_t base = kBaseUs << std::clamp(attempt, 0, 20);
    std::lock_guard<std::mutex> lock(mutex_);
    return std::chrono::microseconds(base + rng_.next_u64() % base);
  }

  void sleep(int attempt) { std::this_thread::sleep_for(delay(attempt)); }

 private:
  std::mutex mutex_;
  Rng rng_;
};

/// Run `step` (a callable returning Attempt) up to `attempts` times,
/// sleeping backoff.delay(k) after failed attempt k unless it was the last.
/// Returns whether the step reported kDone.
template <typename Step>
bool retry(Backoff& backoff, Step&& step, int attempts = kRetryAttempts) {
  for (int attempt = 0; attempt < attempts; ++attempt) {
    switch (step()) {
      case Attempt::kDone:
        return true;
      case Attempt::kGiveUp:
        return false;
      case Attempt::kRetry:
        break;
    }
    if (attempt + 1 < attempts) backoff.sleep(attempt);
  }
  return false;
}

}  // namespace warp::common
