// Non-intrusive on-chip profiler.
//
// The warp processor's profiler (paper, Section 3; design from Gordon-Ross &
// Vahid, CASES'03 "Frequent Loop Detection Using Efficient Non-Intrusive
// On-Chip Hardware") snoops instruction addresses on the instruction-side
// local memory bus. Whenever it observes a *taken backward branch* — the
// signature of a loop iteration — it updates a small fully-associative cache
// of branch-target frequencies with saturating counters and periodic decay.
//
// The cache is deliberately tiny (the hardware budget is a few dozen
// registers); the eviction policy (evict the minimum-count entry) and the
// periodic halving make it behave like a frequent-items sketch, so the
// hottest loop is identified with high probability even though most branches
// never get a dedicated entry. `bench/ablation_profiler` sweeps the entry
// count and decay interval against an exact reference profile.
//
// sim::Core delivers exactly those events: its branch hook and its direct
// sink (Core::set_profiler, which calls on_loop_branch) fire only for taken
// backward branches. on_branch still filters, for callers that feed it
// every branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>
#include <unordered_map>

namespace warp::profiler {

struct ProfilerConfig {
  unsigned entries = 16;           // cache size (hardware registers)
  unsigned counter_bits = 16;      // saturating counter width
  std::uint64_t decay_interval = 4096;  // halve all counters every N updates
};

/// A candidate loop: the backward branch at `branch_pc` jumping to the loop
/// header at `target_pc`, observed `count` times (post-decay weight).
struct LoopCandidate {
  std::uint32_t branch_pc = 0;
  std::uint32_t target_pc = 0;
  std::uint64_t count = 0;
};

class Profiler {
 public:
  explicit Profiler(ProfilerConfig config = {});

  /// Feed one observed branch; only a taken backward one counts.
  void on_branch(std::uint32_t pc, std::uint32_t target, bool taken) {
    if (taken && target < pc) on_loop_branch(pc, target);
  }

  /// Feed one taken backward branch (target < pc): a loop iteration. Inline
  /// because the core calls it on every such branch.
  void on_loop_branch(std::uint32_t pc, std::uint32_t target) {
    ++updates_;
    // Most updates repeat the previous one (87 % across the extended
    // workloads), and the scan would reach that entry late: a newcomer
    // takes the last free entry, so early hot loops sit at the end of the
    // table. So try the last hit first. Valid entries are unique by
    // (branch_pc, target_pc) -- one is inserted only on a miss -- so this
    // finds the entry the scan would.
    Entry* hit = &entries_[last_hit_];
    if (!hit->valid || hit->branch_pc != pc || hit->target_pc != target) hit = scan(pc, target);
    if (hit && hit->count < counter_max_) ++hit->count;
    if (config_.decay_interval != 0 && updates_ % config_.decay_interval == 0) decay();
  }

  /// Candidates sorted by descending count.
  std::vector<LoopCandidate> candidates() const;

  /// The single most frequent loop, or a zero-count candidate if none seen.
  LoopCandidate hottest() const;

  void reset();

  std::uint64_t updates() const { return updates_; }

 private:
  struct Entry {
    std::uint32_t branch_pc = 0;
    std::uint32_t target_pc = 0;
    std::uint64_t count = 0;
    bool valid = false;
  };

  /// The full lookup: the matching entry, or null after evicting the
  /// minimum-count entry for the newcomer. Either becomes the last hit.
  Entry* scan(std::uint32_t pc, std::uint32_t target);
  /// Halve every counter (every decay_interval updates).
  void decay();

  ProfilerConfig config_;
  std::vector<Entry> entries_;
  std::size_t last_hit_ = 0;  // entry of the previous update
  std::uint64_t updates_ = 0;
  std::uint64_t counter_max_ = 0;
};

/// Exact reference profiler (unbounded table) used to evaluate the on-chip
/// profiler's accuracy; this is what an offline trace analysis would give.
class ExactProfiler {
 public:
  void on_branch(std::uint32_t pc, std::uint32_t target, bool taken);
  std::vector<LoopCandidate> candidates() const;
  LoopCandidate hottest() const;

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> counts_;  // key: pc<<32|target
};

}  // namespace warp::profiler
