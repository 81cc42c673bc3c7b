#include "profiler/profiler.hpp"

#include <algorithm>

namespace warp::profiler {

Profiler::Profiler(ProfilerConfig config) : config_(config) {
  entries_.resize(config_.entries);
  counter_max_ = (config_.counter_bits >= 64)
                     ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << config_.counter_bits) - 1);
  decay_left_ = decay_period();
}

void Profiler::reset() {
  for (auto& entry : entries_) entry = Entry{};
  updates_ = 0;
  decay_left_ = decay_period();
}

std::uint64_t Profiler::decay_period() const {
  return config_.decay_interval != 0 ? config_.decay_interval : ~std::uint64_t{0};
}

void Profiler::decay() {
  decay_left_ = decay_period();
  if (config_.decay_interval == 0) return;
  for (auto& entry : entries_) entry.count >>= 1;
}

Profiler::Entry* Profiler::scan(std::uint32_t pc, std::uint32_t target) {
  Entry* hit = nullptr;
  Entry* victim = nullptr;
  for (auto& entry : entries_) {
    if (entry.valid && entry.branch_pc == pc && entry.target_pc == target) {
      hit = &entry;
      break;
    }
    if (!victim || !entry.valid || entry.count < victim->count) {
      if (!entry.valid) {
        victim = &entry;
      } else if (!victim || !victim->valid || entry.count < victim->count) {
        victim = &entry;
      }
    }
  }
  if (!hit) {
    // Evict the minimum-count entry; the newcomer inherits count 1. This is
    // the lean hardware policy: one comparator tree, no per-entry age bits.
    *victim = Entry{pc, target, 1, true};
  }
  last_hit_ = static_cast<std::size_t>((hit ? hit : victim) - entries_.data());
  return hit;
}

std::vector<LoopCandidate> Profiler::candidates() const {
  std::vector<LoopCandidate> out;
  for (const auto& entry : entries_) {
    if (entry.valid && entry.count > 0) {
      out.push_back({entry.branch_pc, entry.target_pc, entry.count});
    }
  }
  std::sort(out.begin(), out.end(), [](const LoopCandidate& a, const LoopCandidate& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.branch_pc < b.branch_pc;
  });
  return out;
}

LoopCandidate Profiler::hottest() const {
  const auto all = candidates();
  return all.empty() ? LoopCandidate{} : all.front();
}

void ExactProfiler::on_branch(std::uint32_t pc, std::uint32_t target, bool taken) {
  if (!taken || target >= pc) return;
  const std::uint64_t key = (static_cast<std::uint64_t>(pc) << 32) | target;
  ++counts_[key];
}

std::vector<LoopCandidate> ExactProfiler::candidates() const {
  std::vector<LoopCandidate> out;
  out.reserve(counts_.size());
  for (const auto& [key, count] : counts_) {
    out.push_back({static_cast<std::uint32_t>(key >> 32),
                   static_cast<std::uint32_t>(key & 0xFFFFFFFFu), count});
  }
  std::sort(out.begin(), out.end(), [](const LoopCandidate& a, const LoopCandidate& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.branch_pc < b.branch_pc;
  });
  return out;
}

LoopCandidate ExactProfiler::hottest() const {
  const auto all = candidates();
  return all.empty() ? LoopCandidate{} : all.front();
}

}  // namespace warp::profiler
