// The router's A* open list: a priority queue of (key, cell) entries that
// pops in exactly the order of
//   std::priority_queue<std::pair<double, int>, std::vector<...>, std::greater<>>
// (ascending key, ties by ascending cell), provided the entries queued at
// any one time are distinct pairs. The router's are; src/pnr/README.md says
// why.
//
// Entries with equal keys share a level. A level holds its cells as a
// bitset over [0, cells) plus a summary bitset with one bit per nonzero
// cell word, so a pop is two count-trailing-zeros and a push into an
// existing level is two ORs. The summary has as many words as it needs:
// one 64-bit summary word covers only 64 * 64 = 4096 cells. Live levels
// are kept sorted by key, the minimum at the back. A push scans up from
// the minimum for its key's level, so a key below the minimum opens the
// new minimum level. Level storage is recycled, never freed, so a queue
// reused across searches stops allocating once it has seen its peak.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace warp::pnr {

class LevelQueue {
 public:
  /// Size the queue for cells in [0, cells) and empty it.
  void reset(std::size_t cells) {
    levels_.clear();
    free_.clear();
    words_.clear();
    summary_.clear();
    slots_ = 0;
    words_per_level_ = (cells + 63) / 64;
    summary_per_level_ = (words_per_level_ + 63) / 64;
  }

  bool empty() const { return levels_.empty(); }

  void push(double key, int cell) {
    std::size_t i = levels_.size();
    while (i > 0 && levels_[i - 1].key < key) --i;
    if (i > 0 && levels_[i - 1].key == key) {
      --i;
    } else {
      const std::uint32_t slot = acquire();
      levels_.insert(levels_.begin() + static_cast<std::ptrdiff_t>(i), Level{key, slot, 0});
    }
    Level& level = levels_[i];
    const std::size_t c = static_cast<std::size_t>(cell);
    const std::size_t w = c / 64;
    std::uint64_t& word = words_[level.slot * words_per_level_ + w];
    assert(((word >> (c % 64)) & 1) == 0 && "LevelQueue entries must be distinct");
    word |= std::uint64_t{1} << (c % 64);
    summary_[level.slot * summary_per_level_ + w / 64] |= std::uint64_t{1} << (w % 64);
    ++level.size;
  }

  /// Remove and return the least (key, cell) entry. The queue must not be
  /// empty.
  std::pair<double, int> pop() {
    Level& level = levels_.back();
    std::uint64_t* summary = &summary_[level.slot * summary_per_level_];
    std::size_t s = 0;
    while (summary[s] == 0) ++s;
    const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(summary[s]));
    std::uint64_t& word = words_[level.slot * words_per_level_ + w];
    const int cell = static_cast<int>(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
    if (word == 0) summary[s] &= summary[s] - 1;
    const double key = level.key;
    if (--level.size == 0) {
      free_.push_back(level.slot);  // all of its bits are clear again
      levels_.pop_back();
    }
    return {key, cell};
  }

  /// Empty the queue, keeping its storage for the next search.
  void clear() {
    for (const Level& level : levels_) {
      std::uint64_t* summary = &summary_[level.slot * summary_per_level_];
      std::uint64_t* words = &words_[level.slot * words_per_level_];
      for (std::size_t s = 0; s < summary_per_level_; ++s) {
        for (; summary[s] != 0; summary[s] &= summary[s] - 1) {
          words[s * 64 + static_cast<std::size_t>(std::countr_zero(summary[s]))] = 0;
        }
      }
      free_.push_back(level.slot);
    }
    levels_.clear();
  }

 private:
  struct Level {
    double key;
    std::uint32_t slot;  // index of its bitset and summary in the pools
    std::uint32_t size;  // entries queued at this key
  };

  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    words_.resize(words_.size() + words_per_level_, 0);
    summary_.resize(summary_.size() + summary_per_level_, 0);
    return slots_++;
  }

  std::vector<Level> levels_;  // sorted by descending key: the minimum is at the back
  std::vector<std::uint32_t> free_;
  std::vector<std::uint64_t> words_;    // slots_ bitsets of words_per_level_ words
  std::vector<std::uint64_t> summary_;  // slots_ summaries of summary_per_level_ words
  std::uint32_t slots_ = 0;
  std::size_t words_per_level_ = 0;
  std::size_t summary_per_level_ = 0;
};

}  // namespace warp::pnr
