// Block-RAM memory model.
//
// The MicroBlaze system in the paper (Figure 1) has a Harvard organization:
// an instruction BRAM and a data BRAM on separate local memory buses. Both
// BRAMs are dual-ported: the second port of the instruction BRAM is how the
// DPM reads (and patches) the binary, and the second port of the data BRAM
// is how the WCLA's data-address generator streams array data (Figure 3).
// We model a BRAM as a flat byte array; "second port" users simply share the
// Memory object. Every write bumps a generation counter, so a cached view of
// the contents (the core's decode table) can tell when it is stale, whichever
// port wrote.
//
// The 16- and 32-bit accessors are little-endian at any byte alignment. They
// index from bytes_.data() + addr once the range check has passed, so the
// byte offsets cannot wrap in 32 bits and each one compiles to one host load
// or store; the WCLA executor's stream taps use the same accessors.
//
// A second-port user may also postpone its accesses: it registers itself as
// the Memory's one deferred-work owner, and whoever is about to observe the
// contents calls settle() first, which runs the postponed work. sim::Core
// settles before each data load or store and on every exit from run(); the
// WCLA queues short kernel invocations this way (src/hwsim/README.md). A
// Memory a core fetches from never accepts deferred work, so instruction
// fetch needs no such check (see src/sim/README.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace warp::sim {

/// Work a second-port user has postponed on a Memory (see Memory::defer).
class DeferredWork {
 public:
  /// Run the postponed work. Memory::settle() has already withdrawn the
  /// owner when it calls this, so a throw leaves no owner registered.
  virtual void settle_deferred() = 0;

 protected:
  ~DeferredWork() = default;
};

class Memory {
 public:
  explicit Memory(std::size_t size_bytes) : bytes_(size_bytes, 0) {}
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  std::size_t size() const { return bytes_.size(); }

  /// Count of writes so far (write8/16/32, load_words): while it stays the
  /// same, so do the contents.
  std::uint64_t generation() const { return generation_; }

  std::uint8_t read8(std::uint32_t addr) const {
    check(addr, 1);
    return bytes_[addr];
  }
  std::uint16_t read16(std::uint32_t addr) const {
    check(addr, 2);
    const std::uint8_t* const p = bytes_.data() + addr;
    return static_cast<std::uint16_t>(p[0] | p[1] << 8);
  }
  std::uint32_t read32(std::uint32_t addr) const {
    check(addr, 4);
    const std::uint8_t* const p = bytes_.data() + addr;
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
  }

  void write8(std::uint32_t addr, std::uint8_t value) {
    check(addr, 1);
    ++generation_;
    bytes_[addr] = value;
  }
  void write16(std::uint32_t addr, std::uint16_t value) {
    check(addr, 2);
    ++generation_;
    std::uint8_t* const p = bytes_.data() + addr;
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
  }
  void write32(std::uint32_t addr, std::uint32_t value) {
    check(addr, 4);
    ++generation_;
    std::uint8_t* const p = bytes_.data() + addr;
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
    p[2] = static_cast<std::uint8_t>(value >> 16);
    p[3] = static_cast<std::uint8_t>(value >> 24);
  }

  /// Bulk load (program images, workload data).
  void load_words(std::uint32_t addr, const std::vector<std::uint32_t>& words) {
    for (std::size_t i = 0; i < words.size(); ++i) {
      write32(addr + static_cast<std::uint32_t>(i * 4), words[i]);
    }
  }

  /// Deferred work: true while an owner has postponed accesses, which every
  /// observer of the contents must settle() first.
  bool has_deferred_work() const { return deferred_ != nullptr; }
  /// False once a core fetches from this Memory (mark_fetched()): a fetch
  /// must see every write, and the fetch loop does not settle.
  bool accepts_deferred_work() const { return !fetched_; }
  /// Register `owner` as the one owner of postponed work. A different
  /// owner's work is settled first, so work runs in the order it was
  /// postponed. Throws when the Memory does not accept deferred work.
  void defer(DeferredWork& owner) {
    if (fetched_) throw common::InternalError("deferred work on a fetched Memory");
    if (deferred_ != &owner) {
      settle();
      deferred_ = &owner;
    }
  }
  /// Run the postponed work, if any.
  void settle() {
    if (deferred_) std::exchange(deferred_, nullptr)->settle_deferred();
  }
  /// Drop `owner`'s registration without running its work (its destructor).
  void withdraw(const DeferredWork& owner) {
    if (deferred_ == &owner) deferred_ = nullptr;
  }
  /// A core fetches from this Memory: settle, and accept no deferred work.
  void mark_fetched() {
    settle();
    fetched_ = true;
  }

  /// Full word-wise snapshot, restorable with load_words(0, ...). Used by
  /// engine-equivalence tests and benches to rerun a kernel on identical
  /// starting data.
  std::vector<std::uint32_t> snapshot_words() const {
    std::vector<std::uint32_t> words(bytes_.size() / 4);
    for (std::uint32_t addr = 0; addr + 4 <= bytes_.size(); addr += 4) {
      words[addr / 4] = read32(addr);
    }
    return words;
  }

  /// FNV-1a hash over all whole words — a cheap equality fingerprint for
  /// comparing final memory images across evaluation engines.
  std::uint64_t checksum_words() const {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint32_t addr = 0; addr + 4 <= bytes_.size(); addr += 4) {
      h = (h ^ read32(addr)) * 1099511628211ull;
    }
    return h;
  }

 private:
  // In std::size_t: a 32-bit addr + size wraps for addresses near 4 GiB.
  void check(std::uint32_t addr, unsigned size) const {
    if (std::size_t{addr} + size > bytes_.size()) out_of_range(addr);
  }
  [[noreturn, gnu::cold, gnu::noinline]] void out_of_range(std::uint32_t addr) const {
    throw common::InternalError("BRAM access out of range: addr=" + std::to_string(addr) +
                                " size=" + std::to_string(bytes_.size()));
  }

  std::vector<std::uint8_t> bytes_;
  std::uint64_t generation_ = 0;
  DeferredWork* deferred_ = nullptr;
  bool fetched_ = false;
};

}  // namespace warp::sim
