// The WCLA as an OPB peripheral of the MicroBlaze system (paper Figure 2).
//
// After the DPM configures the fabric, the patched binary talks to the WCLA
// through memory-mapped registers: it loads per-invocation state (trip
// count, stream base addresses, latched live-in values, accumulator
// initial values), starts the kernel, polls the status register — during
// which the MicroBlaze sits idle while the WCLA streams data through the
// second BRAM port — and finally reads accumulator results back.
//
// Register map (word offsets from kWclaBase):
//   +0x000  CTRL    (w)  write 1: run the configured kernel
//   +0x004  STATUS  (r)  0 = busy (read stalls the core for the HW runtime),
//                        1 = done
//   +0x008  TRIP    (w)  loop trip count for the LCH
//   +0x010+4s BASE[s]  (w) stream base byte address, s < 3
//   +0x080+4k CONST[k] (w) latched live-in value k (order = ir.live_in_regs)
//   +0x100+4k ACC[k]   (rw) accumulator k: write initial, read final
//
// Short invocations share lane blocks. A start (CTRL write) is charged to
// the cycle model, WclaStats and the STATUS idle cycles at once, as if the
// kernel ran there; but an invocation the executor accepts for a shared
// block (an accumulator-free kernel, trip shorter than one block:
// KernelExecutor::shared_block_width) is only queued, with the
// device registered as the data Memory's deferred-work owner. The queue
// runs as one packed block when it is full, when the next invocation
// cannot join (one of its read envelopes overlaps a queued write envelope,
// it needs another width, or it runs alone), on configure(), and whenever
// the core is about to observe data memory (sim::Memory::settle). Nothing
// but host time can tell the difference (src/hwsim/README.md). With
// set_verify(true), every invocation runs at its start as 1-lane blocks,
// each checked against the dataflow-graph reference.
#pragma once

#include <array>
#include <memory>

#include "hwsim/executor.hpp"
#include "sim/device.hpp"
#include "sim/memory.hpp"

namespace warp::hwsim {

inline constexpr std::uint32_t kWclaBase = sim::kOpbBase;
inline constexpr std::uint32_t kWclaCtrl = 0x000;
inline constexpr std::uint32_t kWclaStatus = 0x004;
inline constexpr std::uint32_t kWclaTrip = 0x008;
inline constexpr std::uint32_t kWclaStreamBase = 0x010;
inline constexpr std::uint32_t kWclaConstBase = 0x080;
inline constexpr std::uint32_t kWclaAccBase = 0x100;
inline constexpr std::uint32_t kWclaSpan = 0x200;

/// Cumulative WCLA activity, input to the Figure 5 energy model. Every
/// field is a pure function of the program and the options.
struct WclaStats {
  std::uint64_t invocations = 0;
  std::uint64_t wcla_cycles = 0;
  double busy_ns = 0.0;
  /// Lane blocks the executor evaluated; a block shared by queued
  /// invocations counts once, and a 1-lane run counts its trip.
  std::uint64_t packed_blocks = 0;
  /// Invocations by block shape: [kNone] ran in full lane blocks, every
  /// other entry ran 1-lane blocks for that ScalarReason.
  std::array<std::uint64_t, kScalarReasonCount> runs_by_reason{};
};

class WclaDevice : public sim::OpbDevice, private sim::DeferredWork {
 public:
  /// `data_mem` is the second port of the processor's data BRAM.
  /// `mb_clock_mhz` converts WCLA busy time into MicroBlaze idle cycles.
  WclaDevice(sim::Memory& data_mem, double mb_clock_mhz, std::uint32_t base = kWclaBase)
      : data_mem_(data_mem), mb_clock_mhz_(mb_clock_mhz), base_(base) {}
  /// Drops queued invocations unrun: their data memory goes with the system.
  ~WclaDevice() override { data_mem_.withdraw(*this); }
  WclaDevice(const WclaDevice&) = delete;
  WclaDevice& operator=(const WclaDevice&) = delete;

  /// Lane-block options handed to every executor built by configure();
  /// set before warping (the default auto-selects the width per run).
  void set_packed_options(PackedOptions packed) { packed_options_ = packed; }

  /// Install a synthesized + placed-and-routed kernel. Queued invocations
  /// of the previous kernel run first.
  void configure(std::shared_ptr<const synth::HwKernel> kernel,
                 std::shared_ptr<const fabric::FabricConfig> config);
  bool configured() const { return executor_ != nullptr; }

  /// Run every invocation as 1-lane blocks, each checked against the DFG
  /// reference (writes and accumulators); nothing is queued. Used by tests
  /// and the examples.
  void set_verify(bool verify) { verify_ = verify; }

  const WclaStats& stats() const { return stats_; }
  void clear_stats() { stats_ = WclaStats{}; }

  /// Direct access for tests and the packed-eval microbenchmark: the
  /// executor and the last invocation the stub programmed. The executor's
  /// packed options also steer queueing: a pinned width sets the shared
  /// block's.
  KernelExecutor* executor() { return executor_.get(); }
  const KernelInvocation& invocation() const { return invocation_; }

  // OpbDevice:
  bool contains(std::uint32_t addr) const override {
    return addr >= base_ && addr < base_ + kWclaSpan;
  }
  sim::OpbReadResult read32(std::uint32_t addr) override;
  void write32(std::uint32_t addr, std::uint32_t value) override;

 private:
  void start();
  /// Queue the started invocation into the shared block; false when it
  /// must run alone.
  bool queue_started();
  /// Charge one start to the cycle model and the stats.
  void charge(const KernelRunResult& run);
  /// sim::DeferredWork: run the queue as one packed block.
  void settle_deferred() override;

  sim::Memory& data_mem_;
  double mb_clock_mhz_;
  std::uint32_t base_;
  std::shared_ptr<const synth::HwKernel> kernel_;
  std::shared_ptr<const fabric::FabricConfig> config_;
  std::unique_ptr<KernelExecutor> executor_;
  PackedOptions packed_options_;
  bool verify_ = false;

  KernelInvocation invocation_;
  std::vector<std::uint32_t> acc_result_;
  bool done_ = true;
  std::uint64_t pending_idle_cycles_ = 0;
  WclaStats stats_;

  // The shared block: the first queued_ records of queue_ (reused, never
  // shrunk), all at queue_width_, queued_lanes_ lanes in all. Non-empty
  // only while the device is data_mem_'s deferred-work owner.
  std::vector<KernelInvocation> queue_;
  std::size_t queued_ = 0;
  unsigned queued_lanes_ = 0;
  unsigned queue_width_ = 0;
  std::vector<StreamEnvelope> queued_writes_;  // write-stream envelopes of the queue
  std::vector<StreamEnvelope> envelopes_;      // scratch: the started invocation's
  std::vector<BlockSegment> segments_;         // scratch for settle_deferred()
};

}  // namespace warp::hwsim
