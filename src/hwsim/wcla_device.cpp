#include "hwsim/wcla_device.hpp"

#include <cmath>
#include <utility>

#include "common/strings.hpp"

namespace warp::hwsim {

void WclaDevice::configure(std::shared_ptr<const synth::HwKernel> kernel,
                           std::shared_ptr<const fabric::FabricConfig> config) {
  if (queued_ != 0) data_mem_.settle();  // the old kernel's queue runs on the old kernel
  kernel_ = std::move(kernel);
  config_ = std::move(config);
  executor_ = std::make_unique<KernelExecutor>(*kernel_, *config_, packed_options_);
  invocation_ = KernelInvocation{};
  invocation_.stream_bases.assign(kernel_->ir.streams.size(), 0);
  invocation_.live_in.assign(kernel_->ir.live_in_regs.size(), 0);
  invocation_.acc_init.assign(kernel_->ir.accumulators.size(), 0);
  acc_result_.assign(kernel_->ir.accumulators.size(), 0);
  done_ = true;
  pending_idle_cycles_ = 0;
}

sim::OpbReadResult WclaDevice::read32(std::uint32_t addr) {
  const std::uint32_t offset = addr - base_;
  if (offset == kWclaStatus) {
    if (!done_) {
      // The core blocks on the busy WCLA: charge the hardware runtime as
      // idle MicroBlaze cycles, then report completion.
      done_ = true;
      const sim::OpbReadResult result{0, pending_idle_cycles_};
      pending_idle_cycles_ = 0;
      return result;
    }
    return {1, 0};
  }
  if (offset >= kWclaAccBase && offset < kWclaAccBase + 4 * acc_result_.size()) {
    return {acc_result_[(offset - kWclaAccBase) / 4], 0};
  }
  return {0, 0};
}

void WclaDevice::write32(std::uint32_t addr, std::uint32_t value) {
  const std::uint32_t offset = addr - base_;
  if (offset == kWclaCtrl) {
    if (value == 1) start();
    return;
  }
  if (offset == kWclaTrip) {
    invocation_.trip = value;
    return;
  }
  if (offset >= kWclaStreamBase && offset < kWclaStreamBase + 4 * invocation_.stream_bases.size()) {
    invocation_.stream_bases[(offset - kWclaStreamBase) / 4] = value;
    return;
  }
  if (offset >= kWclaConstBase && offset < kWclaConstBase + 4 * invocation_.live_in.size()) {
    invocation_.live_in[(offset - kWclaConstBase) / 4] = value;
    return;
  }
  if (offset >= kWclaAccBase && offset < kWclaAccBase + 4 * invocation_.acc_init.size()) {
    invocation_.acc_init[(offset - kWclaAccBase) / 4] = value;
    return;
  }
}

void WclaDevice::start() {
  if (!executor_) {
    throw common::InternalError("WCLA started without a configured kernel");
  }
  if (!verify_ && data_mem_.accepts_deferred_work() && queue_started()) {
    charge(executor_->timing(invocation_.trip));
    return;
  }
  data_mem_.settle();  // queued invocations come first
  auto result = executor_->run(data_mem_, invocation_, verify_);
  if (!result) {
    throw common::InternalError("WCLA execution failed: " + result.message());
  }
  const KernelRunResult& run = result.value();
  acc_result_ = run.acc_final;
  stats_.packed_blocks += run.packed_blocks;
  charge(run);
}

void WclaDevice::charge(const KernelRunResult& run) {
  done_ = false;
  pending_idle_cycles_ =
      static_cast<std::uint64_t>(std::ceil(run.time_ns * mb_clock_mhz_ / 1000.0));
  ++stats_.invocations;
  stats_.wcla_cycles += run.wcla_cycles;
  stats_.busy_ns += run.time_ns;
  ++stats_.runs_by_reason[static_cast<std::size_t>(run.scalar_reason)];
}

bool WclaDevice::queue_started() {
  const unsigned width = executor_->shared_block_width(invocation_, envelopes_);
  if (width == 0) return false;
  const auto& streams = kernel_->ir.streams;
  const auto lanes = static_cast<unsigned>(invocation_.trip);
  if (queued_ != 0) {
    bool joins = width == queue_width_ && queued_lanes_ + lanes <= width * kPackedWordBits;
    for (std::size_t s = 0; joins && s < streams.size(); ++s) {
      if (streams[s].is_write) continue;
      for (const StreamEnvelope& written : queued_writes_) {
        if (written.overlaps(envelopes_[s])) {
          joins = false;  // the shared block would read it before the write
          break;
        }
      }
    }
    if (!joins) data_mem_.settle();
  }
  data_mem_.defer(*this);  // settles another owner's queue first
  if (queued_ == queue_.size()) queue_.emplace_back();
  queue_[queued_++] = invocation_;
  queued_lanes_ += lanes;
  queue_width_ = width;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    if (streams[s].is_write) queued_writes_.push_back(envelopes_[s]);
  }
  if (queued_lanes_ == width * kPackedWordBits) data_mem_.settle();
  return true;
}

void WclaDevice::settle_deferred() {
  // Empty the queue before running it, so a throwing block leaves none.
  const std::size_t count = std::exchange(queued_, 0);
  queued_lanes_ = 0;
  queued_writes_.clear();
  segments_.clear();
  unsigned lane0 = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const auto lanes = static_cast<unsigned>(queue_[k].trip);
    segments_.push_back(BlockSegment{&queue_[k], 0, lane0, lanes});
    lane0 += lanes;
  }
  executor_->run_shared_block(data_mem_, segments_.data(), segments_.size());
  ++stats_.packed_blocks;
}

}  // namespace warp::hwsim
