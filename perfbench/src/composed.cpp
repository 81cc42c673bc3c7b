#include "composed.hpp"

namespace perfbench {

using namespace warp;

void TimedWcla::write32(std::uint32_t addr, std::uint32_t value) {
  if (addr - hwsim::kWclaBase != hwsim::kWclaCtrl || value != 1) {
    inner_.write32(addr, value);
    return;
  }
  ++counters_.invocations;
  counters_.iterations += inner_.invocation().trip;
  ScopedSpan span(tracer_, "hwsim.exec", kernel_);
  inner_.write32(addr, value);
}

ComposedSystem::ComposedSystem(isa::Program program, warpsys::WarpSystem::DataInit init_data,
                               warpsys::WarpSystemConfig config, Tracer& tracer,
                               std::string kernel_name)
    : program_(std::move(program)),
      init_data_(std::move(init_data)),
      config_(config),
      instr_mem_(config.instr_mem_bytes),
      data_mem_(config.data_mem_bytes),
      core_(instr_mem_, data_mem_, config.cpu),
      profiler_(config.profiler),
      wcla_(data_mem_, config.cpu.clock_mhz),
      timed_(wcla_, tracer) {
  timed_.set_kernel_name(std::move(kernel_name));
  wcla_.set_packed_options(config.packed);
  core_.add_device(&timed_);
  core_.set_branch_hook([this](std::uint32_t pc, std::uint32_t target, bool taken) {
    profiler_.on_branch(pc, target, taken);
  });
  core_.load_program(program_);
}

common::Result<warpsys::RunStats> ComposedSystem::run_internal(bool profile) {
  using R = common::Result<warpsys::RunStats>;
  if (init_data_) init_data_(data_mem_);
  if (profile) profiler_.reset();
  core_.reset();
  core_.clear_stats();
  wcla_.clear_stats();
  const sim::StopReason reason = core_.run(config_.max_instructions);
  if (reason == sim::StopReason::kError) return R::error(core_.error());
  if (reason == sim::StopReason::kMaxInstructions) {
    return R::error("instruction budget exhausted");
  }
  warpsys::RunStats stats;
  stats.core = core_.stats();
  stats.wcla = wcla_.stats();
  stats.seconds = stats.core.seconds(config_.cpu.clock_mhz);
  const double f_hz = config_.cpu.clock_mhz * 1e6;
  const double t_active = static_cast<double>(stats.core.active_cycles()) / f_hz;
  const double t_idle = static_cast<double>(stats.core.idle_cycles) / f_hz;
  const double t_hw = stats.wcla.busy_ns * 1e-9;
  const bool warped = outcome_ && outcome_->success;
  const unsigned used_luts = warped ? static_cast<unsigned>(outcome_->luts) : 0;
  const bool uses_mac = warped && outcome_->kernel->mac_cycles_per_iter > 0;
  stats.energy = energy::microblaze_energy(t_active, t_idle, t_hw, used_luts, uses_mac);
  return stats;
}

common::Result<warpsys::RunStats> ComposedSystem::run_software() { return run_internal(true); }

const warpsys::PartitionOutcome& ComposedSystem::warp(partition::ArtifactCache* cache) {
  outcome_ = warpsys::partition(program_.words, profiler_.candidates(), hwsim::kWclaBase,
                                config_.dpm, cache);
  if (outcome_->success) {
    instr_mem_.load_words(outcome_->stub_addr, outcome_->stub.words);
    instr_mem_.write32(outcome_->header_pc, outcome_->stub.patch_word);
    wcla_.configure(outcome_->kernel, outcome_->config);
    wcla_.set_verify(config_.verify_hw);
  }
  return *outcome_;
}

common::Result<warpsys::RunStats> ComposedSystem::run_warped() { return run_internal(false); }

}  // namespace perfbench
