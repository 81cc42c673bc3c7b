#include "warp/warp_system.hpp"

#include <exception>

namespace warp::warpsys {

WarpSystem::WarpSystem(isa::Program program, DataInit init_data, WarpSystemConfig config)
    : program_(std::move(program)),
      init_data_(std::move(init_data)),
      config_(config),
      instr_mem_(config.instr_mem_bytes),
      data_mem_(config.data_mem_bytes),
      core_(instr_mem_, data_mem_, config.cpu),
      profiler_(config.profiler),
      wcla_(data_mem_, config.cpu.clock_mhz) {
  wcla_.set_packed_options(config.packed);
  core_.add_device(&wcla_);
  core_.set_profiler(&profiler_);
  core_.load_program(program_);
}

common::Result<RunStats> WarpSystem::run_internal(bool profile) {
  if (init_data_) init_data_(data_mem_);
  // Only the software run feeds the profiler: the profile is what warp()
  // partitions, and a warped run would add the patched binary's branches.
  if (profile) profiler_.reset();
  core_.set_profiler(profile ? &profiler_ : nullptr);
  core_.reset();
  core_.clear_stats();
  wcla_.clear_stats();
  const sim::StopReason reason = core_.run(config_.max_instructions);
  if (reason == sim::StopReason::kError) {
    return common::Result<RunStats>::error(core_.error());
  }
  if (reason == sim::StopReason::kMaxInstructions) {
    return common::Result<RunStats>::error("instruction budget exhausted");
  }
  return finish_stats();
}

RunStats WarpSystem::finish_stats() const {
  RunStats stats;
  stats.core = core_.stats();
  stats.wcla = wcla_.stats();
  stats.seconds = stats.core.seconds(config_.cpu.clock_mhz);

  const double f_hz = config_.cpu.clock_mhz * 1e6;
  const double t_active = static_cast<double>(stats.core.active_cycles()) / f_hz;
  const double t_idle = static_cast<double>(stats.core.idle_cycles) / f_hz;
  const double t_hw = stats.wcla.busy_ns * 1e-9;
  const unsigned used_luts =
      outcome_ && outcome_->success ? static_cast<unsigned>(outcome_->luts) : 0;
  const bool uses_mac =
      outcome_ && outcome_->success && outcome_->kernel->mac_cycles_per_iter > 0;
  stats.energy = energy::microblaze_energy(t_active, t_idle, t_hw, used_luts, uses_mac);
  return stats;
}

common::Result<RunStats> WarpSystem::run_software() {
  if (outcome_ && outcome_->success) {
    return common::Result<RunStats>::error(
        "run_software() after a successful warp(): the binary is patched");
  }
  return run_internal(true);
}

const PartitionOutcome& WarpSystem::warp(partition::ArtifactCache* cache,
                                         common::FaultInjector* fault) {
  outcome_ = partition(program_.words, profiler_.candidates(),
                       hwsim::kWclaBase, config_.dpm, cache, fault);
  if (outcome_->success) {
    // Write the stub into free instruction memory and patch the loop header
    // (through the second port of the instruction BRAM, like the real DPM).
    instr_mem_.load_words(outcome_->stub_addr, outcome_->stub.words);
    instr_mem_.write32(outcome_->header_pc, outcome_->stub.patch_word);
    wcla_.configure(outcome_->kernel, outcome_->config);
    wcla_.set_verify(config_.verify_hw);
  }
  return *outcome_;
}

common::Result<RunStats> WarpSystem::run_warped() { return run_internal(false); }

double DpmVirtualClock::start(double /*request_seconds*/) { return busy_ns * 1e-9; }

void DpmVirtualClock::finish(double job_seconds) { busy_ns += job_seconds * 1e9; }

bool profile_phase(WarpSystem& system, MultiWarpEntry& entry) {
  try {
    auto sw = system.run_software();
    if (!sw) {
      entry.detail = "software run: " + sw.message();
      return false;
    }
    entry.sw_seconds = sw.value().seconds;
    return true;
  } catch (const std::exception& e) {
    entry.detail = std::string("software run: ") + e.what();
    return false;
  }
}

// One DPM service: run the partitioning flow for this system. Fills the
// entry's job time and detail; the caller accounts the wait. Returns whether
// hardware came online. `cache` is the experiment-wide shared artifact
// cache (may be null); every engine serializes DPM jobs on one thread, and
// the cache locks internally regardless.
bool dpm_phase(WarpSystem& system, MultiWarpEntry& entry,
               partition::ArtifactCache* cache, common::FaultInjector* fault) {
  try {
    const PartitionOutcome& outcome = system.warp(cache, fault);
    entry.detail = outcome.detail;
    entry.dpm_seconds = outcome.dpm_seconds;
    return outcome.success;
  } catch (const std::exception& e) {
    entry.detail = std::string("partition: ") + e.what();
    return false;
  }
}

// Re-run after the DPM released the system (warped if partitioning
// succeeded, the software fallback otherwise).
void warped_phase(WarpSystem& system, MultiWarpEntry& entry, bool partitioned) {
  if (!partitioned) {
    // The application keeps running in software.
    entry.warped_seconds = entry.sw_seconds;
    entry.speedup = 1.0;
    return;
  }
  try {
    auto warped = system.run_warped();
    if (!warped) {
      entry.detail = "warped run: " + warped.message();
      return;
    }
    entry.warped = true;
    entry.warped_seconds = warped.value().seconds;
    entry.speedup = entry.sw_seconds / entry.warped_seconds;
  } catch (const std::exception& e) {
    entry.detail = std::string("warped run: ") + e.what();
  }
}

void assign_dpm_waits(const std::vector<DpmRow>& rows) {
  DpmVirtualClock clock;
  for (const DpmRow& row : rows) {
    if (!row.filed) continue;
    row.entry->dpm_wait_seconds = clock.start(row.entry->sw_seconds);
    clock.finish(row.entry->dpm_seconds);
  }
}

}  // namespace warp::warpsys
