// Single- and multi-processor warp processing systems (Figures 2 and 4).
//
// WarpSystem wires up the whole platform of Figure 2: a MicroBlaze core
// with instruction/data BRAMs, the non-intrusive profiler on the
// instruction-side bus, the WCLA on the OPB with the second data-BRAM port,
// and the DPM. Its lifecycle mirrors the paper's experimental method:
//
//   run_software()  — execute the unpatched binary, profiling as it runs;
//                     gives the software-only baseline (time, instruction
//                     mix);
//   warp()          — DPM partitions the hottest suitable loop, configures
//                     the WCLA and patches the binary;
//   run_warped()    — re-run the (patched) application: the kernel now
//                     executes on the WCLA while the core idles.
//
// Figure 4 shares one DPM across N processors. This header holds the parts
// of that model every engine shares: the three phases a system goes
// through (profile_phase, dpm_phase, warped_phase), the virtual-time DPM
// clock, and assign_dpm_waits, which computes every processor's wait from
// the finished rows. The engines themselves live in src/serve/:
// serve::run_multiprocessor (Figure 4's N-system experiment) and the warpd
// serving engine. Waits are defined by *virtual* time only, so the reported
// waits, speedups and partitions are bit-identical whatever the host thread
// count or the order the host ran the DPM jobs in.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "energy/power_model.hpp"
#include "hwsim/wcla_device.hpp"
#include "profiler/profiler.hpp"
#include "sim/core.hpp"
#include "warp/dpm.hpp"

namespace warp::warpsys {

struct WarpSystemConfig {
  isa::CpuConfig cpu;
  profiler::ProfilerConfig profiler;
  DpmOptions dpm;
  /// Lane-block width of the WCLA simulator's packed engine (0 = auto).
  /// A host-simulation knob only — it never changes simulated results.
  hwsim::PackedOptions packed;
  std::size_t instr_mem_bytes = 1 << 16;
  std::size_t data_mem_bytes = 1 << 20;
  bool verify_hw = false;  // cross-check fabric vs. DFG on every HW write
  std::uint64_t max_instructions = 500'000'000;
};

struct RunStats {
  sim::CoreStats core;
  hwsim::WclaStats wcla;
  double seconds = 0.0;
  energy::EnergyBreakdown energy;
};

class WarpSystem {
 public:
  using DataInit = std::function<void(sim::Memory&)>;

  WarpSystem(isa::Program program, DataInit init_data, WarpSystemConfig config);

  /// Software-only run with profiling. Resets data memory first. Refused
  /// (an error, nothing run) after a successful warp() patched the binary.
  common::Result<RunStats> run_software();

  /// Invoke the DPM on the collected profile; patch + configure on success.
  /// `cache` (optional) is a shared partition::ArtifactCache consulted by
  /// the staged pipeline — a host-side optimization that never changes the
  /// outcome (see dpm.hpp). `fault` (optional) is a shared deterministic
  /// fault injector; an unrecoverable injected failure simply leaves the
  /// system unwarped (software fallback).
  const PartitionOutcome& warp(partition::ArtifactCache* cache = nullptr,
                               common::FaultInjector* fault = nullptr);

  /// Run the (possibly patched) binary. Resets data memory first. The
  /// profiler is detached, so loop_profiler() keeps the software run's
  /// profile.
  common::Result<RunStats> run_warped();

  /// The profile of the last run_software().
  const profiler::Profiler& loop_profiler() const { return profiler_; }
  const PartitionOutcome* outcome() const {
    return outcome_ ? &*outcome_ : nullptr;
  }
  sim::Memory& data_mem() { return data_mem_; }
  sim::Core& core() { return core_; }
  hwsim::WclaDevice& wcla() { return wcla_; }
  const isa::Program& program() const { return program_; }
  const WarpSystemConfig& config() const { return config_; }

 private:
  common::Result<RunStats> run_internal(bool profile);
  RunStats finish_stats() const;

  isa::Program program_;
  DataInit init_data_;
  WarpSystemConfig config_;
  sim::Memory instr_mem_;
  sim::Memory data_mem_;
  sim::Core core_;
  profiler::Profiler profiler_;
  hwsim::WclaDevice wcla_;
  std::optional<PartitionOutcome> outcome_;
};

/// One row of a multi-processor experiment.
struct MultiWarpEntry {
  std::string name;
  std::string detail;              // partition detail or first run error
  double sw_seconds = 0.0;
  double warped_seconds = 0.0;
  double speedup = 0.0;
  double dpm_seconds = 0.0;        // this processor's partitioning job
  double dpm_wait_seconds = 0.0;   // queueing until the shared DPM reached it
  bool warped = false;

  bool operator==(const MultiWarpEntry&) const = default;
};

/// Virtual-time bookkeeping of the shared single-server DPM, which serves
/// jobs round robin, strictly by processor index (the paper's schedule):
/// a job's wait is the DPM busy time of every job served before it, kept
/// in nanoseconds to match the serial baseline bit for bit. Public so every
/// engine over the same virtual DPM (assign_dpm_waits, warpd's streaming
/// sequence_locked) shares this arithmetic exactly — bit-identity across
/// engines depends on it.
struct DpmVirtualClock {
  double busy_ns = 0.0;

  /// Called at service start with the job's virtual request time, which a
  /// round-robin wait does not depend on; returns the wait to report.
  double start(double request_seconds);
  /// Called at service end with the job's modeled DPM time.
  void finish(double job_seconds);
};

/// The three phases every multi-system engine pushes a WarpSystem through.
/// Exceptions and run failures land in entry.detail, never escape — the
/// transparency contract (a failed phase leaves the system in software).
/// Shared by every engine so each entry field is computed by literally the
/// same code.
///
/// profile_phase: profiled software run; fills the software fields. Returns
/// false (reason in entry.detail) if the system never reaches the DPM.
bool profile_phase(WarpSystem& system, MultiWarpEntry& entry);
/// dpm_phase: one DPM service — run the partitioning flow. Fills the job
/// time and detail; the caller accounts the wait. Returns whether hardware
/// came online. Caller must guarantee exclusive use of `system`; the cache
/// and fault injector lock internally.
bool dpm_phase(WarpSystem& system, MultiWarpEntry& entry,
               partition::ArtifactCache* cache, common::FaultInjector* fault);
/// warped_phase: re-run after the DPM released the system (warped if
/// partitioning succeeded, the software fallback otherwise).
void warped_phase(WarpSystem& system, MultiWarpEntry& entry, bool partitioned);

/// One finished processor (or session) as the shared DPM's schedule sees it.
struct DpmRow {
  /// Reads sw_seconds (the virtual request time) and dpm_seconds; receives
  /// dpm_wait_seconds. Not owned.
  MultiWarpEntry* entry = nullptr;
  /// The profiled run succeeded and filed a DPM job. Rows without a job
  /// never occupy the DPM and keep their wait untouched.
  bool filed = false;
};

/// The virtual DPM schedule: assign every filed row's dpm_wait_seconds,
/// serving rows in order through one DpmVirtualClock. `rows` are in virtual
/// admission order (processor index, or warpd's seq). A failed
/// partitioning job still occupies the DPM for its dpm_seconds. Exact after
/// the fact, whatever order the host ran the DPM jobs in: no entry field
/// other than the wait depends on that order.
void assign_dpm_waits(const std::vector<DpmRow>& rows);

}  // namespace warp::warpsys
