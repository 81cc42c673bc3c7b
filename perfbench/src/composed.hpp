// A warp system composed from the simulator's public parts, for tracing.
//
// warpsys::WarpSystem wires its WCLA device straight into the core, so a
// kernel run cannot be timed from outside it. ComposedSystem builds the
// same platform from sim::Core, profiler::Profiler, hwsim::WclaDevice and
// warpsys::partition, with one difference: the core talks to the WCLA
// through TimedWcla, a forwarding OPB device that opens an "hwsim.exec"
// span around each kernel start. Its simulated results must equal
// WarpSystem's exactly; the benchmark's self-tests check that they do.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "trace.hpp"
#include "warp/warp_system.hpp"

namespace perfbench {

/// Executor work seen through TimedWcla, summed over kernel starts.
struct HwsimCounters {
  std::uint64_t invocations = 0;
  std::uint64_t iterations = 0;
};

class TimedWcla : public warp::sim::OpbDevice {
 public:
  TimedWcla(warp::hwsim::WclaDevice& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  void set_kernel_name(std::string name) { kernel_ = std::move(name); }
  const HwsimCounters& counters() const { return counters_; }

  bool contains(std::uint32_t addr) const override { return inner_.contains(addr); }
  warp::sim::OpbReadResult read32(std::uint32_t addr) override { return inner_.read32(addr); }
  void write32(std::uint32_t addr, std::uint32_t value) override;

 private:
  warp::hwsim::WclaDevice& inner_;
  Tracer& tracer_;
  std::string kernel_;
  HwsimCounters counters_;
};

class ComposedSystem {
 public:
  /// `kernel_name` tags this system's hwsim spans.
  ComposedSystem(warp::isa::Program program, warp::warpsys::WarpSystem::DataInit init_data,
                 warp::warpsys::WarpSystemConfig config, Tracer& tracer,
                 std::string kernel_name);
  ComposedSystem(const ComposedSystem&) = delete;
  ComposedSystem& operator=(const ComposedSystem&) = delete;

  /// Same contracts as the WarpSystem methods of the same names.
  warp::common::Result<warp::warpsys::RunStats> run_software();
  const warp::warpsys::PartitionOutcome& warp(warp::partition::ArtifactCache* cache);
  warp::common::Result<warp::warpsys::RunStats> run_warped();

  warp::sim::Memory& data_mem() { return data_mem_; }
  warp::hwsim::WclaDevice& wcla() { return wcla_; }
  const HwsimCounters& hwsim() const { return timed_.counters(); }

 private:
  warp::common::Result<warp::warpsys::RunStats> run_internal(bool profile);

  warp::isa::Program program_;
  warp::warpsys::WarpSystem::DataInit init_data_;
  warp::warpsys::WarpSystemConfig config_;
  warp::sim::Memory instr_mem_;
  warp::sim::Memory data_mem_;
  warp::sim::Core core_;
  warp::profiler::Profiler profiler_;
  warp::hwsim::WclaDevice wcla_;
  TimedWcla timed_;
  std::optional<warp::warpsys::PartitionOutcome> outcome_;
};

}  // namespace perfbench
