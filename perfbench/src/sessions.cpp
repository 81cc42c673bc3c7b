#include "sessions.hpp"

#include "arm/arm_model.hpp"
#include "isa/assembler.hpp"

namespace perfbench {

using namespace warp;

namespace {

void add_stage_spans(Tracer& tracer, int dpm_span, const warpsys::PartitionOutcome& outcome) {
  if (dpm_span < 0) return;
  std::int64_t at = tracer.spans()[static_cast<std::size_t>(dpm_span)].start_ns;
  for (const warpsys::StageMetric& stage : outcome.stage_metrics) {
    const auto ns = static_cast<std::int64_t>(stage.host_ns);
    tracer.add("partition." + stage.name, {}, dpm_span, at, at + ns);
    at += ns;
  }
}

// The golden check; false (with result.error set) on a mismatch.
bool check(const workloads::Workload& workload, ComposedSystem& system, const char* run,
           experiments::BenchmarkResult& result, Tracer& tracer) {
  ScopedSpan span(tracer, "warp.check");
  if (auto status = workload.check(system.data_mem()); !status) {
    result.error = std::string(run) + " result: " + status.message();
    return false;
  }
  return true;
}

}  // namespace

TracedResult traced_session(const workloads::Workload& workload,
                            const experiments::HarnessOptions& options, Flow flow,
                            Tracer& tracer) {
  TracedResult traced;
  experiments::BenchmarkResult& result = traced.result;
  result.name = workload.name;
  ScopedSpan session(tracer, "session", workload.name);

  auto program = [&] {
    ScopedSpan span(tracer, "isa.assemble");
    return isa::assemble(workload.source, options.cpu);
  }();
  if (!program) {
    result.error = "assemble: " + program.message();
    return traced;
  }
  warpsys::WarpSystemConfig config = options.system;
  config.cpu = options.cpu;
  config.verify_hw = options.verify_hw;
  std::optional<ComposedSystem> system;
  {
    ScopedSpan span(tracer, "warp.build");
    system.emplace(std::move(program).value(), workload.init, config, tracer, workload.name);
  }

  auto sw = [&] {
    ScopedSpan span(tracer, "sim.sw_run");
    return system->run_software();
  }();
  if (!sw) {
    result.error = "software run: " + sw.message();
    return traced;
  }
  result.mb_seconds = sw.value().seconds;
  result.mb_stats = sw.value().core;
  result.mb_energy_mj = sw.value().energy.total_mj();
  if (flow != Flow::kServe && !check(workload, *system, "software", result, tracer)) {
    return traced;
  }
  if (flow == Flow::kSoftware) {
    result.warp_run = sw.value();  // the software session's row
    result.ok = true;
    return traced;
  }

  {
    ScopedSpan span(tracer, "partition.dpm");
    result.outcome = system->warp(options.cache);
    add_stage_spans(tracer, span.index(), result.outcome);
  }
  const warpsys::PartitionOutcome& outcome = result.outcome;
  result.warp_detail = outcome.detail;
  result.dpm_seconds = outcome.dpm_seconds;
  if (outcome.success) {
    traced.packed_supported = system->wcla().executor()->packed_supported();
    auto warped = [&] {
      ScopedSpan span(tracer, "sim.warped_run");
      return system->run_warped();
    }();
    traced.hwsim = system->hwsim();
    if (!warped) {
      result.error = "warped run: " + warped.message();
      return traced;
    }
    if (flow == Flow::kPaper && !check(workload, *system, "warped", result, tracer)) {
      return traced;
    }
    result.warped = true;
    result.warp_run = warped.value();
    result.warp_seconds = warped.value().seconds;
    result.warp_energy_parts = warped.value().energy;
    result.warp_energy_mj = warped.value().energy.total_mj();
  } else {
    result.warp_seconds = result.mb_seconds;
    result.warp_energy_mj = result.mb_energy_mj;
  }
  result.warp_speedup = result.mb_seconds / result.warp_seconds;
  result.warp_energy_norm = result.warp_energy_mj / result.mb_energy_mj;

  if (flow == Flow::kPaper && options.include_arm) {
    ScopedSpan span(tracer, "warp.check");
    for (const auto& core : {arm::arm7(), arm::arm9(), arm::arm10(), arm::arm11()}) {
      const arm::ArmEstimate estimate = arm::estimate(core, result.mb_stats);
      experiments::ArmPoint point;
      point.name = core.name;
      point.seconds = estimate.seconds;
      point.energy_mj = estimate.energy_mj;
      point.speedup_vs_mb = result.mb_seconds / estimate.seconds;
      point.energy_vs_mb = estimate.energy_mj / result.mb_energy_mj;
      result.arm.push_back(point);
    }
  }
  result.ok = true;
  return traced;
}

common::Result<warpsys::RunStats> software_session(const workloads::Workload& workload,
                                                   const isa::CpuConfig& cpu) {
  using R = common::Result<warpsys::RunStats>;
  auto program = isa::assemble(workload.source, cpu);
  if (!program) return R::error("assemble: " + program.message());
  warpsys::WarpSystemConfig config = experiments::default_options().system;
  config.cpu = cpu;
  warpsys::WarpSystem system(std::move(program).value(), workload.init, config);
  auto sw = system.run_software();
  if (!sw) return sw;
  if (auto status = workload.check(system.data_mem()); !status) {
    return R::error("software result: " + status.message());
  }
  return sw;
}

experiments::HarnessOptions with_overrides(experiments::HarnessOptions base,
                                           unsigned max_candidates) {
  if (max_candidates != 0) base.system.dpm.max_candidates = max_candidates;
  return base;
}

}  // namespace perfbench
