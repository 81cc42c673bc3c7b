#include "reference.hpp"

#include <fstream>
#include <sstream>

namespace perfbench {

using namespace warp;

namespace {

void hash_core(common::Hasher& h, const sim::CoreStats& s) {
  h.u64(s.cycles).u64(s.idle_cycles).u64(s.instructions).u64(s.taken_branches);
  h.u64(s.not_taken_branches);
  for (const std::uint64_t n : s.per_class) h.u64(n);
}

void hash_energy(common::Hasher& h, const energy::EnergyBreakdown& e) {
  h.f64(e.e_mb_mj).f64(e.e_hw_mj).f64(e.e_static_mj);
}

void hash_run(common::Hasher& h, const warpsys::RunStats& s) {
  hash_core(h, s.core);
  h.u64(s.wcla.invocations).u64(s.wcla.wcla_cycles).f64(s.wcla.busy_ns);
  h.f64(s.seconds);
  hash_energy(h, s.energy);
}

void hash_outcome(common::Hasher& h, const warpsys::PartitionOutcome& o) {
  h.boolean(o.success).str(o.detail).u32(o.stub_addr).u32(o.header_pc);
  h.u64(o.stub.words.size());
  for (const std::uint32_t w : o.stub.words) h.u32(w);
  h.u32(o.stub.patch_word);
  h.u64(o.fabric_gates).u64(o.luts).u32(o.lut_depth);
  h.u32(o.rocm_literals_before).u32(o.rocm_literals_after).u64(o.rocm_tautology_calls);
  h.u64(o.rocm_memo_hits).f64(o.placement_hpwl).u64(o.place_delta_evaluations);
  h.u32(o.route_iterations).u64(o.route_nets_rerouted).f64(o.critical_path_ns);
  h.f64(o.fabric_clock_mhz).u64(o.bitstream_words).u64(o.dpm_cycles).f64(o.dpm_seconds);
  for (const std::string& line : o.attempts) h.str(line);
  for (const warpsys::StageMetric& m : o.stage_metrics) h.str(m.name).f64(m.cycles);
}

}  // namespace

common::Digest row_digest(const experiments::BenchmarkResult& r) {
  common::Hasher h;
  h.str(r.name).boolean(r.ok).str(r.error);
  h.f64(r.mb_seconds).f64(r.mb_energy_mj);
  hash_core(h, r.mb_stats);
  h.boolean(r.warped).str(r.warp_detail).f64(r.warp_seconds).f64(r.warp_energy_mj);
  h.f64(r.warp_speedup).f64(r.warp_energy_norm);
  hash_energy(h, r.warp_energy_parts);
  h.f64(r.dpm_seconds);
  hash_outcome(h, r.outcome);
  hash_run(h, r.warp_run);
  for (const experiments::ArmPoint& a : r.arm) {
    h.str(a.name).f64(a.seconds).f64(a.energy_mj).f64(a.speedup_vs_mb).f64(a.energy_vs_mb);
  }
  return h.finish();
}

common::Digest row_digest(const warpsys::MultiWarpEntry& e) {
  common::Hasher h;
  h.str(e.name).str(e.detail).f64(e.sw_seconds).f64(e.warped_seconds).f64(e.speedup);
  h.f64(e.dpm_seconds).f64(e.dpm_wait_seconds).boolean(e.warped);
  return h.finish();
}

common::Digest row_digest(const warpsys::RunStats& stats) {
  common::Hasher h;
  hash_run(h, stats);
  return h.finish();
}

PinnedDigests load_pinned(const std::string& path) {
  PinnedDigests pinned;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, digest, extra;
    if (!(fields >> workload >> key >> digest) || (fields >> extra)) return {};
    pinned[workload + " " + key] = digest;
  }
  return pinned;
}

}  // namespace perfbench
