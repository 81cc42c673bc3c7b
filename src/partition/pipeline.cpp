#include "partition/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/retry.hpp"
#include "common/strings.hpp"
#include "decompile/decoder.hpp"
#include "isa/isa.hpp"
#include "logicopt/rocm.hpp"

namespace warp::partition {
namespace {

using warpsys::DpmCostModel;
using warpsys::PartitionOutcome;
using warpsys::StageMetric;

// Raised when a persistently injected fault downs a stage that has no
// failure representation (frontend/rocm/bitstream artifacts cannot say
// "failed"). Caught inside Pipeline::run — it surfaces as an unsuccessful
// outcome (the software-fallback path), never as an exception to callers.
struct InjectedStageFault : std::runtime_error {
  explicit InjectedStageFault(const std::string& stage)
      : std::runtime_error("injected stage fault: " + stage) {}
};

// The failure artifact an exhausted retry budget returns for stages that
// *can* represent failure. The cache never stores it (Pipeline::stage): the
// fault came from the host, so the next job recomputes the stage.
template <typename T>
std::shared_ptr<const T> injected_failure() {
  if constexpr (requires(T t) {
                  t.ok;
                  t.error;
                }) {
    auto art = std::make_shared<T>();
    art->ok = false;
    art->error = "injected stage fault";
    return art;
  } else {
    return nullptr;
  }
}

// Static cycle estimate of the loop body [target, branch] for scoring.
std::uint64_t body_cycle_estimate(const decompile::Cfg& cfg, std::uint32_t target_pc,
                                  std::uint32_t branch_pc) {
  const int first = decompile::find_instr(cfg.instrs(), target_pc);
  const int last = decompile::find_instr(cfg.instrs(), branch_pc);
  if (first < 0 || last < 0 || last < first) return 0;
  std::uint64_t cycles = 0;
  for (int i = first; i <= last; ++i) {
    const auto& fi = cfg.instrs()[static_cast<std::size_t>(i)];
    if (!fi.valid) return 0;
    cycles += isa::latency_cycles(fi.instr.op, true);
    if (fi.fused) cycles += 1;
  }
  return cycles;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

}  // namespace

const std::vector<std::string>& stage_names() {
  static const std::vector<std::string> kNames = {
      kStageFrontend, kStageDecompile, kStageSynth,     kStageTechmap,
      kStageRocm,     kStagePnr,       kStageBitstream, kStageStub,
  };
  return kNames;
}

common::Digest binary_content_hash(const std::vector<std::uint32_t>& binary_words) {
  common::Hasher h;
  h.u64(binary_words.size());
  for (const std::uint32_t w : binary_words) h.u32(w);
  return h.finish();
}

Pipeline::Pipeline(const warpsys::DpmOptions& options, ArtifactCache* cache,
                   common::FaultInjector* fault)
    : options_(options), cache_(cache), fault_(fault) {
  {
    common::Hasher h;
    h.u32(options_.extract.max_streams).u32(options_.extract.max_burst);
    h.u32(options_.extract.max_accumulators);
    extract_config_ = h.finish();
  }
  {
    common::Hasher h;
    h.u32(options_.synth.csd_max_terms).u64(options_.synth.max_fabric_gates);
    synth_config_ = h.finish();
  }
  {
    common::Hasher h;
    h.u32(options_.techmap.cuts_per_node);
    techmap_config_ = h.finish();
  }
  {
    common::Hasher h;
    const pnr::PlaceOptions& p = options_.pnr.place;
    h.u64(p.seed).u32(p.moves_per_lut).f64(p.initial_temperature).f64(p.cooling);
    const pnr::RouteOptions& r = options_.pnr.route;
    h.u32(r.max_iterations).f64(r.present_factor).f64(r.history_factor);
    const fabric::FabricGeometry& g = options_.fabric;
    h.u32(g.width).u32(g.height).u32(g.luts_per_clb).u32(g.channel_capacity);
    h.f64(g.lut_delay_ns).f64(g.wire_hop_delay_ns).f64(g.io_delay_ns).f64(g.max_clock_mhz);
    pnr_config_ = h.finish();
  }
  empty_config_ = common::Hasher{}.finish();
}

StageMetric& Pipeline::metric(const char* name) {
  for (StageMetric& m : metrics_) {
    if (m.name == name) return m;
  }
  metrics_.push_back(StageMetric{name});
  return metrics_.back();
}

void Pipeline::charge(const char* name, double cycles) {
  metric(name).cycles += cycles;
  cycles_ += cycles;
}

template <typename T, typename Compute>
std::shared_ptr<const T> Pipeline::stage(const char* name, const common::Digest& input,
                                         const common::Digest& config, Compute&& compute) {
  const auto start = std::chrono::steady_clock::now();
  ++metric(name).runs;
  std::shared_ptr<const T> artifact;
  // Host-side stage failures are retried within common::kRetryAttempts,
  // probing without sleeping. Retries burn host wall-clock only: the
  // virtual-time charge is derived from the artifact's metered counts, and
  // a transient schedule (fault cap below the budget) always converges to
  // the fault-free artifact — so simulated results are bit-identical with
  // or without injection, just slower. An exhausted budget's failure is
  // returned but never cached.
  bool injected = false;
  auto compute_with_faults = [&]() -> std::shared_ptr<const T> {
    if (fault_ == nullptr) return compute();
    const std::string site = std::string("stage.") + name;
    for (int attempt = 0; attempt < common::kRetryAttempts; ++attempt) {
      if (!fault_->probe(site, common::FaultKind::kStageFail)) return compute();
    }
    auto failed = injected_failure<T>();
    if (!failed) throw InjectedStageFault(name);
    injected = true;
    return failed;
  };
  if (cache_ != nullptr) {
    const CacheKey key{name, input, config};
    artifact = cache_->find<T>(key);
    if (artifact) {
      ++metric(name).cache_hits;
      ++run_hits_;
    } else {
      ++run_misses_;
      artifact = compute_with_faults();
      if (!injected) cache_->put<T>(key, artifact);
    }
  } else {
    artifact = compute_with_faults();
  }
  // Re-resolve the metric: metrics_ may have grown (and reallocated) while
  // compute() ran.
  metric(name).host_ns += elapsed_ns(start);
  return artifact;
}

std::shared_ptr<const FrontendArtifact> Pipeline::run_frontend(
    const std::vector<std::uint32_t>& binary_words, const common::Digest& binary_hash) {
  return stage<FrontendArtifact>(kStageFrontend, binary_hash, empty_config_, [&] {
    auto art = std::make_shared<FrontendArtifact>();
    art->cfg = decompile::Cfg::build(decompile::decode_program(binary_words));
    art->liveness = std::make_unique<decompile::Liveness>(art->cfg);
    art->instrs = art->cfg.instrs().size();
    return art;
  });
}

std::shared_ptr<const DecompileArtifact> Pipeline::run_decompile(
    const FrontendArtifact& frontend, const common::Digest& binary_hash,
    std::uint32_t branch_pc, std::uint32_t header_pc) {
  common::Hasher h;
  h.digest(binary_hash).u32(branch_pc).u32(header_pc);
  return stage<DecompileArtifact>(kStageDecompile, h.finish(), extract_config_, [&] {
    auto art = std::make_shared<DecompileArtifact>();
    const int first = decompile::find_instr(frontend.cfg.instrs(), header_pc);
    const int last = decompile::find_instr(frontend.cfg.instrs(), branch_pc);
    if (first >= 0 && last >= first) {
      art->region_instrs = static_cast<std::uint64_t>(last - first + 1);
    }
    auto ir = decompile::extract_kernel(frontend.cfg, *frontend.liveness, branch_pc,
                                        header_pc, options_.extract);
    if (ir) {
      art->ok = true;
      art->ir = std::move(ir).value();
      art->ir_hash = content_hash(art->ir);
    } else {
      art->error = ir.message();
    }
    return art;
  });
}

std::shared_ptr<const SynthArtifact> Pipeline::run_synth(const DecompileArtifact& decompiled) {
  return stage<SynthArtifact>(kStageSynth, decompiled.ir_hash, synth_config_, [&] {
    auto art = std::make_shared<SynthArtifact>();
    auto kernel = synth::synthesize(decompiled.ir, options_.synth);
    if (kernel) {
      art->ok = true;
      art->kernel = std::move(kernel).value();
      art->kernel_hash = content_hash(art->kernel);
      art->fabric_gates = art->kernel.fabric.size();
    } else {
      art->error = kernel.message();
    }
    return art;
  });
}

std::shared_ptr<const TechmapArtifact> Pipeline::run_techmap(const SynthArtifact& synthesized) {
  return stage<TechmapArtifact>(kStageTechmap, synthesized.kernel_hash, techmap_config_, [&] {
    auto art = std::make_shared<TechmapArtifact>();
    auto mapped = techmap::techmap(synthesized.kernel.fabric, options_.techmap, &art->stats);
    if (mapped) {
      art->ok = true;
      art->netlist = std::move(mapped).value();
      art->netlist_hash = art->netlist.content_hash();
    } else {
      art->error = mapped.message();
    }
    return art;
  });
}

std::shared_ptr<const RocmArtifact> Pipeline::run_rocm(const TechmapArtifact& mapped) {
  return stage<RocmArtifact>(kStageRocm, mapped.netlist_hash, empty_config_, [&] {
    auto art = std::make_shared<RocmArtifact>();
    for (const auto& lut : mapped.netlist.luts) {
      logicopt::Cover on, off;
      logicopt::covers_from_truth(lut.truth, lut.num_inputs, on, off);
      logicopt::RocmStats rocm_stats;
      const auto minimized = logicopt::rocm_minimize(on, off, lut.num_inputs, &rocm_stats);
      art->literals_before += rocm_stats.initial_literals;
      art->literals_after += logicopt::cover_literals(minimized);
      art->tautology_calls += rocm_stats.tautology_calls;
      art->memo_hits += rocm_stats.tautology_memo_hits;
      art->steps += rocm_stats.expand_steps + rocm_stats.tautology_calls;
    }
    return art;
  });
}

std::shared_ptr<const PnrArtifact> Pipeline::run_pnr(const TechmapArtifact& mapped) {
  return stage<PnrArtifact>(kStagePnr, mapped.netlist_hash, pnr_config_, [&] {
    auto art = std::make_shared<PnrArtifact>();
    auto result = pnr::place_and_route(mapped.netlist, options_.fabric, options_.pnr);
    if (result) {
      art->ok = true;
      art->result = std::move(result).value();
      art->result_hash = content_hash(art->result);
    } else {
      art->error = result.message();
    }
    return art;
  });
}

std::shared_ptr<const BitstreamArtifact> Pipeline::run_bitstream(
    const PnrArtifact& placed_routed) {
  return stage<BitstreamArtifact>(kStageBitstream, placed_routed.result_hash, empty_config_,
                                  [&] {
                                    auto art = std::make_shared<BitstreamArtifact>();
                                    art->words = fabric::encode_bitstream(placed_routed.result.config);
                                    return art;
                                  });
}

std::shared_ptr<const StubArtifact> Pipeline::run_stub(const DecompileArtifact& decompiled,
                                                       const FrontendArtifact& frontend,
                                                       std::uint32_t stub_addr,
                                                       std::uint32_t wcla_base) {
  const decompile::RegSet live_at_header =
      frontend.liveness->live_before_pc(decompiled.ir.header_pc);
  const decompile::RegSet live_at_exit =
      (frontend.cfg.block_of_pc(decompiled.ir.exit_pc) >= 0)
          ? frontend.liveness->live_before_pc(decompiled.ir.exit_pc)
          : 0u;
  common::Hasher h;
  h.u32(live_at_header).u32(live_at_exit).u32(stub_addr).u32(wcla_base);
  return stage<StubArtifact>(kStageStub, decompiled.ir_hash, h.finish(), [&] {
    auto art = std::make_shared<StubArtifact>();
    warpsys::StubRequest request;
    request.ir = decompiled.ir;
    request.live_at_header = live_at_header;
    request.live_at_exit = live_at_exit;
    request.stub_addr = stub_addr;
    request.wcla_base = wcla_base;
    auto stub = warpsys::build_stub(request);
    if (stub) {
      art->ok = true;
      art->stub = std::move(stub).value();
    } else {
      art->error = stub.message();
    }
    return art;
  });
}

PartitionOutcome Pipeline::run(const std::vector<std::uint32_t>& binary_words,
                               const std::vector<profiler::LoopCandidate>& candidates,
                               std::uint32_t wcla_base) {
  metrics_.clear();
  cycles_ = 0.0;
  run_hits_ = 0;
  run_misses_ = 0;

  PartitionOutcome outcome;
  const DpmCostModel& cost = options_.cost;
  try {
  // Front end: decode, CFG, dominators, liveness over the whole binary.
  const common::Digest binary_hash = binary_content_hash(binary_words);
  const auto frontend = run_frontend(binary_words, binary_hash);
  charge(kStageFrontend, cost.per_binary_instr * static_cast<double>(frontend->instrs));

  // Score candidates by (frequency x static body cost). Pure arithmetic over
  // the frontend artifact — not a cached stage of its own.
  struct Scored {
    profiler::LoopCandidate candidate;
    std::uint64_t body_cycles = 0;
    double score = 0.0;
  };
  std::vector<Scored> scored;
  for (const auto& candidate : candidates) {
    Scored s;
    s.candidate = candidate;
    s.body_cycles = body_cycle_estimate(frontend->cfg, candidate.target_pc, candidate.branch_pc);
    s.score = static_cast<double>(candidate.count) * static_cast<double>(s.body_cycles);
    if (s.score > 0) scored.push_back(s);
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });
  if (scored.size() > options_.max_candidates) scored.resize(options_.max_candidates);

  for (const auto& s : scored) {
    const std::uint32_t header = s.candidate.target_pc;
    const std::uint32_t branch = s.candidate.branch_pc;
    auto tag = [&](const std::string& msg) {
      outcome.attempts.push_back(common::format("loop 0x%x->0x%x (score %.0f): %s", branch,
                                                header, s.score, msg.c_str()));
      outcome.detail = outcome.attempts.back();
    };

    // Decompile. The symbolic-execution work is charged whether or not the
    // region extracts (the DPM ran the passes either way).
    const auto decompiled = run_decompile(*frontend, binary_hash, branch, header);
    charge(kStageDecompile,
           cost.per_region_instr * static_cast<double>(decompiled->region_instrs));
    if (!decompiled->ok) {
      tag("decompile: " + decompiled->error);
      continue;
    }

    // Synthesize.
    const auto synthesized = run_synth(*decompiled);
    if (!synthesized->ok) {
      tag("synthesis: " + synthesized->error);
      continue;
    }
    charge(kStageSynth, cost.per_gate * static_cast<double>(synthesized->fabric_gates));

    // Technology map.
    const auto mapped = run_techmap(*synthesized);
    if (!mapped->ok) {
      tag("techmap: " + mapped->error);
      continue;
    }
    charge(kStageTechmap, cost.per_cut * static_cast<double>(mapped->stats.cut_count));
    charge(kStageTechmap, cost.per_lut * static_cast<double>(mapped->stats.luts_out));

    // ROCM two-level minimization of every LUT function (the DAC'03 step:
    // minimizes the literal count the router must honor; metered work).
    const auto rocm = run_rocm(*mapped);
    charge(kStageRocm, cost.per_rocm_step * static_cast<double>(rocm->steps));

    // Place and route.
    const auto placed_routed = run_pnr(*mapped);
    if (!placed_routed->ok) {
      tag("pnr: " + placed_routed->error);
      continue;
    }
    charge(kStagePnr,
           cost.per_move * static_cast<double>(placed_routed->result.place.moves));
    charge(kStagePnr,
           cost.per_expansion * static_cast<double>(placed_routed->result.route.expansions));

    // Bitstream + stub.
    const auto bits = run_bitstream(*placed_routed);
    charge(kStageBitstream,
           cost.per_bitstream_word * static_cast<double>(bits->words.size()));

    const std::uint32_t stub_addr =
        (static_cast<std::uint32_t>(binary_words.size()) * 4 + 15u) & ~15u;
    const auto stub = run_stub(*decompiled, *frontend, stub_addr, wcla_base);
    if (!stub->ok) {
      tag("stub: " + stub->error);
      continue;
    }

    // Success: fill the outcome. Hardware artifacts alias their (shared,
    // immutable) cache entries instead of being copied per system.
    outcome.success = true;
    outcome.placement_hpwl = placed_routed->result.place.hpwl;
    outcome.place_delta_evaluations = placed_routed->result.place.delta_evaluations;
    outcome.route_iterations = placed_routed->result.route.iterations;
    outcome.route_nets_rerouted = placed_routed->result.route.nets_rerouted;
    outcome.kernel =
        std::shared_ptr<const synth::HwKernel>(synthesized, &synthesized->kernel);
    outcome.config = std::shared_ptr<const fabric::FabricConfig>(
        placed_routed, &placed_routed->result.config);
    outcome.stub = stub->stub;
    outcome.stub_addr = stub_addr;
    outcome.header_pc = header;
    outcome.fabric_gates = outcome.kernel->fabric.live_logic_gate_count();
    outcome.luts = outcome.config->netlist.luts.size();
    outcome.lut_depth = outcome.config->netlist.depth();
    outcome.rocm_literals_before = rocm->literals_before;
    outcome.rocm_literals_after = rocm->literals_after;
    outcome.rocm_tautology_calls = rocm->tautology_calls;
    outcome.rocm_memo_hits = rocm->memo_hits;
    outcome.critical_path_ns = outcome.config->critical_path_ns;
    outcome.fabric_clock_mhz = outcome.config->fabric_clock_mhz();
    outcome.bitstream_words = bits->words.size();
    tag("selected");
    break;
  }

  if (scored.empty()) outcome.detail = "no profiled loop candidates";
  } catch (const InjectedStageFault& e) {
    // A stage with no failure representation went down persistently. The
    // transparency contract still holds: report an unsuccessful partition
    // (the caller falls back to pure software execution).
    outcome.success = false;
    outcome.detail = e.what();
    outcome.attempts.push_back(e.what());
  }
  outcome.dpm_cycles = static_cast<std::uint64_t>(cycles_);
  outcome.dpm_seconds = cycles_ / (cost.clock_mhz * 1e6);
  outcome.stage_metrics = std::move(metrics_);
  metrics_.clear();
  outcome.cache_hits = run_hits_;
  outcome.cache_misses = run_misses_;
  return outcome;
}

}  // namespace warp::partition
