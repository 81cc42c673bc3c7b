#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>

#include <unistd.h>

#include "common/rng.hpp"
#include "daemon.hpp"
#include "isa/assembler.hpp"
#include "partition/cache.hpp"
#include "probe.hpp"
#include "reference.hpp"
#include "serve/warpd.hpp"
#include "sessions.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace warp;

namespace {

// Setup repeats per untraced run; setup_s is their median.
constexpr int kSetupReps = 5;
// A closed loop's row count follows the host's speed, so the stream-order
// digest hashes only its first rows (a whole number of rounds of either).
constexpr std::size_t kStreamDigestRows = 48;
// warpd_warm's offered rate (sessions/s), about a quarter of the capacity
// measured on a 4-core x86-64 container: there session p50 was 5 ms at
// 14/s, 11 ms at 28/s and 83 ms at 56/s, where the queue starts to build.
// (Coalescing of identical in-flight requests lets an overloaded daemon
// complete more than that.) At half capacity, waits behind concurrent idct
// sessions amplified host noise into a 16-48% spread of p50 over seeds.
constexpr double kWarpdRate = 14.0;
// The request override of the warpd repeat mix's second variant.
constexpr unsigned kVariantMaxCandidates = 4;
// A closed-loop phase runs on past --seconds until p95 is reportable, but
// never past this.
constexpr double kMaxPhaseSeconds = 120.0;

const double kP95Samples = static_cast<double>(min_samples_for(95.0));

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return since(t0) * 1e3; }

// Rounds of 0..distinct-1, each round in a seeded order, `count` long.
std::vector<std::size_t> seeded_rounds(common::Rng& rng, std::size_t distinct,
                                       std::size_t count) {
  std::vector<std::size_t> out;
  while (out.size() < count) {
    std::vector<std::size_t> round(distinct);
    for (std::size_t i = 0; i < distinct; ++i) round[i] = i;
    for (std::size_t i = distinct; i > 1; --i) std::swap(round[i - 1], round[rng.below(i)]);
    for (std::size_t i = 0; i < distinct && out.size() < count; ++i) out.push_back(round[i]);
  }
  return out;
}

// Compares reference rows with the digests pinned at the commit that added
// the benchmark.
class Pins {
 public:
  Pins(const std::string& path, std::string workload)
      : pinned_(load_pinned(path)), workload_(std::move(workload)) {}

  bool check(const std::string& key, const common::Digest& digest) {
    const auto it = pinned_.find(workload_ + " " + key);
    if (it != pinned_.end() && it->second == digest.to_string()) return true;
    std::printf("reference row %s/%s differs from the pinned digest (%s, pinned %s)\n",
                workload_.c_str(), key.c_str(), digest.to_string().c_str(),
                it == pinned_.end() ? "none" : it->second.c_str());
    return false;
  }

 private:
  PinnedDigests pinned_;
  std::string workload_;
};

// A session's row and whether it compares equal to the reference.
struct Row {
  std::size_t key = 0;  // index of the distinct session it repeats
  common::Digest digest;
  bool ok = false;
};

std::uint64_t count_failed(const std::vector<Row>& rows,
                           const std::vector<common::Digest>& reference,
                           const std::vector<bool>& pinned_ok) {
  std::uint64_t failed = 0;
  for (const Row& row : rows) {
    if (!row.ok || !(row.digest == reference[row.key]) || !pinned_ok[row.key]) ++failed;
  }
  return failed;
}

void print_digest(const char* what, const std::vector<common::Digest>& digests) {
  common::Hasher h;
  for (const auto& d : digests) h.digest(d);
  std::printf("%s digest: %s\n", what, h.finish().to_string().c_str());
}

// The run's own rows in stream order. Unlike the simulated table, which
// holds one row per distinct session, it follows the seed.
void print_stream_digest(const std::vector<Row>& rows, std::size_t limit) {
  common::Hasher h;
  const std::size_t count = std::min(limit, rows.size());
  for (std::size_t i = 0; i < count; ++i) {
    h.u64(rows[i].key).digest(rows[i].digest).boolean(rows[i].ok);
  }
  std::printf("session rows digest (first %zu of %zu, stream order): %s\n", count, rows.size(),
              h.finish().to_string().c_str());
}

// Setup repeats, each timed as measured and scaled by a probe taken just
// before it, as a closed loop's rounds are.
struct SetupTimes {
  std::vector<double> raw_s, scaled_s;
  void add(double s, double slow) {
    raw_s.push_back(s);
    scaled_s.push_back(s / slow);
  }
};

double probe_slowness() { return probe_ms() / kProbeReferenceMs; }

// What a timed phase measured: per-session latencies and the rates.
struct Figures {
  std::vector<double> latencies_ms;
  double sessions_per_s = 0.0;
  double instructions_per_s = 0.0;
};

// A closed loop runs whole rounds of the same sessions and probes the host
// (probe.hpp) before each. It keeps its times as measured and scaled by the
// probe before their round, so that a change of host speed between rounds
// scales out. Its rates come from the median round, which a transient
// stall of the shared host does not move.
class ClosedLoop {
 public:
  explicit ClosedLoop(std::size_t sessions_per_round) : sessions_per_round_(sessions_per_round) {}

  void begin_round() {
    probes_ms.push_back(probe_ms());
    slow_ = probes_ms.back() / kProbeReferenceMs;
    round_start_ = Clock::now();
  }
  void add_session(double ms, std::size_t key, double instructions) {
    raw_.latencies_ms.push_back(ms);
    scaled_.latencies_ms.push_back(ms / slow_);
    keys.push_back(key);
    instructions_ += instructions;
  }
  void end_round() {
    const double s = since(round_start_);
    raw_round_s_.push_back(s);
    scaled_round_s_.push_back(s / slow_);
  }

  std::size_t sessions() const { return keys.size(); }
  const std::vector<double>& latencies_ms() const { return raw_.latencies_ms; }
  Figures raw() const { return with_rates(raw_, raw_round_s_); }
  Figures scaled() const { return with_rates(scaled_, scaled_round_s_); }

  std::vector<double> probes_ms;
  std::vector<std::size_t> keys;

 private:
  Figures with_rates(Figures f, std::vector<double> round_s) const {
    const double rounds = static_cast<double>(round_s.size());
    const double typical_s = median(std::move(round_s));
    f.sessions_per_s = static_cast<double>(sessions_per_round_) / typical_s;
    f.instructions_per_s = instructions_ / rounds / typical_s;
    return f;
  }

  std::size_t sessions_per_round_;
  double slow_ = 1.0;
  Clock::time_point round_start_;
  Figures raw_, scaled_;
  std::vector<double> raw_round_s_, scaled_round_s_;
  double instructions_ = 0.0;
};

// The end-to-end metrics from the setup times and the timed phase's
// figures, scaled to the reference host speed. The unscaled values are
// printed.
void add_end_to_end(RunReport& report, const SetupTimes& setup, const Figures& raw,
                    const Figures& scaled, const std::vector<std::size_t>& keys,
                    double phase_s, const std::vector<double>& probes_ms) {
  const std::size_t n = scaled.latencies_ms.size();
  std::printf("setup: %zu repeats, median %.3f s\n", setup.raw_s.size(), median(setup.raw_s));
  std::printf("timed phase: %zu sessions in %.3f s; p95 over %zu samples%s\n", n, phase_s, n,
              percentile_supported(n, 95.0) ? "" : " (fewer than 200: p95 not reportable)");
  if (!percentile_supported(n, 95.0)) report.correct = false;
  report.metrics = {
      {"setup_s", median(setup.scaled_s), "s"},
      {"sessions_per_s", scaled.sessions_per_s, "1/s"},
      {"session_p95_ms", smoothed_percentile(scaled.latencies_ms, 95.0, kTailWindow), "ms"},
      {"sim_mips", scaled.instructions_per_s / 1e6, "MIPS"},
  };
  std::printf("session_p50_ms (traced runs report it): %.3f ms\n",
              median_of_group_medians(raw.latencies_ms, keys));
  std::printf("host probe: median %.4f ms over %zu probes (reference %.4f ms)\n",
              median(probes_ms), probes_ms.size(), kProbeReferenceMs);
  std::printf("unscaled: setup_s=%.6g sessions_per_s=%.6g session_p95_ms=%.6g sim_mips=%.6g\n",
              median(setup.raw_s), raw.sessions_per_s,
              smoothed_percentile(raw.latencies_ms, 95.0, kTailWindow),
              raw.instructions_per_s / 1e6);
}

void print_failed(const RunReport& report) {
  std::printf("failed_frac: %llu/%llu = %.6f\n",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted),
              report.attempted ? static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted)
                               : 1.0);
}

// --- per-layer metrics from a traced pass ---------------------------------

struct TracedPass {
  Tracer tracer{true};
  std::vector<TracedResult> sessions;
  std::size_t round = 0;           // the first `round` sessions are one of each
  double untraced_mean_ms = 0.0;   // same sessions, untraced
};

// Self-time metric a span's name reports into.
std::string self_metric(const Span& span) {
  if (span.name == "partition.dpm") return "partition.unattributed_ms";
  if (span.name == "sim.warped_run") return "sim.warped_iss_ms";
  if (span.name == "session") return "harness (session self time)";
  return span.name + "_ms";
}

std::map<std::string, double> layer_metrics(const TracedPass& pass, const std::string& label,
                                            const std::string& trace_path) {
  std::map<std::string, double> m;
  const auto& spans = pass.tracer.spans();
  const auto self = pass.tracer.self_times_ns();
  const double sessions = static_cast<double>(pass.sessions.size());
  std::map<std::string, double> self_ms;  // summed over the pass
  double session_ms = 0.0, dpm_ms = 0.0, sw_run_s = 0.0, exec_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = static_cast<double>(self[i]) / 1e6;
    const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    self_ms[self_metric(s)] += ms;
    if (s.name == "hwsim.exec") self_ms["hwsim.exec_ms." + s.tag] += ms;
    if (s.name == "session") session_ms += dur_ms;
    if (s.name == "partition.dpm") dpm_ms += dur_ms;
    if (s.name == "sim.sw_run") sw_run_s += dur_ms / 1e3;
    if (s.name == "hwsim.exec") exec_s += dur_ms / 1e3;
  }
  for (const auto& [name, total] : self_ms) m[name] = total / sessions;
  m["partition.dpm_ms"] = dpm_ms / sessions;
  m["trace.session_ms"] = session_ms / sessions;
  m["trace.sessions"] = sessions;
  m["trace.overhead_pct"] =
      pass.untraced_mean_ms > 0 ? (m["trace.session_ms"] / pass.untraced_mean_ms - 1) * 100 : 0;

  double sw_instr = 0, iterations = 0, hits = 0, lookups = 0;
  for (const TracedResult& t : pass.sessions) {
    sw_instr += static_cast<double>(t.result.mb_stats.instructions);
    iterations += static_cast<double>(t.hwsim.iterations);
    hits += static_cast<double>(t.result.outcome.cache_hits);
    lookups += static_cast<double>(t.result.outcome.cache_hits + t.result.outcome.cache_misses);
  }
  m["sim.sw_mips"] = sw_run_s > 0 ? sw_instr / sw_run_s / 1e6 : 0;
  m["hwsim.iters_per_s"] = exec_s > 0 ? iterations / exec_s : 0;
  m["partition.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  std::printf("partition.cache_hit_ratio = %.0f hits / %.0f lookups over %zu sessions\n", hits,
              lookups, pass.sessions.size());

  // Exact work counts over one round (each distinct session once).
  std::map<std::string, bool> packed;
  common::Hasher exact;
  for (std::size_t i = 0; i < pass.round; ++i) {
    const TracedResult& t = pass.sessions[i];
    const warpsys::PartitionOutcome& o = t.result.outcome;
    m["sim.instructions"] += static_cast<double>(t.result.mb_stats.instructions +
                                                 t.result.warp_run.core.instructions);
    m["partition.cache_lookups"] += static_cast<double>(o.cache_hits + o.cache_misses);
    m["partition.dpm_cycles"] += static_cast<double>(o.dpm_cycles);
    m["techmap.luts"] += static_cast<double>(o.luts);
    m["logicopt.rocm_tautology_calls"] += static_cast<double>(o.rocm_tautology_calls);
    m["pnr.place_delta_evals"] += static_cast<double>(o.place_delta_evaluations);
    m["pnr.route_iterations"] += static_cast<double>(o.route_iterations);
    m["pnr.route_nets_rerouted"] += static_cast<double>(o.route_nets_rerouted);
    m["hwsim.invocations"] += static_cast<double>(t.hwsim.invocations);
    m["hwsim.iterations"] += static_cast<double>(t.hwsim.iterations);
    packed[t.result.name] = packed[t.result.name] || t.packed_supported;
  }
  for (const auto& [name, supported] : packed) m["hwsim.packed_kernels"] += supported ? 1 : 0;
  for (const char* key : {"sim.instructions", "partition.cache_lookups", "partition.dpm_cycles",
                          "techmap.luts", "logicopt.rocm_tautology_calls",
                          "pnr.place_delta_evals", "pnr.route_iterations",
                          "pnr.route_nets_rerouted", "hwsim.invocations", "hwsim.iterations",
                          "hwsim.packed_kernels"}) {
    exact.str(key).f64(m[key]);
  }
  std::printf("exact counts over one round of %zu sessions, digest %s\n", pass.round,
              exact.finish().to_string().c_str());

  // The layer-share table: self time per layer over the traced session wall.
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, total] : self_ms) {
    if (name.rfind("hwsim.exec_ms.", 0) != 0) rows.emplace_back(total, name);
  }
  std::sort(rows.rbegin(), rows.rend());
  std::printf("layer shares on %s (base: %.0f traced sessions, %.1f ms session wall):\n",
              label.c_str(), sessions, session_ms);
  for (const auto& [total, name] : rows) {
    std::printf("  %-34s %10.3f ms/session %6.1f%%\n", name.c_str(), total / sessions,
                session_ms > 0 ? 100.0 * total / session_ms : 0.0);
  }
  for (const auto& [name, total] : self_ms) {
    if (name.rfind("hwsim.exec_ms.", 0) == 0) {
      std::printf("    %-32s %10.3f ms/session %6.1f%%\n", name.c_str(), total / sessions,
                  session_ms > 0 ? 100.0 * total / session_ms : 0.0);
    }
  }
  std::printf("trace overhead: traced %.3f ms vs untraced %.3f ms per session (%+.1f%%)\n",
              m["trace.session_ms"], pass.untraced_mean_ms, m["trace.overhead_pct"]);
  if (!pass.tracer.write_chrome_json(trace_path)) {
    std::printf("could not write %s\n", trace_path.c_str());
  } else {
    std::printf("spans written to %s\n", trace_path.c_str());
  }
  return m;
}

// Two whole-run figures are reported here, not end to end, because their
// spread over runs is too wide for a regression bound on warpd_warm: peak
// RSS follows the open loop's arrival bursts (~20%), and the median session
// latency there is a few ms of thread handoffs in the daemon that move with
// the host's scheduling load (~45%).
void add_layer_metrics(RunReport& report, std::map<std::string, double> values,
                       double peak_rss_mb, double session_p50_ms) {
  values["peak_rss_mb"] = peak_rss_mb;
  values["session_p50_ms"] = session_p50_ms;
  report.metrics.clear();
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    report.metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
}

std::string trace_file(const RunOptions& o) {
  return o.work_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
}

// --- paper_cold -------------------------------------------------------------

std::vector<experiments::BenchmarkResult> paper_reference() {
  std::vector<experiments::BenchmarkResult> out;
  for (const auto& w : workloads::extended_workloads()) {
    out.push_back(experiments::run_benchmark(w, experiments::default_options()));
  }
  return out;
}

void print_paper_comparison(const std::vector<experiments::BenchmarkResult>& reference) {
  double speedup = 0, energy = 0;
  unsigned n = 0;
  for (const auto& paper : workloads::all_workloads()) {
    for (const auto& r : reference) {
      if (r.name != paper.name) continue;
      speedup += r.warp_speedup;
      energy += r.warp_energy_norm;
      ++n;
    }
  }
  speedup /= n;
  energy /= n;
  std::printf("simulated average over the %u paper kernels: warp speedup %.2fx (paper 5.8x, "
              "error %+.1f%%), normalized energy %.3f = %.0f%% reduction (paper 0.43 = 57%%, "
              "error %+.1f points)\n",
              n, speedup, (speedup / 5.8 - 1) * 100, energy, (1 - energy) * 100,
              (1 - energy) * 100 - 57);
  std::printf("no other reference validates the model: these two published averages are the "
              "only comparison with measured results\n");
}

RunReport run_paper_cold(const RunOptions& opt) {
  RunReport report;
  const auto& kernels = workloads::extended_workloads();
  const experiments::HarnessOptions base = experiments::default_options();

  SetupTimes setup;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    const double slow = probe_slowness();
    const auto t0 = Clock::now();
    for (const auto& w : kernels) {
      if (!isa::assemble(w.source, base.cpu)) report.correct = false;
    }
    partition::ArtifactCache cache;
    experiments::HarnessOptions options = base;
    options.cache = &cache;
    for (const auto& w : kernels) experiments::run_benchmark(w, options);
    setup.add(since(t0), slow);
  }

  common::Rng rng(opt.seed);
  std::vector<Row> rows;
  ClosedLoop loop(kernels.size());
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto t0 = Clock::now();
  while (since(t0) < untraced_s ||
         (!opt.trace && loop.sessions() < kP95Samples && since(t0) < kMaxPhaseSeconds)) {
    loop.begin_round();
    partition::ArtifactCache cache;  // fresh per round: every stage misses
    experiments::HarnessOptions options = base;
    options.cache = &cache;
    for (const std::size_t k : seeded_rounds(rng, kernels.size(), kernels.size())) {
      const auto s0 = Clock::now();
      const auto r = experiments::run_benchmark(kernels[k], options);
      loop.add_session(ms_since(s0), k,
                       static_cast<double>(r.mb_stats.instructions + r.warp_run.core.instructions));
      rows.push_back({k, row_digest(r), r.ok});
    }
    loop.end_round();
  }
  const double phase_s = since(t0);
  const double rss_mb = peak_rss_mb(::getpid());

  TracedPass pass;
  if (opt.trace) {
    pass.round = kernels.size();
    pass.untraced_mean_ms = phase_s * 1e3 / static_cast<double>(loop.sessions());
    const auto t1 = Clock::now();
    while (since(t1) < opt.seconds / 2 || pass.sessions.empty()) {
      partition::ArtifactCache cache;
      experiments::HarnessOptions options = base;
      options.cache = &cache;
      for (const std::size_t k : seeded_rounds(rng, kernels.size(), kernels.size())) {
        pass.tracer.begin_session(pass.sessions.size());
        pass.sessions.push_back(traced_session(kernels[k], options, Flow::kPaper, pass.tracer));
        const auto& r = pass.sessions.back().result;
        rows.push_back({k, row_digest(r), r.ok});
      }
    }
  }

  const auto reference = paper_reference();
  Pins pins(opt.pinned_path, "paper_cold");
  std::vector<common::Digest> ref_digest;
  std::vector<bool> pinned_ok;
  for (const auto& r : reference) {
    ref_digest.push_back(row_digest(r));
    pinned_ok.push_back(pins.check(r.name, ref_digest.back()));
  }
  print_digest("simulated table", ref_digest);
  print_stream_digest(rows, kStreamDigestRows);
  print_paper_comparison(reference);
  report.attempted = rows.size();
  report.failed = count_failed(rows, ref_digest, pinned_ok);
  print_failed(report);

  if (opt.trace) {
    add_layer_metrics(report, layer_metrics(pass, "paper_cold", trace_file(opt)), rss_mb,
                      median_of_group_medians(loop.latencies_ms(), loop.keys));
  } else {
    add_end_to_end(report, setup, loop.raw(), loop.scaled(), loop.keys, phase_s,
                   loop.probes_ms);
  }
  return report;
}

// --- sw_profile -------------------------------------------------------------

struct CpuVariant {
  const char* name;
  isa::CpuConfig cpu;
};

// The Section-2 configurations (bench/sec2_config_ablation.cpp).
const std::vector<CpuVariant>& cpu_variants() {
  static const std::vector<CpuVariant> variants{
      {"full", isa::CpuConfig{true, true, false, 85.0}},
      {"no_mul", isa::CpuConfig{true, false, false, 85.0}},
      {"minimal", isa::CpuConfig{false, false, false, 85.0}},
  };
  return variants;
}

std::vector<common::Result<warpsys::RunStats>> sw_reference() {
  std::vector<common::Result<warpsys::RunStats>> out;
  for (const auto& w : workloads::extended_workloads()) {
    for (const auto& v : cpu_variants()) out.push_back(software_session(w, v.cpu));
  }
  return out;
}

RunReport run_sw_profile(const RunOptions& opt) {
  RunReport report;
  const auto& kernels = workloads::extended_workloads();
  const auto& variants = cpu_variants();
  const std::size_t distinct = kernels.size() * variants.size();
  auto kernel_of = [&](std::size_t key) -> const workloads::Workload& {
    return kernels[key / variants.size()];
  };
  auto cpu_of = [&](std::size_t key) { return variants[key % variants.size()].cpu; };

  SetupTimes setup;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    const double slow = probe_slowness();
    const auto t0 = Clock::now();
    std::vector<std::unique_ptr<warpsys::WarpSystem>> systems;
    for (std::size_t key = 0; key < distinct; ++key) {
      auto program = isa::assemble(kernel_of(key).source, cpu_of(key));
      if (!program) {
        report.correct = false;
        continue;
      }
      warpsys::WarpSystemConfig config = experiments::default_options().system;
      config.cpu = cpu_of(key);
      systems.push_back(std::make_unique<warpsys::WarpSystem>(std::move(program).value(),
                                                              kernel_of(key).init, config));
      if (!systems.back()->run_software() || !kernel_of(key).check(systems.back()->data_mem())) {
        report.correct = false;
      }
    }
    setup.add(since(t0), slow);
  }

  common::Rng rng(opt.seed);
  std::vector<Row> rows;
  ClosedLoop loop(distinct);
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto t0 = Clock::now();
  while (since(t0) < untraced_s ||
         (!opt.trace && loop.sessions() < kP95Samples && since(t0) < kMaxPhaseSeconds)) {
    loop.begin_round();
    for (const std::size_t key : seeded_rounds(rng, distinct, distinct)) {
      const auto s0 = Clock::now();
      const auto run = software_session(kernel_of(key), cpu_of(key));
      loop.add_session(ms_since(s0), key,
                       run ? static_cast<double>(run.value().core.instructions) : 0.0);
      rows.push_back(run ? Row{key, row_digest(run.value()), true} : Row{key, {}, false});
    }
    loop.end_round();
  }
  const double phase_s = since(t0);
  const double rss_mb = peak_rss_mb(::getpid());

  TracedPass pass;
  if (opt.trace) {
    pass.round = distinct;
    pass.untraced_mean_ms = phase_s * 1e3 / static_cast<double>(loop.sessions());
    const auto t1 = Clock::now();
    while (since(t1) < opt.seconds / 2 || pass.sessions.empty()) {
      for (const std::size_t key : seeded_rounds(rng, distinct, distinct)) {
        experiments::HarnessOptions options = experiments::default_options();
        options.cpu = cpu_of(key);
        pass.tracer.begin_session(pass.sessions.size());
        pass.sessions.push_back(
            traced_session(kernel_of(key), options, Flow::kSoftware, pass.tracer));
        const auto& r = pass.sessions.back().result;
        rows.push_back({key, row_digest(r.warp_run), r.ok});
      }
    }
  }

  const auto reference = sw_reference();
  Pins pins(opt.pinned_path, "sw_profile");
  std::vector<common::Digest> ref_digest;
  std::vector<bool> pinned_ok;
  for (std::size_t key = 0; key < distinct; ++key) {
    const std::string name =
        kernel_of(key).name + "/" + variants[key % variants.size()].name;
    ref_digest.push_back(reference[key] ? row_digest(reference[key].value()) : common::Digest{});
    pinned_ok.push_back(reference[key] && pins.check(name, ref_digest.back()));
  }
  print_digest("simulated table", ref_digest);
  print_stream_digest(rows, kStreamDigestRows);
  report.attempted = rows.size();
  report.failed = count_failed(rows, ref_digest, pinned_ok);
  print_failed(report);

  if (opt.trace) {
    add_layer_metrics(report, layer_metrics(pass, "sw_profile", trace_file(opt)), rss_mb,
                      median_of_group_medians(loop.latencies_ms(), loop.keys));
  } else {
    add_end_to_end(report, setup, loop.raw(), loop.scaled(), loop.keys, phase_s,
                   loop.probes_ms);
  }
  return report;
}

// --- warpd_warm -------------------------------------------------------------

// The repeat mix: every kernel with default options and with
// max_candidates=4, 16 distinct kernel content hashes.
constexpr std::size_t kVariants = 16;

serve::protocol::Request variant_request(std::size_t variant, std::uint64_t id,
                                         std::uint64_t seq) {
  serve::protocol::Request request;
  request.id = id;
  request.seq = seq;
  request.workload = workloads::extended_workloads()[variant / 2].name;
  if (variant % 2 == 1) request.overrides.max_candidates = kVariantMaxCandidates;
  return request;
}

std::string variant_key(std::size_t variant) {
  return workloads::extended_workloads()[variant / 2].name + (variant % 2 ? "/mc4" : "/default");
}

std::vector<serve::protocol::Request> canonical_requests() {
  std::vector<serve::protocol::Request> requests;
  for (std::size_t v = 0; v < kVariants; ++v) requests.push_back(variant_request(v, v, v));
  return requests;
}

std::vector<serve::SessionOutcome> warpd_reference() {
  serve::WarpdOptions options;
  options.base = experiments::default_options();
  return serve::run_serial(canonical_requests(), options);
}

// Expected rows of a stream that follows the canonical warm-up on one
// engine: each variant's reference entry, with the wait the engine's
// round-robin DPM clock assigns in seq order.
std::vector<warpsys::MultiWarpEntry> expected_rows(
    const std::vector<serve::SessionOutcome>& reference, const std::vector<std::size_t>& mix) {
  warpsys::DpmVirtualClock clock;
  for (const auto& out : reference) {
    clock.start(out.entry.sw_seconds);
    clock.finish(out.entry.dpm_seconds);
  }
  std::vector<warpsys::MultiWarpEntry> rows;
  for (const std::size_t v : mix) {
    warpsys::MultiWarpEntry entry = reference[v].entry;
    entry.dpm_wait_seconds = clock.start(entry.sw_seconds);
    clock.finish(entry.dpm_seconds);
    rows.push_back(entry);
  }
  return rows;
}

// A variant's per-session options, as warpd builds them, on `cache`.
experiments::HarnessOptions variant_options(std::size_t variant,
                                            partition::ArtifactCache& cache) {
  auto options = with_overrides(experiments::default_options(),
                                variant % 2 ? kVariantMaxCandidates : 0);
  options.cache = &cache;
  return options;
}

// Simulated instructions (software + warped run) per variant; leaves
// `cache` warm with the repeat mix.
std::vector<double> variant_instructions(partition::ArtifactCache& cache) {
  Tracer off;
  std::vector<double> out;
  for (std::size_t v = 0; v < kVariants; ++v) {
    const auto t = traced_session(workloads::extended_workloads()[v / 2],
                                  variant_options(v, cache), Flow::kServe, off);
    out.push_back(static_cast<double>(t.result.mb_stats.instructions +
                                      t.result.warp_run.core.instructions));
  }
  return out;
}

// Latencies of an in-process serve::Warpd fed the same open-loop stream.
std::vector<double> inproc_latencies(const std::vector<serve::protocol::Request>& stream,
                                     const std::vector<double>& due_s,
                                     const std::vector<warpsys::MultiWarpEntry>& expected,
                                     std::uint64_t& mismatches) {
  partition::ArtifactCache cache;
  serve::WarpdOptions options;
  options.base = experiments::default_options();
  options.cache = &cache;
  serve::Warpd engine(options);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;
  std::vector<Clock::time_point> done_at(stream.size());
  std::vector<warpsys::MultiWarpEntry> entries(stream.size());
  std::vector<bool> ok(stream.size(), false);
  auto wait_for = [&](std::size_t n) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return done >= n; });
  };
  for (const auto& request : canonical_requests()) {
    engine.submit(request, [&](const serve::SessionOutcome&) {
      std::lock_guard lock(mutex);
      ++done;
      cv.notify_all();
    });
  }
  wait_for(kVariants);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    engine.submit(stream[i], [&, i](const serve::SessionOutcome& out) {
      std::lock_guard lock(mutex);
      done_at[i] = Clock::now();
      entries[i] = out.entry;
      ok[i] = out.status == serve::protocol::ReplyStatus::kOk;
      ++done;
      cv.notify_all();
    });
  }
  wait_for(kVariants + stream.size());
  engine.stop();
  std::vector<double> latencies;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s[i]));
    latencies.push_back(std::chrono::duration<double, std::milli>(done_at[i] - due).count());
    if (!ok[i] || !(entries[i] == expected[i])) ++mismatches;
  }
  return latencies;
}

RunReport run_warpd_warm(const RunOptions& opt) {
  RunReport report;
  const unsigned connections =
      std::max(1u, std::min(4u, static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN))));
  const std::string socket = opt.work_dir + "/warpd-" + std::to_string(::getpid()) + ".sock";
  const auto canonical = canonical_requests();

  // Setup: spawn the daemon, wait until it listens, warm its cache with the
  // 16 distinct sessions (seq 0..15). They go one at a time, so that setup
  // time does not follow how many of the host's cores are free. The last
  // repeat's daemon serves.
  SetupTimes setup;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::optional<serve::protocol::Reply>> warm;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    if (daemon) daemon->stop();
    const double slow = probe_slowness();
    const auto t0 = Clock::now();
    auto spawned = Daemon::spawn(opt.exe, socket);
    if (!spawned) {
      std::printf("daemon: %s\n", spawned.message().c_str());
      report.correct = false;
      return report;
    }
    daemon = std::move(spawned).value();
    if (auto status = wait_listening(socket, 10'000); !status) {
      std::printf("daemon: %s\n", status.message().c_str());
      report.correct = false;
      return report;
    }
    warm = run_in_turn(socket, canonical);
    setup.add(since(t0), slow);
  }

  // The timed stream: seeded uniform order statistics on [0, T) -- a
  // Poisson process conditioned on its count -- carrying seeded rounds of
  // the 16 variants. Seqs continue after the warm-up's.
  common::Rng rng(opt.seed);
  const double stream_s = opt.trace ? opt.seconds / 3 : opt.seconds;
  const std::size_t n = std::max<std::size_t>(
      kP95Samples, static_cast<std::size_t>(std::llround(kWarpdRate * stream_s)));
  const double span_s = static_cast<double>(n) / kWarpdRate;
  std::vector<double> due_s(n);
  for (double& t : due_s) t = rng.next_double() * span_s;
  std::sort(due_s.begin(), due_s.end());
  const std::vector<std::size_t> mix = seeded_rounds(rng, kVariants, n);
  std::vector<serve::protocol::Request> stream;
  for (std::size_t i = 0; i < n; ++i) stream.push_back(variant_request(mix[i], i, kVariants + i));

  std::printf("warpd_warm: %zu sessions at %.1f/s offered over %u connections\n", n, kWarpdRate,
              connections);
  const OpenLoopResult result = run_open_loop(socket, connections, stream, due_s);
  std::map<std::string, std::uint64_t> stats;
  if (opt.trace) {
    auto queried = query_stats(socket);
    if (queried) stats = queried.value();
  }
  const double rss_mb = peak_rss_mb(daemon->pid());
  daemon->stop();

  // Reference rows: serve::run_serial over the canonical stream, each
  // pinned; the timed stream's rows follow by the DPM clock's arithmetic.
  const auto reference = warpd_reference();
  Pins pins(opt.pinned_path, "warpd_warm");
  std::vector<common::Digest> ref_digest;
  bool pinned = true;
  for (std::size_t v = 0; v < kVariants; ++v) {
    ref_digest.push_back(row_digest(reference[v].entry));
    pinned = pins.check(variant_key(v), ref_digest.back()) && pinned;
  }
  print_digest("simulated table", ref_digest);
  const auto expected = expected_rows(reference, mix);
  report.attempted = n + kVariants;
  for (std::size_t v = 0; v < kVariants; ++v) {
    const auto& reply = warm[v];
    if (!pinned || !reply || !reply->ok ||
        !(serve::protocol::entry_of(*reply) == reference[v].entry)) {
      ++report.failed;
    }
  }
  std::vector<double> latencies, lag;
  std::vector<std::size_t> keys;
  std::vector<Row> rows;
  double instructions = 0;
  partition::ArtifactCache cache;
  const auto per_variant = variant_instructions(cache);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& reply = result.replies[i];
    lag.push_back(result.lag_ms[i]);
    rows.push_back({mix[i],
                    reply ? row_digest(serve::protocol::entry_of(*reply)) : common::Digest{},
                    reply && reply->ok});
    if (!pinned || !reply || !reply->ok ||
        !(serve::protocol::entry_of(*reply) == expected[i])) {
      ++report.failed;
      continue;
    }
    latencies.push_back(result.latency_ms[i]);
    keys.push_back(mix[i]);
    instructions += per_variant[mix[i]];
  }
  print_stream_digest(rows, rows.size());
  print_failed(report);
  std::printf("loadgen: send lag p50 %.3f ms, p95 %.3f ms\n", percentile(lag, 50),
              percentile(lag, 95));
  std::map<std::string, std::vector<double>> by_kernel;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.replies[i]) by_kernel[stream[i].workload].push_back(result.latency_ms[i]);
  }
  std::printf("session p50 by kernel (ms):");
  for (const auto& [name, values] : by_kernel) std::printf(" %s=%.2f", name.c_str(), median(values));
  std::printf("\n");

  if (!opt.trace) {
    // An open loop's rates are the offered ones, whatever the host's speed:
    // only its latencies scale.
    const double served = static_cast<double>(latencies.size());
    const Figures raw{latencies, served / result.wall_s, instructions / result.wall_s};
    Figures scaled = raw;
    for (double& ms : scaled.latencies_ms) ms /= slowness(result.probes_ms);
    add_end_to_end(report, setup, raw, scaled, keys, result.wall_s, result.probes_ms);
    return report;
  }

  std::uint64_t inproc_mismatches = 0;
  const auto inproc = inproc_latencies(stream, due_s, expected, inproc_mismatches);
  report.failed += inproc_mismatches;
  report.attempted += n;

  // Closed-loop replay of the stream's sessions on the warm cache: untraced
  // through WarpSystem (the engine's own phases), then traced. The stream
  // starts with one round of the 16 variants: the exact-count round.
  TracedPass pass;
  pass.round = kVariants;
  std::size_t untraced = 0;
  const auto t0 = Clock::now();
  for (; since(t0) < opt.seconds / 6 || untraced < kVariants; ++untraced) {
    const auto options = variant_options(mix[untraced % n], cache);
    auto systems = experiments::build_warp_systems({stream[untraced % n].workload}, options);
    if (!systems) continue;
    warpsys::WarpSystem& system = *systems.value()[0];
    warpsys::MultiWarpEntry entry;
    if (warpsys::profile_phase(system, entry)) {
      warpsys::warped_phase(system, entry, warpsys::dpm_phase(system, entry, &cache, nullptr));
    }
  }
  pass.untraced_mean_ms = ms_since(t0) / static_cast<double>(untraced);
  const auto t1 = Clock::now();
  for (std::size_t i = 0; since(t1) < opt.seconds / 6 || i < kVariants; ++i) {
    const std::size_t v = mix[i % n];
    pass.tracer.begin_session(i);
    pass.sessions.push_back(traced_session(workloads::extended_workloads()[v / 2],
                                           variant_options(v, cache), Flow::kServe,
                                           pass.tracer));
  }
  auto m = layer_metrics(pass, "warpd_warm", trace_file(opt));

  // Computed like session_p50_ms, so the gap compares.
  const double socket_p50 = median_of_group_medians(latencies, keys);
  m["serve.inproc_p50_ms"] = median_of_group_medians(inproc, mix);
  m["serve.inproc_p95_ms"] = smoothed_percentile(inproc, 95, kTailWindow);
  m["serve.socket_gap_ms"] = socket_p50 - m["serve.inproc_p50_ms"];
  m["loadgen.lag_p95_ms"] = percentile(lag, 95);
  for (const char* key : {"max_queue_depth", "coalesced", "pipeline_runs", "busy", "timeouts"}) {
    m[std::string("serve.") + key] = static_cast<double>(stats[key]);
  }
  std::printf("serve: socket session p50 %.3f ms over %zu replies; in-process Warpd::submit "
              "p50 %.3f ms / p95 %.3f ms over %zu; socket/protocol gap at p50 %.3f ms\n",
              socket_p50, latencies.size(), m["serve.inproc_p50_ms"], m["serve.inproc_p95_ms"],
              inproc.size(), m["serve.socket_gap_ms"]);
  add_layer_metrics(report, m, rss_mb, socket_p50);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_cold", "warpd_warm", "sw_profile"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m{
        {"trace.session_ms", "ms"},
        {"trace.sessions", "count"},
        {"trace.overhead_pct", "%"},
        {"peak_rss_mb", "MiB"},
        {"session_p50_ms", "ms"},
        {"isa.assemble_ms", "ms"},
        {"warp.build_ms", "ms"},
        {"warp.check_ms", "ms"},
        {"sim.sw_run_ms", "ms"},
        {"sim.sw_mips", "MIPS"},
        {"sim.warped_iss_ms", "ms"},
        {"sim.instructions", "count"},
        {"partition.dpm_ms", "ms"},
    };
    for (const char* stage : {"frontend", "decompile", "synth", "techmap", "rocm", "pnr",
                              "bitstream", "stub", "unattributed"}) {
      m.emplace_back(std::string("partition.") + stage + "_ms", "ms");
    }
    for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
             {"partition.cache_hit_ratio", "ratio"},
             {"partition.cache_lookups", "count"},
             {"partition.dpm_cycles", "cycles"},
             {"techmap.luts", "count"},
             {"logicopt.rocm_tautology_calls", "count"},
             {"pnr.place_delta_evals", "count"},
             {"pnr.route_iterations", "count"},
             {"pnr.route_nets_rerouted", "count"},
             {"hwsim.exec_ms", "ms"}}) {
      m.emplace_back(name, unit);
    }
    for (const auto& w : workloads::extended_workloads()) {
      m.emplace_back("hwsim.exec_ms." + w.name, "ms");
    }
    for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
             {"hwsim.invocations", "count"},
             {"hwsim.iterations", "count"},
             {"hwsim.iters_per_s", "1/s"},
             {"hwsim.packed_kernels", "count"},
             {"serve.max_queue_depth", "count"},
             {"serve.coalesced", "count"},
             {"serve.pipeline_runs", "count"},
             {"serve.busy", "count"},
             {"serve.timeouts", "count"},
             {"serve.inproc_p50_ms", "ms"},
             {"serve.inproc_p95_ms", "ms"},
             {"serve.socket_gap_ms", "ms"},
             {"loadgen.lag_p95_ms", "ms"}}) {
      m.emplace_back(name, unit);
    }
    return m;
  }();
  return metrics;
}

RunReport run_workload(const RunOptions& options) {
  if (options.workload == "paper_cold") return run_paper_cold(options);
  if (options.workload == "warpd_warm") return run_warpd_warm(options);
  return run_sw_profile(options);
}

void print_reference() {
  std::printf("# Reference row digests, one per distinct session of each workload.\n");
  std::printf("# Regenerate: .bench_build/perfbench/warpbench --print-reference\n");
  for (const auto& r : paper_reference()) {
    std::printf("paper_cold %s %s\n", r.name.c_str(), row_digest(r).to_string().c_str());
  }
  const auto warpd = warpd_reference();
  for (std::size_t v = 0; v < warpd.size(); ++v) {
    std::printf("warpd_warm %s %s\n", variant_key(v).c_str(),
                row_digest(warpd[v].entry).to_string().c_str());
  }
  const auto sw = sw_reference();
  const auto& variants = cpu_variants();
  for (std::size_t key = 0; key < sw.size(); ++key) {
    std::printf("sw_profile %s/%s %s\n",
                workloads::extended_workloads()[key / variants.size()].name.c_str(),
                variants[key % variants.size()].name,
                sw[key] ? row_digest(sw[key].value()).to_string().c_str() : "error");
  }
}

}  // namespace perfbench
