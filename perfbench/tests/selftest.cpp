// Self-tests of the benchmark's own arithmetic and of the composed system
// its traced run depends on.
#include <gtest/gtest.h>

#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "reference.hpp"
#include "sessions.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace warp;

TEST(Percentile, NearestRank) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 50), 3);
  EXPECT_EQ(percentile(v, 100), 5);
  EXPECT_EQ(percentile(v, 1), 1);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({7}), 7);
}

TEST(Percentile, SampleCountRule) {
  EXPECT_EQ(min_samples_for(95), 200u);
  EXPECT_EQ(min_samples_for(99), 1000u);
  EXPECT_EQ(min_samples_for(50), 20u);
  EXPECT_FALSE(percentile_supported(199, 95));
  EXPECT_TRUE(percentile_supported(200, 95));
  EXPECT_FALSE(percentile_supported(0, 50));
  // At n = 200 the p95 sample is the 190th: ten samples lie beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 95), 190);
}

TEST(Percentile, GroupMediansStepOverAModeGap) {
  // Two equal kernels; the faster one has a queueing tail.
  std::vector<double> v;
  std::vector<std::size_t> groups;
  for (int i = 0; i < 50; ++i) {
    v.push_back(i < 45 ? 1.0 : 5.0 + i);
    groups.push_back(0);
    v.push_back(10.0);
    groups.push_back(1);
  }
  EXPECT_EQ(percentile(v, 50), 10.0);  // pooled: at the gap
  EXPECT_EQ(median_of_group_medians(v, groups), 1.0);  // lower middle of {1, 10}
  EXPECT_EQ(median_of_group_medians({}, {}), 0.0);
}

TEST(Percentile, SmoothedTailWindowStaysBelowTheTail) {
  // At n = 200 the p95 window ends at rank 195, below the ten beyond p95.
  std::vector<double> w;
  for (int i = 1; i <= 200; ++i) w.push_back(i);
  EXPECT_DOUBLE_EQ(smoothed_percentile(w, 95, kTailWindow), 190.0);
  EXPECT_EQ(smoothed_percentile({}, 95, kTailWindow), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  EXPECT_EQ(self_time_ns(0, 100, {}), 100);
  EXPECT_EQ(self_time_ns(0, 100, {{10, 20}, {30, 50}}), 70);
  EXPECT_EQ(self_time_ns(0, 100, {{10, 40}, {30, 50}}), 60);  // overlapping children
  EXPECT_EQ(self_time_ns(0, 100, {{30, 50}, {10, 40}}), 60);  // any order
  EXPECT_EQ(self_time_ns(0, 100, {{-10, 20}, {90, 120}}), 70);  // clipped to the parent
  EXPECT_EQ(self_time_ns(0, 100, {{0, 100}, {20, 30}}), 0);
  EXPECT_EQ(self_time_ns(50, 40, {}), 0);
}

TEST(SelfTime, TracerNestsSpans) {
  Tracer tracer(true);
  tracer.begin_session(3);
  {
    ScopedSpan root(tracer, "session");
    { ScopedSpan child(tracer, "a"); }
    tracer.add("b", "", root.index(), 0, 0);
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[0].session, 3u);
  const auto self = tracer.self_times_ns();
  EXPECT_EQ(self[0], (spans[0].end_ns - spans[0].start_ns) - (spans[1].end_ns - spans[1].start_ns));
  Tracer off;
  EXPECT_EQ(off.open("x"), -1);
  EXPECT_TRUE(off.spans().empty());
}

// The composed system of the traced run must simulate exactly what
// WarpSystem simulates, and its stage spans must fit inside warp().
TEST(ComposedSystem, MatchesWarpSystemAndStagesFitTheDpmSpan) {
  const auto options = experiments::default_options();
  for (const auto& w : workloads::extended_workloads()) {
    SCOPED_TRACE(w.name);
    const auto expected = experiments::run_benchmark(w, options);
    Tracer tracer(true);
    const auto traced = traced_session(w, options, Flow::kPaper, tracer);
    ASSERT_TRUE(traced.result.ok) << traced.result.error;
    EXPECT_EQ(row_digest(traced.result), row_digest(expected));
    EXPECT_EQ(traced.hwsim.invocations, expected.warp_run.wcla.invocations);

    std::int64_t dpm_ns = -1, stage_ns = 0;
    std::uint64_t exec_spans = 0;
    for (const Span& s : tracer.spans()) {
      if (s.name == "partition.dpm") dpm_ns = s.end_ns - s.start_ns;
      if (s.name.rfind("partition.", 0) == 0 && s.name != "partition.dpm") {
        stage_ns += s.end_ns - s.start_ns;
      }
      if (s.name == "hwsim.exec") ++exec_spans;
    }
    ASSERT_GE(dpm_ns, 0);
    EXPECT_LE(stage_ns, dpm_ns);
    EXPECT_EQ(exec_spans, traced.hwsim.invocations);
  }
}

TEST(ComposedSystem, SoftwareFlowMatchesSoftwareSession) {
  const auto& w = workloads::workload_by_name("canrdr");
  for (const isa::CpuConfig cpu :
       {isa::CpuConfig{true, true, false, 85.0}, isa::CpuConfig{false, false, false, 85.0}}) {
    auto options = experiments::default_options();
    options.cpu = cpu;
    Tracer tracer;
    const auto traced = traced_session(w, options, Flow::kSoftware, tracer);
    const auto expected = software_session(w, cpu);
    ASSERT_TRUE(expected);
    EXPECT_EQ(row_digest(traced.result.warp_run), row_digest(expected.value()));
  }
}

// warpd_warm's setup warms the cache with the repeat mix; afterwards every
// stage lookup of the mix must hit.
TEST(WarmCache, RepeatMixHitsEveryLookup) {
  partition::ArtifactCache cache;
  Tracer off;
  std::uint64_t hits = 0, lookups = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& w : workloads::extended_workloads()) {
      for (const unsigned max_candidates : {0u, 4u}) {
        auto options = with_overrides(experiments::default_options(), max_candidates);
        options.cache = &cache;
        const auto t = traced_session(w, options, Flow::kServe, off);
        if (pass == 1) {
          hits += t.result.outcome.cache_hits;
          lookups += t.result.outcome.cache_hits + t.result.outcome.cache_misses;
        }
      }
    }
  }
  EXPECT_GT(lookups, 0u);
  EXPECT_EQ(hits, lookups);
}

}  // namespace
}  // namespace perfbench
