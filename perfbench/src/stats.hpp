// Order statistics for the benchmark's latency and timing metrics.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile (p in (0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Smallest sample count at which `p` has kTailSamples samples beyond its
/// nearest rank: 200 for p95, 1000 for p99.
std::size_t min_samples_for(double p);

/// Whether a sample of `n` values supports reporting percentile `p`.
bool percentile_supported(std::size_t n, double p);

double median(std::vector<double> values);

/// Half-width of smoothed_percentile's window around p95, as a share of
/// the sample: at n = 200 the window (ranks 185..195) still ends below the
/// ten samples beyond p95.
inline constexpr double kTailWindow = 0.025;

/// The mean of the order statistics within ±floor(n * half_share) ranks
/// of percentile p's nearest rank.
double smoothed_percentile(std::vector<double> values, double p, double half_share);

/// The median over groups of each group's median (groups[i] is the group
/// of values[i]). Session latencies are a mixture of per-kernel modes, and
/// a mix of equally weighted kernels puts the pooled sample median exactly
/// at a gap between two modes, where it reads the queueing tails of the
/// faster kernels; each kernel's own median is steady.
double median_of_group_medians(const std::vector<double>& values,
                               const std::vector<std::size_t>& groups);

}  // namespace perfbench
