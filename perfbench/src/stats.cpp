#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

bool percentile_supported(std::size_t n, double p) {
  return n > 0 && n - nearest_rank(n, p) >= kTailSamples;
}

std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (!percentile_supported(n, p)) ++n;
  return n;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double smoothed_percentile(std::vector<double> values, double p, double half_share) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t rank = nearest_rank(n, p) - 1;  // 0-based
  const auto half = static_cast<std::size_t>(static_cast<double>(n) * half_share);
  const std::size_t lo = rank > half ? rank - half : 0;
  const std::size_t hi = std::min(n - 1, rank + half);
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double median_of_group_medians(const std::vector<double>& values,
                               const std::vector<std::size_t>& groups) {
  std::map<std::size_t, std::vector<double>> by_group;
  for (std::size_t i = 0; i < values.size(); ++i) by_group[groups[i]].push_back(values[i]);
  std::vector<double> medians;
  for (auto& [group, members] : by_group) medians.push_back(median(std::move(members)));
  return median(std::move(medians));
}

}  // namespace perfbench
