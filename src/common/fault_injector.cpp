#include "common/fault_injector.hpp"

#include "common/hash.hpp"

namespace warp::common {

double FaultInjector::probability(FaultKind kind) const {
  switch (kind) {
    case FaultKind::kIoError: return config_.io_error_p;
    case FaultKind::kStageFail: return config_.stage_fail_p;
  }
  return 0.0;
}

double FaultInjector::uniform(std::string_view site, std::uint64_t salt) const {
  Hasher h;
  h.u64(config_.seed).str(site).u64(salt);
  return static_cast<double>(h.finish().lo >> 11) * (1.0 / 9007199254740992.0);
}

bool FaultInjector::probe(std::string_view site, FaultKind kind) {
  const double p = probability(kind);
  std::lock_guard<std::mutex> lock(mutex_);
  ++probes_;
  // The map transparently finds string_view keys; insertion needs a string.
  auto it = sites_.find(site);
  if (it == sites_.end()) it = sites_.emplace(std::string(site), SiteState{}).first;
  SiteState& state = it->second;
  const std::uint64_t occurrence = state.occurrences++;
  if (p <= 0.0) {
    state.consecutive = 0;
    return false;
  }
  bool fire = uniform(site, occurrence * 8 + static_cast<std::uint64_t>(kind)) < p;
  if (fire && config_.max_consecutive != 0 && state.consecutive >= config_.max_consecutive) {
    fire = false;  // transient-then-success: the site has faulted enough in a row
  }
  if (fire) {
    ++state.consecutive;
    ++state.injected;
    ++injected_;
  } else {
    state.consecutive = 0;
  }
  return fire;
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FaultStats stats;
  stats.probes = probes_;
  stats.injected = injected_;
  for (const auto& [site, state] : sites_) {
    if (state.injected > 0) stats.injected_by_site[site] = state.injected;
  }
  return stats;
}

}  // namespace warp::common
