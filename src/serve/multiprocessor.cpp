#include "serve/multiprocessor.hpp"

#include <algorithm>
#include <thread>

#include "serve/warpd.hpp"

namespace warp::serve {

std::vector<warpsys::MultiWarpEntry> run_multiprocessor(
    std::vector<std::unique_ptr<warpsys::WarpSystem>>& systems,
    const std::vector<std::string>& names, const MultiWarpOptions& options) {
  const std::size_t n = systems.size();
  std::vector<warpsys::MultiWarpEntry> entries(n);
  std::vector<warpsys::DpmRow> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    entries[i].name = i < names.size() ? names[i] : "cpu" + std::to_string(i);
    rows[i].entry = &entries[i];
  }

  if (options.parallel && n > 0) {
    WarpdOptions engine_options;
    const unsigned threads =
        options.threads ? options.threads : std::thread::hardware_concurrency();
    engine_options.workers = static_cast<unsigned>(std::clamp<std::size_t>(threads, 1, n));
    engine_options.cache = options.cache;
    engine_options.fault = options.fault;
    Warpd engine(engine_options);
    for (std::size_t i = 0; i < n; ++i) {
      // Each callback writes only its own slots; stop() joins the engine
      // threads before anything reads them.
      engine.submit_system(*systems[i], entries[i].name, i,
                           [&entries, &rows, i](const SessionOutcome& out) {
                             entries[i] = out.entry;
                             rows[i].filed = out.dpm_job;
                           });
    }
    engine.stop();
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      warpsys::WarpSystem& system = *systems[i];
      rows[i].filed = warpsys::profile_phase(system, entries[i]);
      if (!rows[i].filed) continue;
      const bool partitioned =
          warpsys::dpm_phase(system, entries[i], options.cache, options.fault);
      warpsys::warped_phase(system, entries[i], partitioned);
    }
  }
  warpsys::assign_dpm_waits(rows);
  return entries;
}

}  // namespace warp::serve
