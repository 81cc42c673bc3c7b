// Host speed probe.
//
// The benchmark shares its host, whose speed drifts by tens of percent
// over minutes as other tenants come and go (measured: sw_profile at 216
// and at 127 sessions/s on identical code within one hour). A fixed amount
// of work is timed between sessions, and host-time metrics are reported
// scaled to a host on which the probe takes kProbeReferenceMs. The probe
// is the benchmark's own code: no change to the simulator can move it.
//
// The work is a toy register machine running a seeded program through a
// switch over its opcodes, with data-dependent branches, loads and stores:
// the shape of the instruction-set simulator and of the netlist executor.
// A memory probe (a dependent pointer chase through 4 MiB and a fresh
// zeroed 1 MiB buffer) tracked the host's slowdowns worse: scaled by it,
// over five or six seeds each on a busy host, paper_cold's median round
// time spread 11% (3% with this probe), sw_profile's 24% (7%) and
// warpd_warm's setup time 16% (7%).
#pragma once

#include <vector>

namespace perfbench {

/// A round figure near the probe's time on the 4-core x86-64 container
/// the bounds were set on (0.9-1.4 ms there).
inline constexpr double kProbeReferenceMs = 1.0;

/// Run the probe once; its host time in ms.
double probe_ms();

/// Host slowness: the median probe time over kProbeReferenceMs. Host-time
/// metrics divide by it.
double slowness(std::vector<double> probe_times_ms);

}  // namespace perfbench
