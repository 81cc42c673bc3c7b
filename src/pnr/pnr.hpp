// Placement and routing for the WCLA fabric.
//
// These are the lean on-chip algorithms of the warp-processing tool flow:
//   - placement: greedy constructive seed refined by a short simulated-
//     annealing schedule over half-perimeter wirelength (the "lean placement"
//     of Lysecky & Vahid, DATE'04). A move's cost delta rescans the
//     endpoints of each distinct net of the moved and the displaced LUT,
//     before and after the swap;
//   - routing: ROCR-style negotiated congestion (Lysecky, Vahid, Tan,
//     DAC'04 "Dynamic FPGA Routing for Just-in-Time FPGA Compilation"):
//     every net is routed by A* over the routing-resource grid; overused
//     cells get present- and history-cost penalties. Rip-up is selective:
//     routed trees and the history-cost grid persist across iterations, and
//     only sinks whose paths cross an overused cell are ripped up — their
//     re-expansion is seeded from the net's surviving tree. Each search's
//     open list is a tie-aware level queue (level_queue.hpp) that pops in
//     exactly the order of a binary heap, so the metered expansions are
//     fixed by the algorithm, not by the host data structure;
//   - timing: arrival-time propagation over the placed-and-routed netlist
//     giving the fabric critical path (which derates the WCLA clock).
//
// Both algorithms meter their work (moves, wavefront expansions) so the
// warp runtime can charge realistic DPM execution time for them. See
// src/pnr/README.md for the full story.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fabric/wcla.hpp"
#include "techmap/techmap.hpp"

namespace warp::pnr {

struct PlaceOptions {
  std::uint64_t seed = 1;
  unsigned moves_per_lut = 24;     // annealing budget (lean!)
  double initial_temperature = 8.0;
  double cooling = 0.92;
};

struct PlaceResult {
  std::vector<fabric::LutSite> placement;    // per LUT
  std::vector<fabric::LutSite> input_pads;   // per primary input
  std::vector<fabric::LutSite> output_pads;  // per primary output
  double hpwl = 0.0;
  std::uint64_t moves = 0;           // metered work
  std::uint64_t accepted_moves = 0;
  // Distinct nets whose HPWL a move's delta rescanned, summed over all moves.
  std::uint64_t delta_evaluations = 0;
};

struct RouteOptions {
  unsigned max_iterations = 16;
  double present_factor = 0.6;   // growth of present-congestion penalty
  double history_factor = 0.25;  // accumulation of history cost
};

struct RouteResult {
  std::vector<fabric::RoutedNet> routes;
  bool success = false;
  unsigned iterations = 0;
  std::uint64_t expansions = 0;  // metered work
  double critical_path_ns = 0.0;
  unsigned max_hops = 0;
  std::uint64_t nets_rerouted = 0;  // rip-up victims summed over iterations 2+
  std::vector<unsigned> nets_rerouted_per_iter;  // [i] = nets (re)routed in iteration i+1
};

struct PnrOptions {
  PlaceOptions place;
  RouteOptions route;
};

struct PnrResult {
  fabric::FabricConfig config;
  PlaceResult place;
  RouteResult route;
};

common::Result<PlaceResult> place(const techmap::LutNetlist& netlist,
                                  const fabric::FabricGeometry& geometry,
                                  const PlaceOptions& options = {});

common::Result<RouteResult> route(const techmap::LutNetlist& netlist,
                                  const fabric::FabricGeometry& geometry,
                                  const PlaceResult& placement,
                                  const RouteOptions& options = {});

/// Full flow: place, route, timing; returns a complete FabricConfig.
common::Result<PnrResult> place_and_route(const techmap::LutNetlist& netlist,
                                          const fabric::FabricGeometry& geometry,
                                          const PnrOptions& options = {});

/// Canonical content hash of a complete place-and-route result: the fabric
/// configuration plus the metered flow statistics. Downstream pipeline
/// stages (bitstream generation) chain their cache keys off this.
common::Digest content_hash(const PnrResult& result);

}  // namespace warp::pnr
