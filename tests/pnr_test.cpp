// Place & route tests: placement determinism, the annealer's running cost
// against an independent HPWL recomputation, selective rip-up routing
// regressions, and the pinned PnR output (placement, routes and every
// metered counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "experiments/harness.hpp"
#include "fabric/wcla.hpp"
#include "netlist_testutil.hpp"
#include "pnr/level_queue.hpp"
#include "pnr/pnr.hpp"
#include "synth/netlist.hpp"
#include "techmap/techmap.hpp"
#include "workloads/workload.hpp"

namespace warp {
namespace {

using testutil::random_netlist;

bool same_placement(const pnr::PlaceResult& a, const pnr::PlaceResult& b) {
  if (a.placement.size() != b.placement.size()) return false;
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    if (a.placement[i].x != b.placement[i].x || a.placement[i].y != b.placement[i].y ||
        a.placement[i].slot != b.placement[i].slot) {
      return false;
    }
  }
  return true;
}

TEST(Place, DeterministicForFixedSeed) {
  common::Rng rng(101);
  auto net = random_netlist(rng, 12, 150, 8);
  auto mapped = techmap::techmap(net);
  ASSERT_TRUE(mapped.is_ok());
  const auto geometry = fabric::FabricGeometry::small();
  pnr::PlaceOptions options;
  options.seed = 7;
  auto first = pnr::place(mapped.value(), geometry, options);
  auto second = pnr::place(mapped.value(), geometry, options);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(same_placement(first.value(), second.value()));
  EXPECT_EQ(first.value().hpwl, second.value().hpwl);
  EXPECT_EQ(first.value().accepted_moves, second.value().accepted_moves);

  // A different seed should (for a netlist this size) anneal differently.
  options.seed = 8;
  auto third = pnr::place(mapped.value(), geometry, options);
  ASSERT_TRUE(third.is_ok());
  EXPECT_FALSE(same_placement(first.value(), third.value()));
}

// HPWL of a placement recomputed from the netlist alone, sharing no code with
// place.cpp: one net per driver (LUT or primary input) that has a sink,
// spanning the driver and its sinks (LUT inputs and output pads).
double summed_hpwl(const techmap::LutNetlist& netlist, const pnr::PlaceResult& placed) {
  using Kind = techmap::NetRef::Kind;
  struct Box {
    int min_x = 1 << 30, max_x = -(1 << 30), min_y = 1 << 30, max_y = -(1 << 30);
    void add(const fabric::LutSite& site) {
      min_x = std::min(min_x, site.x);
      max_x = std::max(max_x, site.x);
      min_y = std::min(min_y, site.y);
      max_y = std::max(max_y, site.y);
    }
  };
  std::map<std::pair<Kind, int>, Box> nets;  // keyed by driver
  auto connect = [&](const techmap::NetRef& driver, const fabric::LutSite& sink) {
    if (driver.kind != Kind::kLut && driver.kind != Kind::kPrimaryInput) return;
    const auto index = static_cast<std::size_t>(driver.index);
    Box& box = nets[{driver.kind, driver.index}];
    box.add(driver.kind == Kind::kLut ? placed.placement[index] : placed.input_pads[index]);
    box.add(sink);
  };
  for (std::size_t i = 0; i < netlist.luts.size(); ++i) {
    for (unsigned k = 0; k < netlist.luts[i].num_inputs; ++k) {
      connect(netlist.luts[i].inputs[k], placed.placement[i]);
    }
  }
  for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
    connect(netlist.outputs[o].source, placed.output_pads[o]);
  }
  double total = 0.0;
  for (const auto& [driver, box] : nets) {
    total += (box.max_x - box.min_x) + (box.max_y - box.min_y);
  }
  return total;
}

// The annealer's running cost, the seed's HPWL plus every accepted delta,
// must equal the HPWL of the final placement. HPWL values are integer-valued
// doubles, so equality is exact. A delta that skips the displaced LUT's nets,
// leaves the displaced LUT moved on a rejected swap or reads zero fails here.
// A delta that rescans a net twice when both LUTs of a swap sit on it does
// not: swapping two endpoints of one net keeps that net's HPWL, so only
// delta_evaluations changes, and the content-hash pins below catch that.
TEST(Place, RunningCostEqualsFinalHpwl) {
  const auto geometry = fabric::FabricGeometry::small();
  common::Rng rng(2025);
  for (int trial = 0; trial < 8; ++trial) {
    auto net = random_netlist(rng, 4 + trial, 60 + 40 * trial, 4 + trial);
    auto mapped = techmap::techmap(net);
    ASSERT_TRUE(mapped.is_ok());
    pnr::PlaceOptions options;
    options.seed = 3 + static_cast<std::uint64_t>(trial);
    auto placed = pnr::place(mapped.value(), geometry, options);
    ASSERT_TRUE(placed.is_ok()) << placed.message();
    EXPECT_GT(placed.value().accepted_moves, 0u) << "trial " << trial;
    EXPECT_GT(placed.value().delta_evaluations, 0u) << "trial " << trial;
    EXPECT_EQ(placed.value().hpwl, summed_hpwl(mapped.value(), placed.value()))
        << "trial " << trial;
  }

  // A high-fanout net: one XOR LUT driving 24 output pads, 25 endpoints.
  synth::GateNetlist fanout;
  const int a = fanout.add_input("a");
  const int b = fanout.add_input("b");
  for (int i = 0; i < 24; ++i) {
    fanout.add_output("o" + std::to_string(i), fanout.gate_xor(a, b));
  }
  auto mapped = techmap::techmap(fanout);
  ASSERT_TRUE(mapped.is_ok());
  pnr::PlaceOptions options;
  options.moves_per_lut = 200;
  auto placed = pnr::place(mapped.value(), geometry, options);
  ASSERT_TRUE(placed.is_ok()) << placed.message();
  EXPECT_GT(placed.value().accepted_moves, 0u);
  EXPECT_EQ(placed.value().hpwl, summed_hpwl(mapped.value(), placed.value()));
}

// Count how many nets pass through each fabric cell (IO columns excluded),
// mirroring the router's usage bookkeeping: one unit per net per distinct
// cell of its routed tree, the driver's own cell exempt.
std::map<std::pair<int, int>, int> cell_usage(const pnr::PnrResult& result) {
  std::map<std::pair<int, int>, int> usage;
  for (const auto& routed : result.route.routes) {
    std::pair<int, int> source;
    if (routed.driver_lut >= 0) {
      const auto& site = result.place.placement[static_cast<std::size_t>(routed.driver_lut)];
      source = {site.x, site.y};
    } else {
      const auto& site = result.place.input_pads[static_cast<std::size_t>(routed.driver_input)];
      source = {site.x, site.y};
    }
    std::set<std::pair<int, int>> cells;
    for (const auto& sink : routed.sinks) {
      for (const auto& cell : sink.path) cells.insert(cell);
    }
    cells.erase(source);
    for (const auto& cell : cells) ++usage[cell];
  }
  return usage;
}

// Regression: on a congested grid the selective rip-up router must still
// converge to a legal (no overuse) solution, and must actually exercise the
// rip-up path rather than rerouting everything.
TEST(Route, SelectiveRipupConvergesOnCongestedGrid) {
  common::Rng rng(17);
  auto net = random_netlist(rng, 10, 80, 6);
  auto mapped = techmap::techmap(net);
  ASSERT_TRUE(mapped.is_ok());
  fabric::FabricGeometry geometry = fabric::FabricGeometry::small();
  geometry.channel_capacity = 3;  // tight: forces congestion iterations

  pnr::PnrOptions options;
  options.route.max_iterations = 32;
  auto result = pnr::place_and_route(mapped.value(), geometry, options);
  ASSERT_TRUE(result.is_ok()) << result.message();
  const auto& route = result.value().route;
  EXPECT_TRUE(route.success);
  EXPECT_GT(route.iterations, 1u);
  EXPECT_GT(route.nets_rerouted, 0u);
  ASSERT_EQ(route.nets_rerouted_per_iter.size(), route.iterations);
  // Selective rip-up: later iterations touch a strict subset of the nets.
  EXPECT_LT(route.nets_rerouted_per_iter[1], route.nets_rerouted_per_iter[0]);

  // Legality: no non-IO cell carries more nets than the channel capacity.
  for (const auto& [cell, count] : cell_usage(result.value())) {
    if (cell.first < 0 || cell.first >= static_cast<int>(geometry.width)) continue;
    EXPECT_LE(count, static_cast<int>(geometry.channel_capacity))
        << "overused cell (" << cell.first << "," << cell.second << ")";
  }

  // Every sink still gets a connected, grid-adjacent path.
  for (const auto& routed : route.routes) {
    for (const auto& sink : routed.sinks) {
      ASSERT_FALSE(sink.path.empty());
      for (std::size_t i = 1; i < sink.path.size(); ++i) {
        const int dx = std::abs(sink.path[i].first - sink.path[i - 1].first);
        const int dy = std::abs(sink.path[i].second - sink.path[i - 1].second);
        EXPECT_EQ(dx + dy, 1);
      }
    }
  }
  EXPECT_EQ(pnr::content_hash(result.value()).to_string(), "622265315f22a52e:f7cbe16c280e3e47");
}

// On an uncongested fabric routing converges in one iteration. The pinned
// hash covers the routes, the expansion count (the DPM time model charges
// per expansion) and the critical path.
TEST(Route, UncongestedRouteMatchesPinnedHash) {
  common::Rng rng(23);
  auto net = random_netlist(rng, 10, 100, 6);
  auto mapped = techmap::techmap(net);
  ASSERT_TRUE(mapped.is_ok());
  auto result = pnr::place_and_route(mapped.value(), fabric::FabricGeometry::small());
  ASSERT_TRUE(result.is_ok()) << result.message();
  ASSERT_EQ(result.value().route.iterations, 1u);
  EXPECT_EQ(pnr::content_hash(result.value()).to_string(), "fb1bcf9f0accf2ec:b6edab2fb85ed8c3");
}

// A grid with more routing cells than one 64-bit summary word over 64-bit
// cell words can index (64 * 64 = 4096): the search queue must pop in the
// same order there as on the default fabric.
TEST(Route, LargeGridMatchesPinnedHash) {
  common::Rng rng(5);
  auto net = random_netlist(rng, 16, 300, 12);
  auto mapped = techmap::techmap(net);
  ASSERT_TRUE(mapped.is_ok());
  fabric::FabricGeometry geometry;
  geometry.width = 100;
  geometry.height = 60;
  geometry.channel_capacity = 8;
  ASSERT_GT((geometry.width + 2) * geometry.height, 4096u);

  pnr::PnrOptions options;
  options.route.max_iterations = 32;
  auto result = pnr::place_and_route(mapped.value(), geometry, options);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().route.iterations, 2u);
  EXPECT_EQ(result.value().route.expansions, 11270u);
  EXPECT_EQ(pnr::content_hash(result.value()).to_string(), "583c70a80e4720e8:843f4b10c7c79c4a");
}

// The PnR output of every kernel at the harness options: the mapped netlist
// the DPM sees, the default fabric and the default PnR options.
TEST(Pnr, KernelsMatchPinnedContentHash) {
  const std::map<std::string, std::string> pinned = {
      {"brev", "ed17db95faab9126:c0aea0d2de345c78"},
      {"g3fax", "516cb536da74d7db:fa5ba13daaa09290"},
      {"canrdr", "a94ae4a74dfaadc0:36a45790c691f765"},
      {"bitmnp", "6137aa59833a764c:336c0b4205e95150"},
      {"idct", "d9d6019397818308:1efec3e2b9f729c8"},
      {"matmul", "0bce11a3b5bcd2b7:bed25abf1f80708e"},
      {"crc", "6da6ea56f10f8f1c:8aec8019b5f5f710"},
      {"fir", "a32976072ed49546:d17afdeab3a3b94e"},
  };
  const auto options = experiments::default_options();
  ASSERT_EQ(workloads::extended_workloads().size(), pinned.size());
  for (const auto& w : workloads::extended_workloads()) {
    auto netlist = experiments::partition_netlist(w, options);
    ASSERT_TRUE(netlist.is_ok()) << w.name << ": " << netlist.message();
    auto result = pnr::place_and_route(netlist.value(), fabric::FabricGeometry{});
    ASSERT_TRUE(result.is_ok()) << w.name << ": " << result.message();
    ASSERT_TRUE(pinned.count(w.name)) << w.name;
    EXPECT_EQ(pnr::content_hash(result.value()).to_string(), pinned.at(w.name)) << w.name;
  }
}

// ---------------------------------------------------------------------------
// LevelQueue: the router's open list must pop in exactly the order of the
// binary heap it replaced, (key, cell) ascending, whenever the queued
// entries are distinct pairs.
// ---------------------------------------------------------------------------
using Entry = std::pair<double, int>;
using ReferenceHeap = std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;

// A cell next to a 64-cell word boundary (half the draws) or anywhere.
int draw_cell(common::Rng& rng, int cells) {
  if (cells > 64 && rng.chance(0.5)) {
    const int boundary = 64 * rng.range(1, (cells - 1) / 64);
    return boundary - static_cast<int>(rng.below(2));
  }
  return static_cast<int>(rng.below(static_cast<std::uint32_t>(cells)));
}

// Keys around the last popped key: whole numbers with many ties,
// fractional keys, and keys below the last pop.
double draw_key(common::Rng& rng, double last_popped) {
  const double base = std::floor(last_popped);
  switch (rng.below(4)) {
    case 0:
    case 1: return base + rng.below(4);                           // whole, tied
    case 2: return last_popped + 0.1 * rng.below(40);             // fractional
    default: return last_popped - 0.25 * (1 + rng.below(12));     // below the last pop
  }
}

// Drive the queue and the reference heap through one seeded interleaving of
// pushes, pops and clears; return the number of pops compared.
std::size_t check_against_heap(pnr::LevelQueue& queue, int cells, std::uint64_t seed,
                               int ops) {
  common::Rng rng(seed);
  queue.reset(static_cast<std::size_t>(cells));
  ReferenceHeap heap;
  std::set<Entry> queued;  // the contract: queued entries are distinct
  double last_popped = 10.0;
  std::size_t pops = 0;
  for (int op = 0; op < ops; ++op) {
    if (rng.chance(0.002)) {  // a search ends early: clear and reuse
      queue.clear();
      heap = ReferenceHeap{};
      queued.clear();
      EXPECT_TRUE(queue.empty());
      continue;
    }
    if (heap.empty() || rng.chance(0.55)) {
      const Entry entry{draw_key(rng, last_popped), draw_cell(rng, cells)};
      if (!queued.insert(entry).second) continue;
      queue.push(entry.first, entry.second);
      heap.push(entry);
    } else {
      if (queue.empty()) {
        ADD_FAILURE() << "cells " << cells << " seed " << seed << ": queue empty, heap not";
        return pops;
      }
      const Entry got = queue.pop();
      const Entry want = heap.top();
      heap.pop();
      queued.erase(want);
      if (got != want) {
        ADD_FAILURE() << "cells " << cells << " seed " << seed << " pop " << pops << ": got ("
                      << got.first << ", " << got.second << "), want (" << want.first << ", "
                      << want.second << ")";
        return pops;
      }
      last_popped = got.first;
      ++pops;
    }
    EXPECT_EQ(queue.empty(), heap.empty());
  }
  while (!heap.empty()) {  // drain
    if (queue.empty()) {
      ADD_FAILURE() << "cells " << cells << " seed " << seed << ": queue empty, heap not";
      return pops;
    }
    const Entry got = queue.pop();
    if (got != heap.top()) {
      ADD_FAILURE() << "cells " << cells << " seed " << seed << " drain pop " << pops;
      return pops;
    }
    heap.pop();
    ++pops;
  }
  EXPECT_TRUE(queue.empty());
  return pops;
}

TEST(LevelQueue, MatchesBinaryHeapPopOrder) {
  // One queue object across every size: reset() must re-size it cleanly.
  // 2640 is the default fabric's routing grid, 6120 the 100x60 one; 4096
  // is the most one summary word over 64-cell words can index.
  pnr::LevelQueue queue;
  for (const int cells : {1, 63, 64, 65, 128, 2640, 4095, 4096, 4097, 6120, 9000}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      EXPECT_GT(check_against_heap(queue, cells, seed * 7919 + static_cast<unsigned>(cells),
                                   20000),
                1000u);
    }
  }
}

// Every cell on both sides of every word boundary, at one key and at keys
// spread over a few levels, pops in cell order within each key.
TEST(LevelQueue, PopsEveryWordBoundaryInCellOrder) {
  const int cells = 6120;
  std::vector<int> boundary_cells;
  for (int boundary = 64; boundary < cells; boundary += 64) {
    boundary_cells.push_back(boundary);
    boundary_cells.push_back(boundary - 1);
  }
  boundary_cells.push_back(cells - 1);
  ASSERT_GT(boundary_cells.back(), 4096);

  pnr::LevelQueue queue;
  queue.reset(cells);
  for (const double spread : {0.0, 3.0}) {
    ReferenceHeap heap;
    common::Rng rng(99);
    for (const int cell : boundary_cells) {
      const double key = 5.0 + (spread > 0 ? static_cast<double>(rng.below(3)) : 0.0);
      queue.push(key, cell);
      heap.emplace(key, cell);
    }
    std::size_t popped = 0;
    while (!heap.empty()) {
      ASSERT_FALSE(queue.empty());
      ASSERT_EQ(queue.pop(), heap.top()) << "spread " << spread << " pop " << popped;
      heap.pop();
      ++popped;
    }
    EXPECT_EQ(popped, boundary_cells.size());
    EXPECT_TRUE(queue.empty());
  }
}

}  // namespace
}  // namespace warp
