#include <algorithm>
#include <cmath>
#include <map>

#include "pnr/level_queue.hpp"
#include "pnr/pnr.hpp"

#include "common/strings.hpp"

namespace warp::pnr {
namespace {

using fabric::FabricGeometry;
using fabric::LutSite;
using fabric::RoutedNet;
using techmap::LutNetlist;
using techmap::NetRef;

// Routing-resource grid: cells (x, y) with x in [-1, width] (the two IO
// columns) and y in [0, height). Congestion is tracked per cell: each cell's
// switch matrix passes at most `capacity` nets. Held by value, so a search
// can keep a local copy that its int stores cannot alias.
struct Grid {
  int width;  // CLB columns, excluding the two IO columns
  int rows;
  explicit Grid(const FabricGeometry& geometry)
      : width(static_cast<int>(geometry.width)), rows(static_cast<int>(geometry.height)) {}

  int cols() const { return width + 2; }
  int id(int x, int y) const { return (x + 1) * rows + y; }
  int size() const { return cols() * rows; }
  bool valid(int x, int y) const { return x >= -1 && x <= width && y >= 0 && y < rows; }
};

struct NetToRoute {
  int driver_lut = -1;
  int driver_input = -1;
  std::pair<int, int> source;
  struct SinkSpec {
    int lut = -1;
    int output_index = -1;
    unsigned input_pin = 0;
    std::pair<int, int> cell;
  };
  std::vector<SinkSpec> sinks;
};

// Nets with physical positions, sinks sorted near-to-far from the driver
// (better Steiner-ish trees, and a deterministic routing order).
std::vector<NetToRoute> build_nets(const LutNetlist& netlist, const PlaceResult& placement) {
  std::vector<NetToRoute> nets;
  std::map<std::pair<int, int>, int> net_of_driver;  // (kind, index) -> net
  auto net_for = [&](const NetRef& ref) -> int {
    if (ref.kind == NetRef::Kind::kConst0 || ref.kind == NetRef::Kind::kConst1) return -1;
    const int kind = (ref.kind == NetRef::Kind::kLut) ? 0 : 1;
    const auto key = std::make_pair(kind, ref.index);
    const auto it = net_of_driver.find(key);
    if (it != net_of_driver.end()) return it->second;
    NetToRoute net;
    if (kind == 0) {
      net.driver_lut = ref.index;
      const LutSite site = placement.placement[static_cast<std::size_t>(ref.index)];
      net.source = {site.x, site.y};
    } else {
      net.driver_input = ref.index;
      const LutSite site = placement.input_pads[static_cast<std::size_t>(ref.index)];
      net.source = {site.x, site.y};
    }
    const int id = static_cast<int>(nets.size());
    nets.push_back(std::move(net));
    net_of_driver.emplace(key, id);
    return id;
  };

  for (std::size_t i = 0; i < netlist.luts.size(); ++i) {
    const LutSite site = placement.placement[i];
    for (unsigned k = 0; k < netlist.luts[i].num_inputs; ++k) {
      const int n = net_for(netlist.luts[i].inputs[k]);
      if (n < 0) continue;
      NetToRoute::SinkSpec sink;
      sink.lut = static_cast<int>(i);
      sink.input_pin = k;
      sink.cell = {site.x, site.y};
      nets[static_cast<std::size_t>(n)].sinks.push_back(sink);
    }
  }
  for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
    const int n = net_for(netlist.outputs[o].source);
    if (n < 0) continue;
    NetToRoute::SinkSpec sink;
    sink.output_index = static_cast<int>(o);
    const LutSite pad = placement.output_pads[o];
    sink.cell = {pad.x, pad.y};
    nets[static_cast<std::size_t>(n)].sinks.push_back(sink);
  }

  for (auto& net : nets) {
    std::sort(net.sinks.begin(), net.sinks.end(),
              [&](const NetToRoute::SinkSpec& a, const NetToRoute::SinkSpec& b) {
                const int da = std::abs(a.cell.first - net.source.first) +
                               std::abs(a.cell.second - net.source.second);
                const int db = std::abs(b.cell.first - net.source.first) +
                               std::abs(b.cell.second - net.source.second);
                return da < db;
              });
  }
  return nets;
}

// Arrival-time propagation over the routed netlist. Net delay to a sink =
// io + hops*wire; LUT ids are in topological order (techmap covers leaves
// first).
double compute_timing(const LutNetlist& netlist, const FabricGeometry& geometry,
                      const std::vector<RoutedNet>& routes) {
  std::vector<double> arrival(netlist.luts.size(), 0.0);
  std::vector<double> net_delay_to_lut_pin(netlist.luts.size() * techmap::kLutInputs, 0.0);
  std::vector<double> output_arrival(netlist.outputs.size(), 0.0);
  for (const auto& routed : routes) {
    for (const auto& sink : routed.sinks) {
      const double hops = sink.path.empty() ? 0.0 : static_cast<double>(sink.path.size() - 1);
      const double delay = geometry.io_delay_ns * (routed.driver_input >= 0 ? 1.0 : 0.0) +
                           hops * geometry.wire_hop_delay_ns;
      if (sink.lut >= 0) {
        net_delay_to_lut_pin[static_cast<std::size_t>(sink.lut) * techmap::kLutInputs +
                             sink.input_pin] = delay;
      } else if (sink.output_index >= 0) {
        output_arrival[static_cast<std::size_t>(sink.output_index)] = delay;
      }
    }
  }
  double critical = 0.0;
  for (std::size_t i = 0; i < netlist.luts.size(); ++i) {
    double in_arrival = 0.0;
    for (unsigned k = 0; k < netlist.luts[i].num_inputs; ++k) {
      const NetRef& ref = netlist.luts[i].inputs[k];
      double src = 0.0;
      if (ref.kind == NetRef::Kind::kLut) src = arrival[static_cast<std::size_t>(ref.index)];
      in_arrival = std::max(in_arrival,
                            src + net_delay_to_lut_pin[i * techmap::kLutInputs + k]);
    }
    arrival[i] = in_arrival + geometry.lut_delay_ns;
    critical = std::max(critical, arrival[i]);
  }
  for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
    const NetRef& ref = netlist.outputs[o].source;
    double src = 0.0;
    if (ref.kind == NetRef::Kind::kLut) src = arrival[static_cast<std::size_t>(ref.index)];
    critical = std::max(critical, src + output_arrival[o] + geometry.io_delay_ns);
  }
  return critical;
}

// ---------------------------------------------------------------------------
// Selective rip-up router. Routed trees, cell usage and the history-cost
// grid persist across congestion iterations; only sinks whose paths cross an
// overused cell (or whose tree entry was ripped out from under them) are
// rerouted, with A* seeded from the net's surviving tree.
// ---------------------------------------------------------------------------
class SelectiveRouter {
 public:
  SelectiveRouter(const Grid& grid, const FabricGeometry& geometry,
                  const RouteOptions& options, std::vector<NetToRoute>& nets,
                  std::vector<std::vector<std::vector<std::pair<int, int>>>>& paths,
                  RouteResult& result)
      : grid_(grid), geometry_(geometry), options_(options), nets_(nets), paths_(paths),
        result_(result) {
    const std::size_t cells = static_cast<std::size_t>(grid.size());
    usage_.assign(cells, 0);
    history_.assign(cells, 0.0);
    overused_cell_.assign(cells, 0);
    search_.assign(cells, SearchCell{});
    cell_x_.resize(cells);
    cell_y_.resize(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      cell_x_[c] = static_cast<int>(c) / grid.rows - 1;
      cell_y_[c] = static_cast<int>(c) % grid.rows;
    }
    queue_.reset(cells);
    tree_mark_.assign(cells, 0);
    tree_hop_at_.assign(cells, 0);
    tree_cells_.resize(nets.size());
    tree_hops_.resize(nets.size());
    for (std::size_t n = 0; n < nets.size(); ++n) {
      paths_[n].assign(nets[n].sinks.size(), {});
    }
  }

  void run() {
    std::vector<std::size_t> ripped_sinks;
    for (unsigned iter = 1; iter <= options_.max_iterations; ++iter) {
      result_.iterations = iter;
      const double present_weight = options_.present_factor * static_cast<double>(iter);
      unsigned nets_routed = 0;

      for (std::size_t n = 0; n < nets_.size(); ++n) {
        ripped_sinks.clear();
        if (iter == 1) {
          // Fresh tree: just the driver cell (sources carry no switch usage).
          tree_cells_[n] = {grid_.id(nets_[n].source.first, nets_[n].source.second)};
          tree_hops_[n] = {0};
          for (std::size_t s = 0; s < nets_[n].sinks.size(); ++s) ripped_sinks.push_back(s);
        } else {
          rip_up(n, ripped_sinks);
        }
        if (ripped_sinks.empty()) continue;
        ++nets_routed;
        if (iter > 1) ++result_.nets_rerouted;
        route_sinks(n, ripped_sinks, present_weight);
      }
      result_.nets_rerouted_per_iter.push_back(nets_routed);

      // Legality check (IO register-bank columns are uncapacitated); flag
      // the overused cells for the next iteration's rip-up and accumulate
      // their history cost.
      bool overused = false;
      for (std::size_t i = 0; i < usage_.size(); ++i) {
        const int x = cell_x_[i];
        overused_cell_[i] = 0;
        if (x < 0 || x >= static_cast<int>(geometry_.width)) continue;
        const int over = usage_[i] - static_cast<int>(geometry_.channel_capacity);
        if (over > 0) {
          overused = true;
          overused_cell_[i] = 1;
          history_[i] += options_.history_factor * over;
        }
      }
      if (!overused) {
        result_.success = true;
        return;
      }
    }
  }

 private:
  // Rebuild net n's tree from the sinks whose paths avoid every overused
  // cell (cascading: a surviving path whose entry cell was ripped is ripped
  // too), release usage for the removed cells, and report the sinks that
  // must be rerouted.
  void rip_up(std::size_t n, std::vector<std::size_t>& ripped_sinks) {
    const auto& old_cells = tree_cells_[n];
    const int source = old_cells.empty()
                           ? grid_.id(nets_[n].source.first, nets_[n].source.second)
                           : old_cells.front();

    bool any_bad = false;
    for (std::size_t s = 0; s < paths_[n].size() && !any_bad; ++s) {
      if (paths_[n][s].empty()) any_bad = true;
      for (const auto& [x, y] : paths_[n][s]) {
        if (overused_cell_[static_cast<std::size_t>(grid_.id(x, y))]) {
          any_bad = true;
          break;
        }
      }
    }
    if (!any_bad) return;  // whole tree survives

    ++tree_epoch_;
    new_cells_.clear();
    new_hops_.clear();
    auto mark = [&](int cell, unsigned hops) {
      tree_mark_[static_cast<std::size_t>(cell)] = tree_epoch_;
      tree_hop_at_[static_cast<std::size_t>(cell)] = hops;
      new_cells_.push_back(cell);
      new_hops_.push_back(hops);
    };
    mark(source, 0);

    for (std::size_t s = 0; s < paths_[n].size(); ++s) {
      auto& path = paths_[n][s];
      bool bad = path.empty();
      for (const auto& [x, y] : path) {
        if (bad) break;
        if (overused_cell_[static_cast<std::size_t>(grid_.id(x, y))]) bad = true;
      }
      if (!bad) {
        const int entry = grid_.id(path.front().first, path.front().second);
        if (tree_mark_[static_cast<std::size_t>(entry)] != tree_epoch_) {
          bad = true;  // entry was on a ripped branch
        } else {
          const unsigned entry_hops = tree_hop_at_[static_cast<std::size_t>(entry)];
          for (std::size_t i = 0; i < path.size(); ++i) {
            const int cell = grid_.id(path[i].first, path[i].second);
            if (tree_mark_[static_cast<std::size_t>(cell)] != tree_epoch_) {
              mark(cell, entry_hops + static_cast<unsigned>(i));
            }
          }
        }
      }
      if (bad) {
        path.clear();
        ripped_sinks.push_back(s);
      }
    }

    // Release usage for cells that fell out of the tree (the source is in
    // both trees and never carried usage).
    for (const int cell : old_cells) {
      if (tree_mark_[static_cast<std::size_t>(cell)] != tree_epoch_) {
        --usage_[static_cast<std::size_t>(cell)];
      }
    }
    tree_cells_[n] = new_cells_;
    tree_hops_[n] = new_hops_;
  }

  // A*-route the given sinks of net n from its current tree, growing the
  // tree (and cell usage) with each new path.
  void route_sinks(std::size_t n, const std::vector<std::size_t>& sink_indices,
                   double present_weight) {
    auto& net = nets_[n];
    // Load the tree into the stamped scratch map.
    ++tree_epoch_;
    for (std::size_t i = 0; i < tree_cells_[n].size(); ++i) {
      tree_mark_[static_cast<std::size_t>(tree_cells_[n][i])] = tree_epoch_;
      tree_hop_at_[static_cast<std::size_t>(tree_cells_[n][i])] = tree_hops_[n][i];
    }

    // Grid constants in locals: the search's int stores could otherwise
    // alias them and force a reload per neighbour.
    const Grid grid = grid_;
    const int capacity = static_cast<int>(geometry_.channel_capacity);
    const int dx[4] = {1, -1, 0, 0};
    const int dy[4] = {0, 0, 1, -1};
    const int id_offset[4] = {grid.rows, -grid.rows, 1, -1};  // id(x+dx, y+dy) - id(x, y)

    for (const std::size_t si : sink_indices) {
      const int sink_x = net.sinks[si].cell.first;
      const int sink_y = net.sinks[si].cell.second;
      const int goal = grid.id(sink_x, sink_y);
      auto heuristic = [&](int cell) {
        const std::size_t ci = static_cast<std::size_t>(cell);
        return static_cast<double>(std::abs(cell_x_[ci] - sink_x) +
                                   std::abs(cell_y_[ci] - sink_y));
      };
      const int epoch = ++astar_epoch_;
      queue_.clear();  // an earlier search stopped at its goal with entries left
      auto relax = [&](int cell, double cost, int par) {
        SearchCell& sc = search_[static_cast<std::size_t>(cell)];
        if (sc.epoch == epoch && cost + 1e-9 >= sc.best_cost) return false;
        sc = SearchCell{cost, par, epoch};
        return true;
      };
      for (const int cell : tree_cells_[n]) {
        relax(cell, 0.0, -1);
        queue_.push(heuristic(cell), cell);
      }
      int found = -1;
      std::uint64_t expansions = 0;
      while (!queue_.empty()) {
        const auto [prio, cell] = queue_.pop();
        const double cost = prio - heuristic(cell);
        if (cost > search_[static_cast<std::size_t>(cell)].best_cost + 1e-9) continue;
        ++expansions;
        if (cell == goal) {
          found = cell;
          break;
        }
        const int x = cell_x_[static_cast<std::size_t>(cell)];
        const int y = cell_y_[static_cast<std::size_t>(cell)];
        for (int d = 0; d < 4; ++d) {
          const int nx = x + dx[d];
          const int ny = y + dy[d];
          if (!grid.valid(nx, ny)) continue;
          const int next = cell + id_offset[d];
          const std::size_t ni = static_cast<std::size_t>(next);
          // IO register-bank columns are dedicated buses: no congestion.
          const bool io_column = (nx < 0 || nx >= grid.width);
          const double over = io_column ? 0.0 : std::max(0, usage_[ni] + 1 - capacity);
          const double step = 1.0 + present_weight * over + history_[ni];
          if (relax(next, cost + step, cell)) {
            queue_.push(cost + step + heuristic(next), next);
          }
        }
      }
      result_.expansions += expansions;
      auto& path = paths_[n][si];
      path.clear();
      if (found < 0) continue;  // unreachable; path stays empty
      trace_.clear();
      for (int cur = found; cur != -1; cur = search_[static_cast<std::size_t>(cur)].parent) {
        trace_.push_back(cur);  // ends at the tree entry
      }
      std::reverse(trace_.begin(), trace_.end());
      const unsigned entry_hops = tree_hop_at_[static_cast<std::size_t>(trace_.front())];
      for (std::size_t i = 0; i < trace_.size(); ++i) {
        const std::size_t cell = static_cast<std::size_t>(trace_[i]);
        if (tree_mark_[cell] != tree_epoch_) {
          tree_mark_[cell] = tree_epoch_;
          tree_hop_at_[cell] = entry_hops + static_cast<unsigned>(i);
          tree_cells_[n].push_back(trace_[i]);
          tree_hops_[n].push_back(entry_hops + static_cast<unsigned>(i));
          ++usage_[cell];
        }
        path.emplace_back(cell_x_[cell], cell_y_[cell]);
      }
    }
  }

  const Grid& grid_;
  const FabricGeometry& geometry_;
  const RouteOptions& options_;
  std::vector<NetToRoute>& nets_;
  std::vector<std::vector<std::vector<std::pair<int, int>>>>& paths_;
  RouteResult& result_;

  // Persistent congestion state.
  std::vector<int> usage_;
  std::vector<double> history_;
  std::vector<char> overused_cell_;
  // Persistent per-net routed trees (parallel cell/hop arrays).
  std::vector<std::vector<int>> tree_cells_;
  std::vector<std::vector<unsigned>> tree_hops_;
  // Per-cell grid coordinates (x from -1, the left IO column).
  std::vector<int> cell_x_;
  std::vector<int> cell_y_;
  // A* scratch reused by every search: epoch-stamped per-cell state, the
  // open list and the traceback (no per-sink allocation or refill).
  struct SearchCell {
    double best_cost = 0.0;
    int parent = -2;
    int epoch = 0;  // the search that last set best_cost and parent
  };
  std::vector<SearchCell> search_;
  int astar_epoch_ = 0;
  LevelQueue queue_;
  std::vector<int> trace_;  // a found path, goal back to its tree entry
  // Epoch-stamped tree membership scratch.
  std::vector<int> tree_mark_;
  std::vector<unsigned> tree_hop_at_;
  int tree_epoch_ = 0;
  std::vector<int> new_cells_;
  std::vector<unsigned> new_hops_;
};

}  // namespace

common::Result<RouteResult> route(const LutNetlist& netlist, const FabricGeometry& geometry,
                                  const PlaceResult& placement, const RouteOptions& options) {
  Grid grid(geometry);
  std::vector<NetToRoute> nets = build_nets(netlist, placement);

  RouteResult result;
  // paths[net][sink] = routed cells from tree entry to sink, inclusive.
  std::vector<std::vector<std::vector<std::pair<int, int>>>> paths(nets.size());
  for (std::size_t n = 0; n < nets.size(); ++n) paths[n].resize(nets[n].sinks.size());

  SelectiveRouter router(grid, geometry, options, nets, paths, result);
  router.run();

  // Convert to RoutedNet records (even on failure, for diagnostics).
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const auto& net = nets[n];
    RoutedNet routed;
    routed.driver_lut = net.driver_lut;
    routed.driver_input = net.driver_input;
    for (std::size_t si = 0; si < net.sinks.size(); ++si) {
      const auto& sink = net.sinks[si];
      RoutedNet::Sink s;
      s.lut = sink.lut;
      s.output_index = sink.output_index;
      s.input_pin = sink.input_pin;
      s.path = paths[n][si];
      result.max_hops = std::max(result.max_hops,
                                 static_cast<unsigned>(s.path.empty() ? 0 : s.path.size() - 1));
      routed.sinks.push_back(std::move(s));
    }
    result.routes.push_back(std::move(routed));
  }

  if (!result.success) {
    return common::Result<RouteResult>::error(common::format(
        "routing did not converge after %u iterations", result.iterations));
  }

  result.critical_path_ns = compute_timing(netlist, geometry, result.routes);
  return result;
}

common::Result<PnrResult> place_and_route(const LutNetlist& netlist,
                                          const fabric::FabricGeometry& geometry,
                                          const PnrOptions& options) {
  auto placed = place(netlist, geometry, options.place);
  if (!placed) return common::Result<PnrResult>::error(placed.message());
  auto routed = route(netlist, geometry, placed.value(), options.route);
  if (!routed) return common::Result<PnrResult>::error(routed.message());

  PnrResult result;
  result.place = std::move(placed).value();
  result.route = std::move(routed).value();

  result.config.geometry = geometry;
  result.config.netlist = netlist;
  result.config.placement = result.place.placement;
  result.config.input_pads = result.place.input_pads;
  result.config.output_pads = result.place.output_pads;
  result.config.routes = result.route.routes;
  result.config.critical_path_ns = result.route.critical_path_ns;
  return result;
}

common::Digest content_hash(const PnrResult& result) {
  common::Hasher h;
  h.digest(fabric::content_hash(result.config));
  h.f64(result.place.hpwl).u64(result.place.moves).u64(result.place.accepted_moves);
  h.u64(result.place.delta_evaluations);
  h.boolean(result.route.success).u32(result.route.iterations).u64(result.route.expansions);
  h.f64(result.route.critical_path_ns).u32(result.route.max_hops);
  h.u64(result.route.nets_rerouted);
  return h.finish();
}

}  // namespace warp::pnr
