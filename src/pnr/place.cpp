#include <algorithm>
#include <cmath>

#include "pnr/pnr.hpp"

#include "common/strings.hpp"

namespace warp::pnr {
namespace {

using fabric::FabricGeometry;
using fabric::LutSite;
using techmap::LutNetlist;
using techmap::NetRef;

// A net endpoint: either a movable LUT or a fixed pad position.
struct Endpoint {
  int lut = -1;  // >= 0: movable
  int fixed_x = 0;
  int fixed_y = 0;
};

struct Net {
  std::vector<Endpoint> endpoints;
};

struct PlacerState {
  const FabricGeometry& geometry;
  std::vector<Net> nets;
  std::vector<std::vector<int>> nets_of_lut;  // lut -> distinct net indices, ascending
  std::vector<int> lut_slot;                  // lut -> slot index
  std::vector<int> slot_lut;                  // slot -> lut (-1 free)
  std::vector<int> lut_x, lut_y;              // cached site coords per lut
  std::vector<LutSite> input_pads;
  std::vector<LutSite> output_pads;

  explicit PlacerState(const FabricGeometry& g) : geometry(g) {}

  unsigned slot_count() const {
    return geometry.width * geometry.height * geometry.luts_per_clb;
  }
  LutSite site_of_slot(int slot) const {
    const unsigned per_col = geometry.height * geometry.luts_per_clb;
    LutSite site;
    site.x = static_cast<int>(static_cast<unsigned>(slot) / per_col);
    const unsigned rem = static_cast<unsigned>(slot) % per_col;
    site.y = static_cast<int>(rem / geometry.luts_per_clb);
    site.slot = rem % geometry.luts_per_clb;
    return site;
  }

  void position_of(const Endpoint& ep, int& x, int& y) const {
    if (ep.lut >= 0) {
      x = lut_x[static_cast<std::size_t>(ep.lut)];
      y = lut_y[static_cast<std::size_t>(ep.lut)];
    } else {
      x = ep.fixed_x;
      y = ep.fixed_y;
    }
  }

  double net_hpwl(const Net& net) const {
    int min_x = 1 << 30, max_x = -(1 << 30), min_y = 1 << 30, max_y = -(1 << 30);
    for (const auto& ep : net.endpoints) {
      int x, y;
      position_of(ep, x, y);
      min_x = std::min(min_x, x);
      max_x = std::max(max_x, x);
      min_y = std::min(min_y, y);
      max_y = std::max(max_y, y);
    }
    return static_cast<double>((max_x - min_x) + (max_y - min_y));
  }

  void set_lut_slot(int lut, int slot) {
    lut_slot[static_cast<std::size_t>(lut)] = slot;
    const LutSite site = site_of_slot(slot);
    lut_x[static_cast<std::size_t>(lut)] = site.x;
    lut_y[static_cast<std::size_t>(lut)] = site.y;
  }

  // Put `lut` in slot `to` and `other` (-1: none) in slot `from`.
  void assign(int lut, int to, int other, int from) {
    set_lut_slot(lut, to);
    slot_lut[static_cast<std::size_t>(to)] = lut;
    slot_lut[static_cast<std::size_t>(from)] = other;
    if (other >= 0) set_lut_slot(other, from);
  }
};

// Pads distributed along the left (inputs) and right (outputs) IO columns.
LutSite input_pad_site(std::size_t index, std::size_t total, const FabricGeometry& g) {
  LutSite site;
  site.x = -1;
  site.y = static_cast<int>((index * g.height) / std::max<std::size_t>(total, 1));
  site.slot = 0;
  return site;
}

LutSite output_pad_site(std::size_t index, std::size_t total, const FabricGeometry& g) {
  LutSite site;
  site.x = static_cast<int>(g.width);
  site.y = static_cast<int>((index * g.height) / std::max<std::size_t>(total, 1));
  site.slot = 0;
  return site;
}

}  // namespace

common::Result<PlaceResult> place(const LutNetlist& netlist, const FabricGeometry& geometry,
                                  const PlaceOptions& options) {
  if (netlist.luts.size() > geometry.lut_capacity()) {
    return common::Result<PlaceResult>::error(common::format(
        "design needs %zu LUTs, fabric has %u", netlist.luts.size(), geometry.lut_capacity()));
  }

  PlacerState st(geometry);
  const std::size_t num_luts = netlist.luts.size();

  // Pads.
  for (std::size_t i = 0; i < netlist.primary_inputs.size(); ++i) {
    st.input_pads.push_back(input_pad_site(i, netlist.primary_inputs.size(), geometry));
  }
  for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
    st.output_pads.push_back(output_pad_site(i, netlist.outputs.size(), geometry));
  }

  // Nets: one per driver (LUT or primary input) with its sinks.
  std::vector<int> net_of_lut_driver(num_luts, -1);
  std::vector<int> net_of_pi_driver(netlist.primary_inputs.size(), -1);
  auto net_for_driver = [&](const NetRef& ref) -> int {
    if (ref.kind == NetRef::Kind::kLut) {
      int& id = net_of_lut_driver[static_cast<std::size_t>(ref.index)];
      if (id < 0) {
        id = static_cast<int>(st.nets.size());
        st.nets.emplace_back();
        st.nets.back().endpoints.push_back({ref.index, 0, 0});
      }
      return id;
    }
    if (ref.kind == NetRef::Kind::kPrimaryInput) {
      int& id = net_of_pi_driver[static_cast<std::size_t>(ref.index)];
      if (id < 0) {
        id = static_cast<int>(st.nets.size());
        st.nets.emplace_back();
        const LutSite pad = st.input_pads[static_cast<std::size_t>(ref.index)];
        st.nets.back().endpoints.push_back({-1, pad.x, pad.y});
      }
      return id;
    }
    return -1;  // constants need no routing
  };

  for (std::size_t i = 0; i < num_luts; ++i) {
    for (unsigned k = 0; k < netlist.luts[i].num_inputs; ++k) {
      const int net = net_for_driver(netlist.luts[i].inputs[k]);
      if (net >= 0) st.nets[static_cast<std::size_t>(net)].endpoints.push_back(
          {static_cast<int>(i), 0, 0});
    }
  }
  for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
    const int net = net_for_driver(netlist.outputs[o].source);
    if (net >= 0) {
      const LutSite pad = st.output_pads[o];
      st.nets[static_cast<std::size_t>(net)].endpoints.push_back({-1, pad.x, pad.y});
    }
  }

  // Nets are visited in ascending order, so each list comes out sorted and a
  // LUT that sinks one net on several pins is listed once.
  st.nets_of_lut.assign(num_luts, {});
  for (std::size_t n = 0; n < st.nets.size(); ++n) {
    for (const auto& ep : st.nets[n].endpoints) {
      if (ep.lut < 0) continue;
      auto& list = st.nets_of_lut[static_cast<std::size_t>(ep.lut)];
      if (list.empty() || list.back() != static_cast<int>(n)) list.push_back(static_cast<int>(n));
    }
  }

  // Constructive seed: LUTs in topological (id) order, column-major sweep
  // from the input edge — drivers end up left of their sinks.
  st.lut_slot.assign(num_luts, -1);
  st.slot_lut.assign(st.slot_count(), -1);
  st.lut_x.assign(num_luts, 0);
  st.lut_y.assign(num_luts, 0);
  for (std::size_t i = 0; i < num_luts; ++i) {
    st.set_lut_slot(static_cast<int>(i), static_cast<int>(i));
    st.slot_lut[i] = static_cast<int>(i);
  }

  double cost = 0.0;
  for (const Net& net : st.nets) cost += st.net_hpwl(net);

  // Simulated annealing.
  common::Rng rng(options.seed);
  PlaceResult result;
  const std::uint64_t total_moves =
      static_cast<std::uint64_t>(options.moves_per_lut) * std::max<std::size_t>(num_luts, 1);
  double temperature = options.initial_temperature;
  const std::uint64_t moves_per_stage = std::max<std::uint64_t>(total_moves / 40, 1);

  // A move's delta rescans the distinct nets of the moved LUT and of the LUT
  // it displaces, before and after the swap. HPWL values are integer-valued
  // doubles, so the running cost stays exact. net_stamp[n] == result.moves
  // marks net n as already gathered this move.
  std::vector<int> affected;
  std::vector<std::uint64_t> net_stamp(st.nets.size(), 0);

  for (std::uint64_t move = 0; move < total_moves && num_luts > 0; ++move) {
    const int lut = static_cast<int>(rng.below(static_cast<std::uint32_t>(num_luts)));
    const int new_slot = static_cast<int>(rng.below(st.slot_count()));
    const int old_slot = st.lut_slot[static_cast<std::size_t>(lut)];
    if (new_slot == old_slot) continue;
    const int other = st.slot_lut[static_cast<std::size_t>(new_slot)];
    ++result.moves;

    affected.clear();
    double before = 0.0;
    auto gather = [&](int moved) {
      for (const int n : st.nets_of_lut[static_cast<std::size_t>(moved)]) {
        const std::size_t nn = static_cast<std::size_t>(n);
        if (net_stamp[nn] == result.moves) continue;
        net_stamp[nn] = result.moves;
        affected.push_back(n);
        before += st.net_hpwl(st.nets[nn]);
      }
    };
    gather(lut);
    if (other >= 0) gather(other);
    result.delta_evaluations += affected.size();

    st.assign(lut, new_slot, other, old_slot);
    double after = 0.0;
    for (const int n : affected) after += st.net_hpwl(st.nets[static_cast<std::size_t>(n)]);
    const double delta = after - before;

    const bool accept = delta <= 0.0 || rng.chance(std::exp(-delta / temperature));
    if (accept) {
      cost += delta;
      ++result.accepted_moves;
    } else {
      st.assign(lut, old_slot, other, new_slot);
    }
    if (move % moves_per_stage == moves_per_stage - 1) temperature *= options.cooling;
  }

  result.placement.resize(num_luts);
  for (std::size_t i = 0; i < num_luts; ++i) {
    result.placement[i] = st.site_of_slot(st.lut_slot[i]);
  }
  result.input_pads = st.input_pads;
  result.output_pads = st.output_pads;
  result.hpwl = cost;
  return result;
}

}  // namespace warp::pnr
