#include "synth/netlist.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace warp::synth {

GateNetlist::GateNetlist() {
  gates_.push_back({GateKind::kConst0, -1, -1});
  gates_.push_back({GateKind::kConst1, -1, -1});
}

int GateNetlist::add_input(std::string name) {
  const int id = static_cast<int>(gates_.size());
  gates_.push_back({GateKind::kInput, -1, -1});
  input_ids_.push_back(id);
  input_names_.push_back(std::move(name));
  return id;
}

const std::string& GateNetlist::input_name(int id) const {
  for (std::size_t i = 0; i < input_ids_.size(); ++i) {
    if (input_ids_[i] == id) return input_names_[i];
  }
  throw common::InternalError("input_name: not an input gate");
}

int GateNetlist::intern(Gate g) {
  const auto it = index_.find(g);
  if (it != index_.end()) return it->second;
  const int id = static_cast<int>(gates_.size());
  gates_.push_back(g);
  index_.emplace(g, id);
  return id;
}

int GateNetlist::gate_and(int a, int b) {
  if (a > b) std::swap(a, b);
  if (a == const0()) return const0();
  if (a == const1()) return b;
  if (b == const1()) return a;
  if (a == b) return a;
  // !x & x = 0
  const Gate& gb = gates_[static_cast<std::size_t>(b)];
  if (gb.kind == GateKind::kNot && gb.a == a) return const0();
  const Gate& ga = gates_[static_cast<std::size_t>(a)];
  if (ga.kind == GateKind::kNot && ga.a == b) return const0();
  return intern({GateKind::kAnd, a, b});
}

int GateNetlist::gate_or(int a, int b) {
  if (a > b) std::swap(a, b);
  if (a == const1() || b == const1()) return const1();
  if (a == const0()) return b;
  if (a == b) return a;
  const Gate& gb = gates_[static_cast<std::size_t>(b)];
  if (gb.kind == GateKind::kNot && gb.a == a) return const1();
  const Gate& ga = gates_[static_cast<std::size_t>(a)];
  if (ga.kind == GateKind::kNot && ga.a == b) return const1();
  return intern({GateKind::kOr, a, b});
}

int GateNetlist::gate_xor(int a, int b) {
  if (a > b) std::swap(a, b);
  if (a == b) return const0();
  if (a == const0()) return b;
  if (a == const1()) return gate_not(b);
  const Gate& gb = gates_[static_cast<std::size_t>(b)];
  if (gb.kind == GateKind::kNot && gb.a == a) return const1();
  return intern({GateKind::kXor, a, b});
}

int GateNetlist::gate_not(int a) {
  if (a == const0()) return const1();
  if (a == const1()) return const0();
  const Gate& g = gates_[static_cast<std::size_t>(a)];
  if (g.kind == GateKind::kNot) return g.a;  // double negation
  return intern({GateKind::kNot, a, -1});
}

int GateNetlist::gate_mux(int c, int t, int f) {
  if (c == const1()) return t;
  if (c == const0()) return f;
  if (t == f) return t;
  if (t == const1() && f == const0()) return c;
  if (t == const0() && f == const1()) return gate_not(c);
  return gate_or(gate_and(c, t), gate_and(gate_not(c), f));
}

std::size_t GateNetlist::logic_gate_count() const {
  std::size_t n = 0;
  for (const auto& g : gates_) {
    switch (g.kind) {
      case GateKind::kAnd: case GateKind::kOr: case GateKind::kXor: case GateKind::kNot:
        ++n;
        break;
      default:
        break;
    }
  }
  return n;
}

std::vector<bool> GateNetlist::live_mask() const {
  std::vector<bool> live(gates_.size(), false);
  std::vector<int> stack;
  for (const auto& out : outputs_) {
    if (out.gate >= 0 && !live[static_cast<std::size_t>(out.gate)]) {
      live[static_cast<std::size_t>(out.gate)] = true;
      stack.push_back(out.gate);
    }
  }
  while (!stack.empty()) {
    const Gate& g = gates_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    for (int src : {g.a, g.b}) {
      if (src >= 0 && !live[static_cast<std::size_t>(src)]) {
        live[static_cast<std::size_t>(src)] = true;
        stack.push_back(src);
      }
    }
  }
  return live;
}

std::size_t GateNetlist::live_logic_gate_count() const {
  const auto live = live_mask();
  std::size_t n = 0;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (!live[i]) continue;
    switch (gates_[i].kind) {
      case GateKind::kAnd: case GateKind::kOr: case GateKind::kXor: case GateKind::kNot:
        ++n;
        break;
      default:
        break;
    }
  }
  return n;
}

unsigned GateNetlist::depth() const {
  std::vector<unsigned> level(gates_.size(), 0);
  unsigned max_level = 0;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    unsigned in_level = 0;
    if (g.a >= 0) in_level = std::max(in_level, level[static_cast<std::size_t>(g.a)]);
    if (g.b >= 0) in_level = std::max(in_level, level[static_cast<std::size_t>(g.b)]);
    switch (g.kind) {
      case GateKind::kAnd: case GateKind::kOr: case GateKind::kXor: case GateKind::kNot:
        level[i] = in_level + 1;
        break;
      default:
        level[i] = in_level;
        break;
    }
    max_level = std::max(max_level, level[i]);
  }
  return max_level;
}

std::vector<bool> GateNetlist::evaluate(
    const std::unordered_map<int, bool>& input_values) const {
  std::vector<bool> value(gates_.size(), false);
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    switch (g.kind) {
      case GateKind::kConst0: value[i] = false; break;
      case GateKind::kConst1: value[i] = true; break;
      case GateKind::kInput: {
        const auto it = input_values.find(static_cast<int>(i));
        value[i] = (it != input_values.end()) && it->second;
        break;
      }
      case GateKind::kAnd:
        value[i] = value[static_cast<std::size_t>(g.a)] && value[static_cast<std::size_t>(g.b)];
        break;
      case GateKind::kOr:
        value[i] = value[static_cast<std::size_t>(g.a)] || value[static_cast<std::size_t>(g.b)];
        break;
      case GateKind::kXor:
        value[i] = value[static_cast<std::size_t>(g.a)] != value[static_cast<std::size_t>(g.b)];
        break;
      case GateKind::kNot: value[i] = !value[static_cast<std::size_t>(g.a)]; break;
      case GateKind::kBuf: value[i] = value[static_cast<std::size_t>(g.a)]; break;
    }
  }
  return value;
}

std::vector<bool> GateNetlist::evaluate(const std::vector<bool>& input_values) const {
  if (input_values.size() != input_ids_.size()) {
    throw common::InternalError("netlist evaluate: frame size does not match input count");
  }
  std::unordered_map<int, bool> by_id;
  by_id.reserve(input_ids_.size());
  for (std::size_t i = 0; i < input_ids_.size(); ++i) {
    by_id.emplace(input_ids_[i], input_values[i]);
  }
  return evaluate(by_id);
}

std::string GateNetlist::stats_string() const {
  return common::format("gates=%zu live=%zu inputs=%zu outputs=%zu depth=%u",
                        logic_gate_count(), live_logic_gate_count(), input_ids_.size(),
                        outputs_.size(), depth());
}

common::Digest content_hash(const GateNetlist& net) {
  common::Hasher h;
  h.u64(net.size());
  for (const Gate& g : net.gates()) {
    h.u32(static_cast<std::uint32_t>(g.kind)).i32(g.a).i32(g.b);
  }
  h.u64(net.inputs().size());
  for (const int id : net.inputs()) h.i32(id).str(net.input_name(id));
  // Outputs are an order-insensitive port set: sort by name so two networks
  // that differ only in output insertion order hash equal.
  std::vector<const OutputBit*> outputs;
  outputs.reserve(net.outputs().size());
  for (const OutputBit& o : net.outputs()) outputs.push_back(&o);
  std::sort(outputs.begin(), outputs.end(),
            [](const OutputBit* a, const OutputBit* b) { return a->name < b->name; });
  h.u64(outputs.size());
  for (const OutputBit* o : outputs) h.str(o->name).i32(o->gate);
  return h.finish();
}

}  // namespace warp::synth
