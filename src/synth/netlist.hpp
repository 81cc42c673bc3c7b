// Gate-level boolean network.
//
// ROCPART's synthesis lowers the decompiled dataflow graph to a gate
// netlist that the on-chip CAD flow (logic optimization -> technology
// mapping -> placement -> routing) implements on the WCLA's configurable
// fabric. The network is a DAG of 2-input AND/OR/XOR and inverters,
// hash-consed with constant propagation so trivially redundant logic never
// materializes — bit-level constant folding is what turns brev's shift/mask
// kernel into pure wires (paper, Section 4: "requiring only wires").
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace warp::synth {

enum class GateKind : std::uint8_t {
  kConst0, kConst1, kInput, kAnd, kOr, kXor, kNot, kBuf,
};

struct Gate {
  GateKind kind = GateKind::kConst0;
  int a = -1;
  int b = -1;
  bool operator==(const Gate&) const = default;
};

/// A named output bit of the network.
struct OutputBit {
  std::string name;
  int gate = -1;
};

class GateNetlist {
 public:
  GateNetlist();

  int const0() const { return 0; }
  int const1() const { return 1; }

  /// Create a primary input; `name` identifies the bus bit (e.g. "s0t1[7]").
  int add_input(std::string name);

  int gate_and(int a, int b);
  int gate_or(int a, int b);
  int gate_xor(int a, int b);
  int gate_not(int a);
  /// (c ? t : f) as (c&t) | (~c&f).
  int gate_mux(int c, int t, int f);

  void add_output(std::string name, int gate) { outputs_.push_back({std::move(name), gate}); }

  const std::vector<Gate>& gates() const { return gates_; }
  const Gate& gate(int id) const { return gates_[static_cast<std::size_t>(id)]; }
  const std::vector<OutputBit>& outputs() const { return outputs_; }
  const std::vector<int>& inputs() const { return input_ids_; }
  const std::string& input_name(int id) const;

  std::size_t size() const { return gates_.size(); }
  /// Number of AND/OR/XOR/NOT gates (excludes inputs/constants/buffers).
  std::size_t logic_gate_count() const;
  /// Gates reachable from outputs (live logic).
  std::vector<bool> live_mask() const;
  std::size_t live_logic_gate_count() const;

  /// Longest input->output path counting AND/OR/XOR/NOT as one level.
  unsigned depth() const;

  /// Evaluate all gates given input values; returns value per gate id.
  std::vector<bool> evaluate(const std::unordered_map<int, bool>& input_values) const;
  /// Same reference evaluation with input_values[i] = value of inputs()[i] —
  /// the frame layout shared with techmap::LutNetlist::evaluate, so mapped
  /// and packed engines can be validated bit-exactly against the gate level.
  std::vector<bool> evaluate(const std::vector<bool>& input_values) const;

  std::string stats_string() const;

 private:
  struct GateHash {
    std::size_t operator()(const Gate& g) const {
      return (static_cast<std::size_t>(g.kind) * 1000003u +
              static_cast<std::size_t>(g.a + 1)) * 1000003u +
             static_cast<std::size_t>(g.b + 1);
    }
  };
  int intern(Gate g);

  std::vector<Gate> gates_;
  std::unordered_map<Gate, int, GateHash> index_;
  std::vector<int> input_ids_;
  std::vector<std::string> input_names_;  // parallel to input_ids_
  std::vector<OutputBit> outputs_;
};

/// Canonical content hash: gates in their deterministic hash-consed index
/// order, inputs with their names, outputs sorted by name (the output list
/// is a port *set*; its insertion order is not semantic). Independent of the
/// intern table's bucket layout and of allocation history.
common::Digest content_hash(const GateNetlist& net);

}  // namespace warp::synth
