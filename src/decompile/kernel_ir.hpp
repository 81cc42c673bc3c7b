// Kernel intermediate representation produced by the decompiler.
//
// ROCPART decompiles a hot binary loop into a control/data-flow graph
// (paper, Section 3). Our KernelIR captures exactly what the WCLA (Figure 3)
// can execute:
//   - up to kMaxStreams memory streams handled by the data address
//     generator (DADG): each stream walks an array with a constant byte
//     stride and reads/writes `burst` consecutive elements per iteration;
//   - a loop-control-hardware (LCH) trip count computable by the software
//     stub from live-in registers;
//   - a pure dataflow graph (Dfg) per iteration over stream elements,
//     latched live-in registers, induction-variable values and constants;
//   - accumulator registers (reductions such as `sum += ...`) read back by
//     software when the hardware finishes;
//   - induction-variable finals reconstructed in software as
//     init + step * trip.
//
// The Dfg is hash-consed (structural CSE) and constant-folds on
// construction — the first, cheapest of ROCPART's optimizations.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"

namespace warp::decompile {

inline constexpr unsigned kMaxStreams = 3;   // WCLA: Reg0..Reg2 address generators
inline constexpr unsigned kMaxBurst = 8;     // DADG burst taps per stream
inline constexpr unsigned kMaxAccumulators = 4;

enum class DfgOp : std::uint8_t {
  kConst,     // value = constant
  kLiveIn,    // value = register number (latched at kernel start)
  kIv,        // value = register number (induction value at iteration start)
  kStreamIn,  // value = (stream_id << 16) | tap
  kAdd, kSub, kMul,
  kAnd, kOr, kXor,
  kShl, kShrl, kShra,  // a = source, value = shift amount (0..31)
  kSext8, kSext16,
  kMux,                // a = cond (0/1), b = then, c = else
  kCmpEq, kCmpNe,      // a ? b -> 0/1
  kCmpLt, kCmpLe, kCmpGt, kCmpGe,   // signed
  kCmpLtU,
  kCmp3,               // MicroBlaze cmp: (a<b) ? -1 : (a==b ? 0 : 1), signed
  kCmp3U,              // unsigned variant
};

const char* dfg_op_name(DfgOp op);
bool dfg_op_is_binary(DfgOp op);
bool dfg_op_is_compare(DfgOp op);

struct DfgNode {
  DfgOp op = DfgOp::kConst;
  int a = -1;
  int b = -1;
  int c = -1;
  std::uint32_t value = 0;

  bool operator==(const DfgNode&) const = default;
};

/// Hash-consed dataflow graph with constant folding and algebraic
/// simplification performed in add().
class Dfg {
 public:
  int add(DfgOp op, int a = -1, int b = -1, int c = -1, std::uint32_t value = 0);

  int add_const(std::uint32_t value) { return add(DfgOp::kConst, -1, -1, -1, value); }
  int add_live_in(unsigned reg) { return add(DfgOp::kLiveIn, -1, -1, -1, reg); }
  int add_iv(unsigned reg) { return add(DfgOp::kIv, -1, -1, -1, reg); }
  int add_stream_in(unsigned stream, unsigned tap) {
    return add(DfgOp::kStreamIn, -1, -1, -1, (stream << 16) | tap);
  }

  const DfgNode& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  std::size_t size() const { return nodes_.size(); }
  const std::vector<DfgNode>& nodes() const { return nodes_; }

  bool is_const(int id) const { return node(id).op == DfgOp::kConst; }
  std::uint32_t const_value(int id) const { return node(id).value; }

  /// Number of kMul nodes whose both operands are non-constant (these must
  /// go through the WCLA's 32-bit MAC).
  unsigned variable_mul_count() const;

  /// Evaluate node `id` given input valuations (for equivalence testing and
  /// the hardware simulator's golden model).
  struct Inputs {
    std::unordered_map<std::uint32_t, std::uint32_t> live_in;    // reg -> value
    std::unordered_map<std::uint32_t, std::uint32_t> iv;         // reg -> value
    std::unordered_map<std::uint32_t, std::uint32_t> stream_in;  // (stream<<16)|tap -> value
  };
  std::uint32_t eval(int id, const Inputs& inputs) const;

  std::string to_string() const;

 private:
  struct NodeHash {
    std::size_t operator()(const DfgNode& n) const {
      std::size_t h = static_cast<std::size_t>(n.op);
      h = h * 1000003u + static_cast<std::size_t>(n.a + 1);
      h = h * 1000003u + static_cast<std::size_t>(n.b + 1);
      h = h * 1000003u + static_cast<std::size_t>(n.c + 1);
      h = h * 1000003u + n.value;
      return h;
    }
  };
  int intern(const DfgNode& n);

  std::vector<DfgNode> nodes_;
  std::unordered_map<DfgNode, int, NodeHash> index_;
};

/// One affine term of a stream base address: coeff * (value of reg at loop
/// entry). Coefficients are powers of two so the software stub can compute
/// the base with shifts and adds.
struct StreamBaseTerm {
  std::uint8_t reg = 0;
  std::int32_t coeff = 1;
};

/// A DADG memory stream: per iteration it accesses `burst` elements at
///   addr(tap) = base + iteration * stride + tap * tap_stride.
/// tap_stride == elem_bytes is the common consecutive-burst case; larger
/// uniform spacings express 2-D patterns (e.g. writing a row transposed).
struct Stream {
  std::vector<StreamBaseTerm> base_terms;  // start address = Σ coeff*reg + offset
  std::int32_t base_offset = 0;            // constant byte offset
  std::uint8_t elem_bytes = 4;             // 1, 2 or 4
  std::int32_t stride_bytes = 0;           // address advance per loop iteration
  std::uint8_t burst = 1;                  // elements touched per iteration
  std::int32_t tap_stride_bytes = 4;       // spacing between taps
  bool is_write = false;
};

/// How the software stub computes the LCH trip count.
struct TripCount {
  enum class Kind : std::uint8_t {
    kConstant,    // trip = constant
    kDownToZero,  // `r -= step; branch while r != 0`: trip = init(r) / step
    kBoundedUp,   // `r += step; branch while r < bound`: trip = ceil((bound - init)/step)
  };
  Kind kind = Kind::kConstant;
  std::uint8_t reg = 0;         // the controlling induction register
  std::int32_t step = 1;        // positive magnitude
  std::int64_t constant = 0;    // for kConstant
  bool bound_is_const = false;  // for kBoundedUp
  std::uint8_t bound_reg = 0;
  std::int32_t bound_const = 0;
};

/// A reduction register: hardware keeps `acc = acc <op> f(iteration)` and
/// software reads the final value back.
struct Accumulator {
  std::uint8_t reg = 0;  // destination register in software
  DfgOp op = DfgOp::kAdd;  // kAdd, kOr, kXor, kAnd
  int node = -1;           // per-iteration contribution
  std::uint32_t init_from_reg = 0;  // initial value comes from this live-in reg
};

/// An induction variable whose final value software reconstructs.
struct IvFinal {
  std::uint8_t reg = 0;
  std::int32_t step = 0;  // signed per-iteration step; final = init + step*trip
};

struct StreamWrite {
  std::uint8_t stream = 0;
  std::uint8_t tap = 0;
  int node = -1;
};

struct KernelIR {
  Dfg dfg;
  std::vector<Stream> streams;
  std::vector<StreamWrite> writes;
  std::vector<Accumulator> accumulators;
  std::vector<IvFinal> iv_finals;
  std::vector<std::uint8_t> live_in_regs;  // registers latched as constants
  std::vector<std::pair<std::uint8_t, std::int32_t>> iv_regs;  // (reg, step)
  TripCount trip;

  // Region geometry (byte addresses in the binary).
  std::uint32_t header_pc = 0;
  std::uint32_t branch_pc = 0;
  std::uint32_t exit_pc = 0;

  // Static software-cost estimate for the DPM's partitioning decision.
  std::uint64_t sw_cycles_per_iter = 0;

  std::string to_string() const;
};

/// Canonical content hash of a decompiled kernel: a pure function of the
/// IR's semantic fields (Dfg nodes in their deterministic hash-consed index
/// order, streams, writes, accumulators, trip form, region pcs). Equal IRs
/// hash equal regardless of how or when they were extracted — the partition
/// pipeline keys its synthesis-stage cache on this.
common::Digest content_hash(const KernelIR& ir);

}  // namespace warp::decompile
