#include "decompile/kernel_ir.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace warp::decompile {

const char* dfg_op_name(DfgOp op) {
  switch (op) {
    case DfgOp::kConst: return "const";
    case DfgOp::kLiveIn: return "livein";
    case DfgOp::kIv: return "iv";
    case DfgOp::kStreamIn: return "stream";
    case DfgOp::kAdd: return "add";
    case DfgOp::kSub: return "sub";
    case DfgOp::kMul: return "mul";
    case DfgOp::kAnd: return "and";
    case DfgOp::kOr: return "or";
    case DfgOp::kXor: return "xor";
    case DfgOp::kShl: return "shl";
    case DfgOp::kShrl: return "shrl";
    case DfgOp::kShra: return "shra";
    case DfgOp::kSext8: return "sext8";
    case DfgOp::kSext16: return "sext16";
    case DfgOp::kMux: return "mux";
    case DfgOp::kCmpEq: return "cmpeq";
    case DfgOp::kCmpNe: return "cmpne";
    case DfgOp::kCmpLt: return "cmplt";
    case DfgOp::kCmpLe: return "cmple";
    case DfgOp::kCmpGt: return "cmpgt";
    case DfgOp::kCmpGe: return "cmpge";
    case DfgOp::kCmpLtU: return "cmpltu";
    case DfgOp::kCmp3: return "cmp3";
    case DfgOp::kCmp3U: return "cmp3u";
  }
  return "?";
}

bool dfg_op_is_binary(DfgOp op) {
  switch (op) {
    case DfgOp::kAdd: case DfgOp::kSub: case DfgOp::kMul:
    case DfgOp::kAnd: case DfgOp::kOr: case DfgOp::kXor:
    case DfgOp::kCmpEq: case DfgOp::kCmpNe: case DfgOp::kCmpLt:
    case DfgOp::kCmpLe: case DfgOp::kCmpGt: case DfgOp::kCmpGe:
    case DfgOp::kCmpLtU: case DfgOp::kCmp3: case DfgOp::kCmp3U:
      return true;
    default:
      return false;
  }
}

bool dfg_op_is_compare(DfgOp op) {
  switch (op) {
    case DfgOp::kCmpEq: case DfgOp::kCmpNe: case DfgOp::kCmpLt:
    case DfgOp::kCmpLe: case DfgOp::kCmpGt: case DfgOp::kCmpGe:
    case DfgOp::kCmpLtU:
      return true;
    default:
      return false;
  }
}

namespace {

std::uint32_t fold_binary(DfgOp op, std::uint32_t a, std::uint32_t b) {
  const std::int32_t sa = static_cast<std::int32_t>(a);
  const std::int32_t sb = static_cast<std::int32_t>(b);
  switch (op) {
    case DfgOp::kAdd: return a + b;
    case DfgOp::kSub: return a - b;
    case DfgOp::kMul: return a * b;
    case DfgOp::kAnd: return a & b;
    case DfgOp::kOr: return a | b;
    case DfgOp::kXor: return a ^ b;
    case DfgOp::kCmpEq: return a == b;
    case DfgOp::kCmpNe: return a != b;
    case DfgOp::kCmpLt: return sa < sb;
    case DfgOp::kCmpLe: return sa <= sb;
    case DfgOp::kCmpGt: return sa > sb;
    case DfgOp::kCmpGe: return sa >= sb;
    case DfgOp::kCmpLtU: return a < b;
    case DfgOp::kCmp3:
      return (sa < sb) ? static_cast<std::uint32_t>(-1) : (sa == sb ? 0u : 1u);
    case DfgOp::kCmp3U:
      return (a < b) ? static_cast<std::uint32_t>(-1) : (a == b ? 0u : 1u);
    default: throw common::InternalError("fold_binary: not a binary op");
  }
}

bool is_commutative(DfgOp op) {
  switch (op) {
    case DfgOp::kAdd: case DfgOp::kMul: case DfgOp::kAnd:
    case DfgOp::kOr: case DfgOp::kXor:
      return true;
    default:
      return false;
  }
}

}  // namespace

int Dfg::intern(const DfgNode& n) {
  const auto it = index_.find(n);
  if (it != index_.end()) return it->second;
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(n);
  index_.emplace(n, id);
  return id;
}

int Dfg::add(DfgOp op, int a, int b, int c, std::uint32_t value) {
  // Canonicalize commutative operand order for better CSE.
  if (dfg_op_is_binary(op) && is_commutative(op) && a > b) std::swap(a, b);

  // Constant folding.
  if (dfg_op_is_binary(op) && is_const(a) && is_const(b)) {
    return add_const(fold_binary(op, const_value(a), const_value(b)));
  }
  switch (op) {
    case DfgOp::kShl:
      if (is_const(a)) return add_const(const_value(a) << (value & 31));
      if ((value & 31) == 0) return a;
      break;
    case DfgOp::kShrl:
      if (is_const(a)) return add_const(const_value(a) >> (value & 31));
      if ((value & 31) == 0) return a;
      break;
    case DfgOp::kShra:
      if (is_const(a)) {
        return add_const(
            static_cast<std::uint32_t>(static_cast<std::int32_t>(const_value(a)) >>
                                       (value & 31)));
      }
      if ((value & 31) == 0) return a;
      break;
    case DfgOp::kSext8:
      if (is_const(a)) {
        return add_const(static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(const_value(a)))));
      }
      break;
    case DfgOp::kSext16:
      if (is_const(a)) {
        return add_const(static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int16_t>(const_value(a)))));
      }
      break;
    case DfgOp::kMux:
      if (is_const(a)) return const_value(a) ? b : c;
      if (b == c) return b;
      break;
    default:
      break;
  }

  // Algebraic identities with one constant operand.
  if (dfg_op_is_binary(op)) {
    const bool bc = is_const(b);
    const std::uint32_t vb = bc ? const_value(b) : 0;
    const bool ac = is_const(a);
    const std::uint32_t va = ac ? const_value(a) : 0;
    switch (op) {
      case DfgOp::kAdd:
        if (ac && va == 0) return b;
        if (bc && vb == 0) return a;
        break;
      case DfgOp::kSub:
        if (bc && vb == 0) return a;
        if (a == b) return add_const(0);
        break;
      case DfgOp::kMul:
        if (ac && va == 0) return add_const(0);
        if (bc && vb == 0) return add_const(0);
        if (ac && va == 1) return b;
        if (bc && vb == 1) return a;
        break;
      case DfgOp::kAnd:
        if ((ac && va == 0) || (bc && vb == 0)) return add_const(0);
        if (ac && va == ~0u) return b;
        if (bc && vb == ~0u) return a;
        if (a == b) return a;
        break;
      case DfgOp::kOr:
        if (ac && va == 0) return b;
        if (bc && vb == 0) return a;
        if ((ac && va == ~0u) || (bc && vb == ~0u)) return add_const(~0u);
        if (a == b) return a;
        break;
      case DfgOp::kXor:
        if (ac && va == 0) return b;
        if (bc && vb == 0) return a;
        if (a == b) return add_const(0);
        break;
      default:
        break;
    }
  }

  DfgNode n;
  n.op = op;
  n.a = a;
  n.b = b;
  n.c = c;
  n.value = value;
  return intern(n);
}

unsigned Dfg::variable_mul_count() const {
  unsigned count = 0;
  for (const auto& n : nodes_) {
    if (n.op == DfgOp::kMul && nodes_[n.a].op != DfgOp::kConst &&
        nodes_[n.b].op != DfgOp::kConst) {
      ++count;
    }
  }
  return count;
}

std::uint32_t Dfg::eval(int id, const Inputs& inputs) const {
  // Evaluate only the cone of `id`: the graph also holds per-register
  // symbols the query may not reference (and whose inputs the caller need
  // not provide).
  std::vector<bool> needed(nodes_.size(), false);
  {
    std::vector<int> stack{id};
    while (!stack.empty()) {
      const int n = stack.back();
      stack.pop_back();
      if (n < 0 || needed[static_cast<std::size_t>(n)]) continue;
      needed[static_cast<std::size_t>(n)] = true;
      stack.push_back(nodes_[static_cast<std::size_t>(n)].a);
      stack.push_back(nodes_[static_cast<std::size_t>(n)].b);
      stack.push_back(nodes_[static_cast<std::size_t>(n)].c);
    }
  }
  std::vector<std::uint32_t> values(nodes_.size(), 0);
  for (std::size_t i = 0; i <= static_cast<std::size_t>(id); ++i) {
    if (!needed[i]) continue;
    const DfgNode& n = nodes_[i];
    std::uint32_t v = 0;
    switch (n.op) {
      case DfgOp::kConst: v = n.value; break;
      case DfgOp::kLiveIn: {
        const auto it = inputs.live_in.find(n.value);
        if (it == inputs.live_in.end()) throw common::InternalError("eval: missing live-in");
        v = it->second;
        break;
      }
      case DfgOp::kIv: {
        const auto it = inputs.iv.find(n.value);
        if (it == inputs.iv.end()) throw common::InternalError("eval: missing iv");
        v = it->second;
        break;
      }
      case DfgOp::kStreamIn: {
        const auto it = inputs.stream_in.find(n.value);
        if (it == inputs.stream_in.end()) throw common::InternalError("eval: missing stream");
        v = it->second;
        break;
      }
      case DfgOp::kShl: v = values[n.a] << (n.value & 31); break;
      case DfgOp::kShrl: v = values[n.a] >> (n.value & 31); break;
      case DfgOp::kShra:
        v = static_cast<std::uint32_t>(static_cast<std::int32_t>(values[n.a]) >> (n.value & 31));
        break;
      case DfgOp::kSext8:
        v = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(values[n.a])));
        break;
      case DfgOp::kSext16:
        v = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int16_t>(values[n.a])));
        break;
      case DfgOp::kMux: v = values[n.a] ? values[n.b] : values[n.c]; break;
      default: v = fold_binary(n.op, values[n.a], values[n.b]); break;
    }
    values[i] = v;
  }
  return values[static_cast<std::size_t>(id)];
}

std::string Dfg::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const DfgNode& n = nodes_[i];
    os << common::format("  n%zu = %s", i, dfg_op_name(n.op));
    switch (n.op) {
      case DfgOp::kConst: os << common::format(" 0x%x", n.value); break;
      case DfgOp::kLiveIn: case DfgOp::kIv: os << common::format(" r%u", n.value); break;
      case DfgOp::kStreamIn:
        os << common::format(" s%u[%u]", n.value >> 16, n.value & 0xFFFF);
        break;
      case DfgOp::kShl: case DfgOp::kShrl: case DfgOp::kShra:
        os << common::format(" n%d, %u", n.a, n.value);
        break;
      case DfgOp::kSext8: case DfgOp::kSext16: os << common::format(" n%d", n.a); break;
      case DfgOp::kMux: os << common::format(" n%d ? n%d : n%d", n.a, n.b, n.c); break;
      default: os << common::format(" n%d, n%d", n.a, n.b); break;
    }
    os << '\n';
  }
  return os.str();
}

std::string KernelIR::to_string() const {
  std::ostringstream os;
  os << common::format("kernel region [0x%x, 0x%x] exit 0x%x\n", header_pc, branch_pc, exit_pc);
  os << "trip: ";
  switch (trip.kind) {
    case TripCount::Kind::kConstant:
      os << common::format("constant %lld", static_cast<long long>(trip.constant));
      break;
    case TripCount::Kind::kDownToZero:
      os << common::format("r%u / %d down to zero", trip.reg, trip.step);
      break;
    case TripCount::Kind::kBoundedUp:
      if (trip.bound_is_const) {
        os << common::format("r%u up by %d to %d", trip.reg, trip.step, trip.bound_const);
      } else {
        os << common::format("r%u up by %d to r%u", trip.reg, trip.step, trip.bound_reg);
      }
      break;
  }
  os << '\n';
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const Stream& s = streams[i];
    os << common::format("stream %zu: %s base=", i, s.is_write ? "write" : "read");
    for (const auto& term : s.base_terms) {
      os << common::format("%d*r%u+", term.coeff, term.reg);
    }
    os << common::format("%d elem=%u stride=%d burst=%u tapstride=%d\n", s.base_offset,
                         s.elem_bytes, s.stride_bytes, s.burst, s.tap_stride_bytes);
  }
  for (const auto& w : writes) {
    os << common::format("write s%u[%u] <- n%d\n", w.stream, w.tap, w.node);
  }
  for (const auto& acc : accumulators) {
    os << common::format("acc r%u %s= n%d (init from r%u)\n", acc.reg, dfg_op_name(acc.op),
                         acc.node, acc.init_from_reg);
  }
  for (const auto& f : iv_finals) {
    os << common::format("iv-final r%u step %d\n", f.reg, f.step);
  }
  os << "dfg:\n" << dfg.to_string();
  return os.str();
}

common::Digest content_hash(const KernelIR& ir) {
  common::Hasher h;
  h.u64(ir.dfg.size());
  for (const DfgNode& n : ir.dfg.nodes()) {
    h.u32(static_cast<std::uint32_t>(n.op)).i32(n.a).i32(n.b).i32(n.c).u32(n.value);
  }
  h.u64(ir.streams.size());
  for (const Stream& s : ir.streams) {
    h.u64(s.base_terms.size());
    for (const StreamBaseTerm& t : s.base_terms) h.u32(t.reg).i32(t.coeff);
    h.i32(s.base_offset).u32(s.elem_bytes).i32(s.stride_bytes).u32(s.burst);
    h.i32(s.tap_stride_bytes).boolean(s.is_write);
  }
  h.u64(ir.writes.size());
  for (const StreamWrite& w : ir.writes) h.u32(w.stream).u32(w.tap).i32(w.node);
  h.u64(ir.accumulators.size());
  for (const Accumulator& a : ir.accumulators) {
    h.u32(a.reg).u32(static_cast<std::uint32_t>(a.op)).i32(a.node).u32(a.init_from_reg);
  }
  h.u64(ir.iv_finals.size());
  for (const IvFinal& f : ir.iv_finals) h.u32(f.reg).i32(f.step);
  h.u64(ir.live_in_regs.size());
  for (const std::uint8_t r : ir.live_in_regs) h.u32(r);
  h.u64(ir.iv_regs.size());
  for (const auto& [reg, step] : ir.iv_regs) h.u32(reg).i32(step);
  h.u32(static_cast<std::uint32_t>(ir.trip.kind)).u32(ir.trip.reg).i32(ir.trip.step);
  h.i64(ir.trip.constant).boolean(ir.trip.bound_is_const).u32(ir.trip.bound_reg);
  h.i32(ir.trip.bound_const);
  h.u32(ir.header_pc).u32(ir.branch_pc).u32(ir.exit_pc).u64(ir.sw_cycles_per_iter);
  return h.finish();
}

}  // namespace warp::decompile
