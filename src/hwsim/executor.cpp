#include "hwsim/executor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/bitutil.hpp"
#include "common/strings.hpp"

namespace warp::hwsim {

using synth::HwKernel;
using techmap::NetRef;
using techmap::PortSpec;

namespace {

/// Stage of a MAC result that is not staged yet. It dominates every max(),
/// so whatever reads it stays unstaged.
constexpr unsigned kUnstaged = ~0u;
/// Stage of a LUT that stage_macs() has not reached yet.
constexpr unsigned kUnknown = kUnstaged - 1;

unsigned ref_stage(const NetRef& ref, const std::vector<unsigned>& lut_stage,
                   const std::vector<unsigned>& input_stage) {
  const auto index = static_cast<std::size_t>(ref.index);
  switch (ref.kind) {
    case NetRef::Kind::kPrimaryInput:
      if (index < input_stage.size()) return input_stage[index];
      break;
    case NetRef::Kind::kLut:
      if (index < lut_stage.size()) return lut_stage[index];
      break;
    default:
      return 0;  // constants
  }
  throw common::InternalError(common::format("executor: net reference %d out of range",
                                             ref.index));
}

/// Index of `reg` in ir.live_in_regs, the order the stub latches CONST[k]
/// in (-1 when the register is not latched).
int live_in_slot(const decompile::KernelIR& ir, unsigned reg) {
  const auto it = std::find(ir.live_in_regs.begin(), ir.live_in_regs.end(), reg);
  return it == ir.live_in_regs.end() ? -1
                                     : static_cast<int>(it - ir.live_in_regs.begin());
}

/// True when `invocation` carries one value per stream, live-in and
/// accumulator of `ir`.
bool well_formed(const decompile::KernelIR& ir, const KernelInvocation& invocation) {
  return invocation.stream_bases.size() == ir.streams.size() &&
         invocation.live_in.size() == ir.live_in_regs.size() &&
         invocation.acc_init.size() == ir.accumulators.size();
}

std::uint32_t slot_value(const KernelInvocation& invocation, int slot) {
  return slot < 0 ? 0 : invocation.live_in[static_cast<std::size_t>(slot)];
}

std::uint32_t load(const sim::Memory& memory, std::uint32_t addr, unsigned elem_bytes) {
  switch (elem_bytes) {
    case 1: return memory.read8(addr);
    case 2: return memory.read16(addr);
    default: return memory.read32(addr);
  }
}

void store(sim::Memory& memory, std::uint32_t addr, unsigned elem_bytes, std::uint32_t value) {
  switch (elem_bytes) {
    case 1: memory.write8(addr, static_cast<std::uint8_t>(value)); break;
    case 2: memory.write16(addr, static_cast<std::uint16_t>(value)); break;
    default: memory.write32(addr, value); break;
  }
}

/// Byte address of tap `tap` of `stream` in iteration `iter` (mod 2^32).
std::uint32_t tap_addr(const decompile::Stream& stream, std::uint32_t base, std::uint64_t iter,
                       unsigned tap) {
  return base +
         static_cast<std::uint32_t>(static_cast<std::int64_t>(stream.stride_bytes) *
                                    static_cast<std::int64_t>(iter)) +
         tap * static_cast<std::uint32_t>(stream.tap_stride_bytes);
}

/// Sets lanes [lane0, lane0 + lanes) in a block of lane words.
void set_lane_range(std::uint64_t* words, unsigned lane0, unsigned lanes) {
  for (unsigned lane = lane0, end = lane0 + lanes; lane < end;) {
    const unsigned bit = lane % kPackedWordBits;
    const unsigned n = std::min(end - lane, kPackedWordBits - bit);
    words[lane / kPackedWordBits] |= (n == kPackedWordBits ? ~0ull : ((1ull << n) - 1)) << bit;
    lane += n;
  }
}

}  // namespace

const char* scalar_reason_name(ScalarReason reason) {
  switch (reason) {
    case ScalarReason::kNone: return "none";
    case ScalarReason::kMacHeldState: return "mac-held state";
    case ScalarReason::kMacOperandInCone: return "mac operand in state cone";
    case ScalarReason::kStreamAlias: return "stream alias";
    case ScalarReason::kVerify: return "verify";
  }
  return "?";
}

KernelExecutor::KernelExecutor(const HwKernel& kernel, const fabric::FabricConfig& config,
                               PackedOptions packed)
    : kernel_(kernel), config_(config) {
  set_packed_options(packed);
  bind_ports();
}

void KernelExecutor::set_packed_options(PackedOptions packed) {
  if (packed.width != 0 && !PackedEvaluator::width_supported(packed.width)) {
    throw common::InternalError(
        common::format("executor: unsupported packed lane-block width %u", packed.width));
  }
  packed_options_ = packed;
}

void KernelExecutor::bind_ports() {
  const auto& netlist = config_.netlist;
  const auto& ir = kernel_.ir;

  // Flattened (stream, tap) index space for batched tap scratch buffers.
  tap_base_.resize(ir.streams.size());
  unsigned total_taps = 0;
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    tap_base_[s] = total_taps;
    total_taps += ir.streams[s].burst;
  }

  // Structured port descriptors carried on the mapped netlist (computed by
  // techmap); derive them locally for netlists built by hand.
  std::vector<PortSpec> input_ports = netlist.input_ports;
  std::vector<PortSpec> output_ports = netlist.output_ports;
  if (input_ports.size() != netlist.primary_inputs.size()) {
    input_ports.resize(netlist.primary_inputs.size());
    for (std::size_t i = 0; i < netlist.primary_inputs.size(); ++i) {
      input_ports[i] = techmap::parse_port_name(netlist.primary_inputs[i]);
    }
  }
  if (output_ports.size() != netlist.outputs.size()) {
    output_ports.resize(netlist.outputs.size());
    for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
      output_ports[i] = techmap::parse_port_name(netlist.outputs[i].name);
    }
  }

  input_bindings_.resize(netlist.primary_inputs.size());
  mac_result_inputs_.assign(kernel_.mac_ops.size(), {});
  for (std::size_t i = 0; i < netlist.primary_inputs.size(); ++i) {
    const PortSpec& spec = input_ports[i];
    InputBinding binding;
    binding.a = spec.a;
    binding.bit = spec.bit;
    switch (spec.kind) {
      case PortSpec::Kind::kStream:
        binding.kind = InputBinding::Kind::kStream;
        if (spec.a >= ir.streams.size() || spec.b >= ir.streams[spec.a].burst) {
          throw common::InternalError("executor: stream input out of range: " +
                                      netlist.primary_inputs[i]);
        }
        binding.tap_index = static_cast<int>(tap_base_[spec.a] + spec.b);
        break;
      case PortSpec::Kind::kLiveIn:
        binding.kind = InputBinding::Kind::kLiveIn;
        binding.slot = live_in_slot(ir, spec.a);
        break;
      case PortSpec::Kind::kIv:
        binding.kind = InputBinding::Kind::kIv;
        for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) {
          if (ir.iv_regs[p].first == spec.a) binding.iv_pos = static_cast<int>(p);
        }
        break;
      case PortSpec::Kind::kMacResult:
        binding.kind = InputBinding::Kind::kMacResult;
        if (spec.a >= mac_result_inputs_.size()) {
          throw common::InternalError("executor: MAC result input out of range: " +
                                      netlist.primary_inputs[i]);
        }
        mac_result_inputs_[spec.a].push_back(static_cast<std::uint32_t>(i));
        break;
      case PortSpec::Kind::kAccState:
        binding.kind = InputBinding::Kind::kAccState;
        if (spec.a >= ir.accumulators.size()) {
          throw common::InternalError("executor: accumulator state input out of range: " +
                                      netlist.primary_inputs[i]);
        }
        state_inputs_.push_back(static_cast<std::uint32_t>(i));
        break;
      default:
        throw common::InternalError("executor: unknown input port " +
                                    netlist.primary_inputs[i]);
    }
    input_bindings_[i] = binding;
  }

  // Output index tables: one bit-list per consumed word, so reading a word
  // is a gather over its own bits instead of an O(outputs) scan.
  write_ports_.assign(kernel_.write_outputs.size(), {});
  mac_a_ports_.assign(kernel_.mac_ops.size(), {});
  mac_b_ports_.assign(kernel_.mac_ops.size(), {});
  acc_next_groups_.assign(ir.accumulators.size(), {});
  for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
    const PortSpec& spec = output_ports[i];
    OutputBit ob;
    ob.bit = spec.bit;
    ob.output_index = static_cast<std::uint32_t>(i);
    switch (spec.kind) {
      case PortSpec::Kind::kWrite: {
        int w = -1;
        for (std::size_t k = 0; k < kernel_.write_outputs.size(); ++k) {
          if (kernel_.write_outputs[k].stream == spec.a &&
              kernel_.write_outputs[k].tap == spec.b) {
            w = static_cast<int>(k);
          }
        }
        if (w < 0) {
          throw common::InternalError("executor: write output without a kernel slot: " +
                                      netlist.outputs[i].name);
        }
        write_ports_[static_cast<std::size_t>(w)].bits.push_back(ob);
        break;
      }
      case PortSpec::Kind::kMacA:
        if (spec.a >= mac_a_ports_.size()) {
          throw common::InternalError("executor: MAC A output out of range");
        }
        mac_a_ports_[spec.a].bits.push_back(ob);
        break;
      case PortSpec::Kind::kMacB:
        if (spec.a >= mac_b_ports_.size()) {
          throw common::InternalError("executor: MAC B output out of range");
        }
        mac_b_ports_[spec.a].bits.push_back(ob);
        break;
      case PortSpec::Kind::kAccNext:
        if (spec.a >= acc_next_groups_.size()) {
          throw common::InternalError("executor: accumulator output out of range");
        }
        acc_next_groups_[spec.a].push_back(ob);
        break;
      default:
        throw common::InternalError("executor: unknown output port " +
                                    netlist.outputs[i].name);
    }
  }

  for (const auto& out : kernel_.acc_outputs) {
    if (!out.via_mac) fabric_accs_.push_back(FabricAcc{out.acc_index, 0, {}});
  }

  iv_step_.resize(ir.iv_regs.size());
  iv_slot_.resize(ir.iv_regs.size());
  for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) {
    iv_step_[p] = ir.iv_regs[p].second;
    iv_slot_[p] = live_in_slot(ir, ir.iv_regs[p].first);
  }
  envelopes_.resize(ir.streams.size());
  iv_planes_.resize(ir.iv_regs.size());
  write_words_.resize(kernel_.write_outputs.size());

  initiation_interval_ = kernel_.initiation_interval();
  fixed_cycles_ = std::uint64_t{config_.pipeline_stages()} + kStartupCycles;
  clock_mhz_ = config_.fabric_clock_mhz();

  scalar_reason_ = check_state_cone();
  state_cone_ = !state_inputs_.empty() && scalar_reason_ == ScalarReason::kNone;
  packed_.emplace(netlist, stage_macs());
  classify_ports();
}

void KernelExecutor::classify_ports() {
  const auto& netlist = config_.netlist;
  const auto& ir = kernel_.ir;
  port_classes_ = {};
  const auto source_of = [&](const OutputBit& ob) -> const InputBinding* {
    const NetRef& src = netlist.outputs[ob.output_index].source;
    const auto index = static_cast<std::size_t>(src.index);
    if (src.kind != NetRef::Kind::kPrimaryInput || index >= input_bindings_.size()) {
      return nullptr;
    }
    return &input_bindings_[index];
  };

  // Held state bits: next-state bit b of a fabric-held accumulator wired
  // straight to bit b of its own state input. Every other next-state bit
  // changes, and is read back from the fabric.
  for (FabricAcc& f : fabric_accs_) {
    for (const OutputBit& ob : acc_next_groups_[f.index]) {
      const InputBinding* in = source_of(ob);
      if (in != nullptr && in->kind == InputBinding::Kind::kAccState && in->a == f.index &&
          in->bit == ob.bit && ob.bit < 32) {
        f.held |= 1u << ob.bit;
      } else {
        f.changing.push_back(ob);
      }
    }
    port_classes_.held_state_bits += static_cast<unsigned>(std::popcount(f.held));
  }

  // The consumed words: every write value, the operands of every
  // accumulating MAC, and those of every MAC whose product the fabric reads.
  std::vector<WordPort*> words;
  for (WordPort& port : write_ports_) words.push_back(&port);
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    const bool accumulate = kernel_.mac_ops[m].accumulate;
    if (!accumulate && mac_result_inputs_[m].empty()) continue;  // unread products
    if (!accumulate) fed_macs_.push_back(m);
    words.push_back(&mac_a_ports_[m]);
    words.push_back(&mac_b_ports_[m]);
  }
  port_classes_.mac_feeds = static_cast<unsigned>(fed_macs_.size());

  // A word's kind: constant bits, plus at most one source whose bit b
  // feeds word bit b; any other source makes it a computed word.
  for (WordPort* port : words) {
    using Kind = WordPort::Kind;
    port->kind = Kind::kConstant;
    for (const OutputBit& ob : port->bits) {
      const NetRef::Kind src = netlist.outputs[ob.output_index].source.kind;
      if (ob.bit >= 32) {
        port->kind = Kind::kComputed;
        break;
      }
      if (src == NetRef::Kind::kConst0) continue;
      if (src == NetRef::Kind::kConst1) {
        port->ones |= 1u << ob.bit;
        continue;
      }
      const InputBinding* in = source_of(ob);
      Kind kind = Kind::kComputed;
      int source = -1;
      if (in != nullptr && in->bit == ob.bit) {
        if (in->kind == InputBinding::Kind::kStream) {
          kind = Kind::kTap;
          source = in->tap_index;
        } else if (in->kind == InputBinding::Kind::kLiveIn) {
          kind = Kind::kLiveIn;
          source = in->slot;
        }
      }
      if (kind == Kind::kComputed ||
          (port->mask != 0 && (kind != port->kind || source != port->source))) {
        port->kind = Kind::kComputed;
        break;
      }
      port->kind = kind;
      port->source = source;
      port->mask |= 1u << ob.bit;
    }
    switch (port->kind) {
      case Kind::kConstant: ++port_classes_.constant_words; break;
      case Kind::kTap: ++port_classes_.tap_words; break;
      case Kind::kLiveIn: ++port_classes_.live_in_words; break;
      case Kind::kComputed: ++port_classes_.computed_words; break;
    }
  }

  // The fabric inputs something reads from the planes: LUT fanins, and
  // the sources of computed words and of changing next-state bits.
  std::vector<bool> read(input_bindings_.size(), false);
  const auto mark = [&](const NetRef& ref) {
    const auto index = static_cast<std::size_t>(ref.index);
    if (ref.kind == NetRef::Kind::kPrimaryInput && index < read.size()) read[index] = true;
  };
  for (const auto& lut : netlist.luts) {
    for (unsigned k = 0; k < lut.num_inputs; ++k) mark(lut.inputs[k]);
  }
  for (const WordPort* port : words) {
    if (port->kind != WordPort::Kind::kComputed) continue;
    for (const OutputBit& ob : port->bits) mark(netlist.outputs[ob.output_index].source);
  }
  for (const FabricAcc& f : fabric_accs_) {
    for (const OutputBit& ob : f.changing) mark(netlist.outputs[ob.output_index].source);
  }

  // Planes: a read tap is transposed in place, or in a row of its own when
  // tap words read its loaded words too.
  std::size_t taps = 0;
  for (const auto& stream : ir.streams) taps += stream.burst;
  std::vector<bool> tap_word_read(taps, false);
  for (const WordPort* port : words) {
    if (port->kind == WordPort::Kind::kTap) {
      tap_word_read[static_cast<std::size_t>(port->source)] = true;
    }
  }
  tap_plane_.assign(taps, -1);
  std::size_t rows = taps;
  std::vector<bool> iv_read(ir.iv_regs.size(), false);
  for (std::size_t i = 0; i < input_bindings_.size(); ++i) {
    if (!read[i]) continue;
    const InputBinding& binding = input_bindings_[i];
    if (binding.kind == InputBinding::Kind::kStream) {
      const auto f = static_cast<std::size_t>(binding.tap_index);
      if (tap_plane_[f] < 0) tap_plane_[f] = static_cast<int>(tap_word_read[f] ? rows++ : f);
    } else if (binding.kind == InputBinding::Kind::kIv && binding.iv_pos >= 0) {
      iv_read[static_cast<std::size_t>(binding.iv_pos)] = true;
    }
  }
  block_taps_.resize(rows);
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    if (ir.streams[s].is_write) continue;
    for (unsigned t = 0; t < ir.streams[s].burst; ++t) {
      if (tap_plane_[tap_base_[s] + t] >= 0) ++port_classes_.plane_taps;
    }
  }
  for (std::size_t p = 0; p < iv_read.size(); ++p) {
    if (iv_read[p]) iv_used_.push_back(static_cast<unsigned>(p));
  }
  port_classes_.iv_planes = static_cast<unsigned>(iv_used_.size());

  // Wiring: a state input of a held bit is set once per block (its value
  // cannot change within one); the cone sets the others lane by lane. A
  // kernel without a cone sets every state input at block start.
  for (std::size_t i = 0; i < input_bindings_.size(); ++i) {
    if (!read[i]) continue;
    const InputBinding& binding = input_bindings_[i];
    bool per_lane = false;
    if (binding.kind == InputBinding::Kind::kAccState && state_cone_) {
      const auto f = std::find_if(fabric_accs_.begin(), fabric_accs_.end(),
                                  [&](const FabricAcc& acc) { return acc.index == binding.a; });
      per_lane = f == fabric_accs_.end() || binding.bit >= 32 || !((f->held >> binding.bit) & 1u);
    }
    (per_lane ? lane_state_inputs_ : block_inputs_).push_back(static_cast<std::uint32_t>(i));
  }
}

ScalarReason KernelExecutor::check_state_cone() const {
  if (state_inputs_.empty()) return ScalarReason::kNone;
  // A MAC-held accumulator's state changes with every product, outside the
  // fabric.
  std::vector<bool> is_state(input_bindings_.size(), false);
  for (const std::uint32_t i : state_inputs_) {
    if (std::none_of(fabric_accs_.begin(), fabric_accs_.end(),
                     [&](const FabricAcc& f) { return f.index == input_bindings_[i].a; })) {
      return ScalarReason::kMacHeldState;
    }
    is_state[i] = true;
  }
  // The cone: every LUT that reads a state input or a cone LUT. It becomes
  // the plan's final stage, which has no MAC after it.
  const auto& luts = config_.netlist.luts;
  std::vector<bool> in_cone(luts.size(), false);
  const auto reads_state = [&](const NetRef& ref) {
    const auto index = static_cast<std::size_t>(ref.index);
    switch (ref.kind) {
      case NetRef::Kind::kPrimaryInput: return index < is_state.size() && is_state[index];
      case NetRef::Kind::kLut: return index < in_cone.size() && in_cone[index];
      default: return false;
    }
  };
  for (std::size_t i = 0; i < luts.size(); ++i) {
    for (unsigned k = 0; k < luts[i].num_inputs && !in_cone[i]; ++k) {
      in_cone[i] = reads_state(luts[i].inputs[k]);
    }
  }
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    for (const WordPort* port : {&mac_a_ports_[m], &mac_b_ports_[m]}) {
      for (const OutputBit& ob : port->bits) {
        if (reads_state(config_.netlist.outputs[ob.output_index].source)) {
          return ScalarReason::kMacOperandInCone;
        }
      }
    }
  }
  return ScalarReason::kNone;
}

std::vector<unsigned> KernelExecutor::stage_macs() {
  // MAC m's operands are read after the results of MACs 0..m-1 are in, so
  // the plan splits at the MACs: operands that are ready after stage s give
  // a product that enters as a stage s+1 input. MACs are staged in op order
  // (synthesis emits them in dataflow order), so an operand still reading an
  // unstaged result reads its own or a later MAC's, which an in-order MAC
  // sequence would see before it is set.
  const auto& netlist = config_.netlist;
  const auto& luts = netlist.luts;
  std::vector<unsigned> input_stage(input_bindings_.size(), 0);
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    if (kernel_.mac_ops[m].accumulate) continue;  // its result stays 0 in the fabric
    for (const std::uint32_t i : mac_result_inputs_[m]) input_stage[i] = kUnstaged;
  }

  // One pass over the LUTs: a LUT's stage is computed the first time a MAC
  // operand's fanin cone reaches it, depth first, and kept. A kept stage is
  // final, because a LUT reading an unstaged result is unstaged itself and
  // the MAC whose operand reaches it throws.
  std::vector<unsigned> lut_stage(luts.size(), kUnknown);
  std::vector<std::size_t> pending;
  const auto stage_of = [&](const NetRef& ref) {
    if (ref.kind == NetRef::Kind::kLut && ref.index >= 0 &&
        static_cast<std::size_t>(ref.index) < luts.size()) {
      pending.push_back(static_cast<std::size_t>(ref.index));
    }
    while (!pending.empty()) {
      const std::size_t i = pending.back();
      if (lut_stage[i] != kUnknown) {
        pending.pop_back();
        continue;
      }
      unsigned stage = 0;
      for (unsigned k = 0; k < luts[i].num_inputs; ++k) {
        const NetRef& in = luts[i].inputs[k];
        const auto j = static_cast<std::size_t>(in.index);
        if (in.kind == NetRef::Kind::kLut && in.index >= 0 && j < luts.size()) {
          if (j >= i) {
            throw common::InternalError(common::format(
                "executor: LUT array is not topologically ordered (LUT %zu reads LUT %zu)", i,
                j));
          }
          if (lut_stage[j] == kUnknown) {
            pending.push_back(j);
            continue;
          }
        }
        stage = std::max(stage, ref_stage(in, lut_stage, input_stage));
      }
      if (pending.back() == i) {  // every fanin was ready
        lut_stage[i] = stage;
        pending.pop_back();
      }
    }
    return ref_stage(ref, lut_stage, input_stage);
  };

  mac_stage_.assign(kernel_.mac_ops.size(), 0);
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    unsigned stage = 0;
    for (const WordPort* port : {&mac_a_ports_[m], &mac_b_ports_[m]}) {
      for (const OutputBit& ob : port->bits) {
        stage = std::max(stage, stage_of(netlist.outputs[ob.output_index].source));
      }
    }
    if (stage == kUnstaged) {
      throw common::InternalError(common::format(
          "executor: MAC %zu operands read its own or a later MAC's result", m));
    }
    mac_stage_[m] = stage;
    if (kernel_.mac_ops[m].accumulate) continue;
    for (const std::uint32_t i : mac_result_inputs_[m]) input_stage[i] = stage + 1;
  }

  // A kernel the cone can thread gets its state inputs one past the last MAC
  // stage, so the plan's final stage is exactly the state cone. Any other
  // kernel runs 1-lane blocks, whose state inputs are set at block start.
  if (state_cone_) {
    const unsigned cone_stage = 1 + *std::max_element(input_stage.begin(), input_stage.end());
    for (const std::uint32_t i : state_inputs_) input_stage[i] = cone_stage;
  }
  return input_stage;
}

bool KernelExecutor::stream_envelopes(const KernelInvocation& invocation,
                                      StreamEnvelope* out) const {
  const auto& ir = kernel_.ir;
  const std::int64_t last_iter =
      invocation.trip == 0 ? 0 : static_cast<std::int64_t>(invocation.trip) - 1;
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    const auto& stream = ir.streams[s];
    const std::int64_t base = invocation.stream_bases[s];
    std::int64_t lo = base;
    std::int64_t hi = base;
    for (const std::int64_t it : {std::int64_t{0}, last_iter}) {
      for (const std::int64_t t :
           {std::int64_t{0}, static_cast<std::int64_t>(stream.burst) - 1}) {
        const std::int64_t addr = base +
                                  static_cast<std::int64_t>(stream.stride_bytes) * it +
                                  t * static_cast<std::int64_t>(stream.tap_stride_bytes);
        lo = std::min(lo, addr);
        hi = std::max(hi, addr);
      }
    }
    hi += stream.elem_bytes - 1;
    // Addresses that wrap 32 bits defeat the interval analysis: fall back.
    if (lo < 0 || hi >= (std::int64_t{1} << 32)) return false;
    out[s] = {lo, hi};
  }
  return true;
}

bool KernelExecutor::streams_hazard_free(const KernelInvocation& invocation,
                                         const StreamEnvelope* envelopes,
                                         unsigned block_lanes) const {
  const auto& ir = kernel_.ir;
  if (invocation.trip == 0) return true;
  // No block spans more iterations than the trip.
  const std::int64_t window =
      static_cast<std::int64_t>(std::min<std::uint64_t>(block_lanes, invocation.trip));

  for (std::size_t ws = 0; ws < ir.streams.size(); ++ws) {
    if (!ir.streams[ws].is_write) continue;
    for (std::size_t rs = 0; rs < ir.streams.size(); ++rs) {
      if (ir.streams[rs].is_write) continue;
      if (!envelopes[ws].overlaps(envelopes[rs])) continue;

      // Overlapping ranges are only safe for the exact in-place pattern,
      // where a write from iteration i can alias a read from iteration
      // j > i only at solutions of stride*(j-i) == tap_stride*(tw-tr); a
      // solution within one block distance makes batching unsafe.
      const auto& w = ir.streams[ws];
      const auto& r = ir.streams[rs];
      if (invocation.stream_bases[ws] != invocation.stream_bases[rs] ||
          w.stride_bytes != r.stride_bytes || w.tap_stride_bytes != r.tap_stride_bytes ||
          w.elem_bytes != r.elem_bytes) {
        return false;
      }
      if (w.stride_bytes == 0) return false;
      for (const auto& wo : kernel_.write_outputs) {
        if (wo.stream != ws) continue;
        for (unsigned tr = 0; tr < r.burst; ++tr) {
          const std::int64_t diff =
              (static_cast<std::int64_t>(wo.tap) - static_cast<std::int64_t>(tr)) *
              static_cast<std::int64_t>(w.tap_stride_bytes);
          // The write of iteration i and the read of iteration i+d sit
          // diff - stride*d bytes apart; their elem-byte intervals overlap
          // when that gap is smaller than an element. d == 0 (same
          // iteration) is safe: both engines read before writing.
          for (std::int64_t d = 1; d < window; ++d) {
            const std::int64_t gap = diff - static_cast<std::int64_t>(w.stride_bytes) * d;
            if (gap > -w.elem_bytes && gap < w.elem_bytes) return false;
          }
        }
      }
    }
  }
  return true;
}

unsigned KernelExecutor::select_packed_width(const KernelInvocation& invocation) {
  // A pinned width is honored as-is (hazards drop to 1-lane blocks); auto
  // mode starts from the trip/plan-size heuristic and narrows the block
  // until its hazard window closes.
  if (invocation.trip != 0 && !stream_envelopes(invocation, envelopes_.data())) return 0;
  if (packed_options_.width != 0) {
    return streams_hazard_free(invocation, envelopes_.data(),
                               packed_options_.width * kPackedWordBits)
               ? packed_options_.width
               : 0;
  }
  unsigned width = packed_->choose_width(invocation.trip);
  while (width != 0 &&
         !streams_hazard_free(invocation, envelopes_.data(), width * kPackedWordBits)) {
    width >>= 1;
  }
  return width;
}

unsigned KernelExecutor::shared_block_width(const KernelInvocation& invocation,
                                            std::vector<StreamEnvelope>& envelopes) {
  const auto& ir = kernel_.ir;
  if (!ir.accumulators.empty() || invocation.trip == 0 || !well_formed(ir, invocation)) return 0;
  const unsigned width = packed_options_.width != 0
                             ? packed_options_.width
                             : packed_->choose_width(~std::uint64_t{0});
  const unsigned block_lanes = width * kPackedWordBits;
  envelopes.resize(ir.streams.size());
  if (invocation.trip >= block_lanes || !stream_envelopes(invocation, envelopes.data()) ||
      !streams_hazard_free(invocation, envelopes.data(), block_lanes)) {
    return 0;
  }
  return width;
}

void KernelExecutor::run_shared_block(sim::Memory& memory, const BlockSegment* segments,
                                      std::size_t count) {
  if (count == 0) return;
  if (!kernel_.ir.accumulators.empty()) {
    throw common::InternalError("executor: shared block on a kernel that cannot share one");
  }
  const BlockSegment& last = segments[count - 1];
  const unsigned lanes = last.lane0 + last.lanes;
  unsigned width = packed_options_.width;
  if (width == 0) {
    width = 1;
    while (width * kPackedWordBits < lanes) width <<= 1;
  }
  if (width > kMaxPackedWidth || lanes > width * kPackedWordBits) {
    throw common::InternalError(
        common::format("executor: %u lanes overflow a %u-word shared block", lanes, width));
  }
  packed_->set_width(width);
  std::vector<std::uint32_t> no_acc;
  run_packed_block(memory, segments, count, width, no_acc);
}

common::Result<KernelRunResult> KernelExecutor::run(sim::Memory& memory,
                                                    const KernelInvocation& invocation,
                                                    bool verify_against_dfg) {
  using Result = common::Result<KernelRunResult>;
  const auto& ir = kernel_.ir;
  if (!well_formed(ir, invocation)) {
    return Result::error("invocation stream base, live-in or accumulator init count mismatch");
  }

  KernelRunResult result = timing(invocation.trip);
  // Accumulator state (both MAC-held and fabric-held), threaded through
  // the blocks in place.
  std::vector<std::uint32_t>& acc = result.acc_final;
  acc = invocation.acc_init;
  result.scalar_reason = scalar_reason_;
  if (result.scalar_reason == ScalarReason::kNone && verify_against_dfg) {
    result.scalar_reason = ScalarReason::kVerify;
  }
  unsigned width = 1;
  if (result.scalar_reason == ScalarReason::kNone) {
    width = select_packed_width(invocation);
    if (width == 0) {
      result.scalar_reason = ScalarReason::kStreamAlias;
      width = 1;
    }
  }
  // Full blocks, then the trip's remainder as one partial block; 1-lane
  // blocks for every ScalarReason.
  const std::uint64_t block =
      result.scalar_reason == ScalarReason::kNone ? std::uint64_t{width} * kPackedWordBits : 1;
  packed_->set_width(width);
  std::vector<ReferenceWrite> expect;
  std::vector<std::uint32_t> expect_acc;
  for (std::uint64_t iter = 0; iter < invocation.trip; iter += block) {
    if (verify_against_dfg) {
      expect.clear();
      expect_acc = acc;
      reference_step(ir, memory, invocation, iter, expect_acc, expect);
    }
    const BlockSegment segment{&invocation, iter, 0,
                               static_cast<unsigned>(std::min(block, invocation.trip - iter))};
    run_packed_block(memory, &segment, 1, width, acc);
    if (verify_against_dfg) check_against_dfg(iter, expect, expect_acc, acc);
    ++result.packed_blocks;
  }
  if (invocation.trip != 0) result.packed_width = width;
  return result;
}

KernelRunResult KernelExecutor::timing(std::uint64_t trip) const {
  KernelRunResult result;
  result.wcla_cycles = std::uint64_t{initiation_interval_} * trip + fixed_cycles_;
  result.clock_mhz = clock_mhz_;
  result.time_ns = static_cast<double>(result.wcla_cycles) * 1000.0 / result.clock_mhz;
  return result;
}

void KernelExecutor::form_word(const WordPort& port, const BlockSegment* segments,
                               std::size_t count, unsigned width, std::uint64_t* words) const {
  const unsigned lanes = segments[count - 1].lane0 + segments[count - 1].lanes;
  switch (port.kind) {
    case WordPort::Kind::kConstant:
      std::fill(words, words + lanes, port.ones);
      break;
    case WordPort::Kind::kTap: {
      // The loaded words of every segment, at its own lanes.
      const auto& loaded = block_taps_[static_cast<std::size_t>(port.source)];
      for (unsigned j = 0; j < lanes; ++j) words[j] = (loaded[j] & port.mask) | port.ones;
      break;
    }
    case WordPort::Kind::kLiveIn:
      for (const BlockSegment* seg = segments; seg != segments + count; ++seg) {
        const std::uint64_t value =
            (slot_value(*seg->invocation, port.source) & port.mask) | port.ones;
        std::fill(words + seg->lane0, words + seg->lane0 + seg->lanes, value);
      }
      break;
    case WordPort::Kind::kComputed:
      // Gathered out of the packed pass: lane blocks in, one word per
      // iteration out, in every one of the width*64 rows.
      std::fill(words, words + width * kPackedWordBits, 0);
      for (const OutputBit& ob : port.bits) {
        for (unsigned w = 0; w < width; ++w) {
          words[ob.bit * width + w] = packed_->output(ob.output_index, w);
        }
      }
      common::transpose64_unblocked(words, width);
      break;
  }
}

void KernelExecutor::feed_mac_result(std::size_t m, const BlockSegment* segments,
                                     std::size_t count, unsigned width) {
  const unsigned block_lanes = width * kPackedWordBits;
  const unsigned lanes = segments[count - 1].lane0 + segments[count - 1].lanes;
  std::array<std::uint64_t, kMaxPackedLanes> product;  // A operands, then products
  std::array<std::uint64_t, kMaxPackedLanes> operand_b;
  form_word(mac_a_ports_[m], segments, count, width, product.data());
  form_word(mac_b_ports_[m], segments, count, width, operand_b.data());
  for (unsigned j = 0; j < lanes; ++j) {
    product[j] = static_cast<std::uint32_t>(product[j]) * static_cast<std::uint32_t>(operand_b[j]);
  }
  std::fill(product.begin() + lanes, product.begin() + block_lanes, 0);
  common::transpose64_blocked(product.data(), width);
  for (const std::uint32_t i : mac_result_inputs_[m]) {
    packed_->set_input_block(i, &product[input_bindings_[i].bit * width]);
  }
}

std::uint32_t KernelExecutor::next_state(const FabricAcc& f, std::uint32_t state,
                                         unsigned lane) const {
  std::uint32_t next = state & f.held;
  for (const OutputBit& ob : f.changing) {
    next |= static_cast<std::uint32_t>(packed_->output_lane(ob.output_index, lane)) << ob.bit;
  }
  return next;
}

void KernelExecutor::run_state_cone(unsigned lanes, std::vector<std::uint32_t>& acc) {
  // Held bits were set once for the block; only the changing bits thread
  // from lane to lane.
  const unsigned cone = packed_->num_stages() - 1;
  for (unsigned j = 0; j < lanes; ++j) {
    for (const std::uint32_t i : lane_state_inputs_) {
      const InputBinding& binding = input_bindings_[i];
      packed_->set_input_lane(i, j, (acc[binding.a] >> binding.bit) & 1u);
    }
    packed_->run_stage_lane(cone, j);
    for (const FabricAcc& f : fabric_accs_) acc[f.index] = next_state(f, acc[f.index], j);
  }
}

void KernelExecutor::run_packed_block(sim::Memory& memory, const BlockSegment* segments,
                                      std::size_t count, unsigned width,
                                      std::vector<std::uint32_t>& acc) {
  const auto& ir = kernel_.ir;
  const unsigned block_lanes = width * kPackedWordBits;
  const unsigned lanes = segments[count - 1].lane0 + segments[count - 1].lanes;

  // 1. Batched DADG reads: the block's valid lanes of every read tap, each
  //    segment's iterations from its own stream base, loaded one word per
  //    lane; tap words read these. A tap that a LUT or a computed word
  //    reads is then block-transposed into lane blocks (the width words at
  //    row b*width = the lane block of tap bit b), in place or, when tap
  //    words read it too, in its own row; its spare lanes read 0, never
  //    memory. Every lane is read before any is written (step 5).
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    const auto& stream = ir.streams[s];
    if (stream.is_write) continue;
    for (unsigned t = 0; t < stream.burst; ++t) {
      const unsigned f = tap_base_[s] + t;
      auto& words = block_taps_[f];
      for (const BlockSegment* seg = segments; seg != segments + count; ++seg) {
        const std::uint32_t base = seg->invocation->stream_bases[s];
        std::uint64_t* lane_words = words.data() + seg->lane0;
        for (unsigned j = 0; j < seg->lanes; ++j) {
          lane_words[j] = load(memory, tap_addr(stream, base, seg->iter0 + j, t), stream.elem_bytes);
        }
      }
      const int plane = tap_plane_[f];
      if (plane < 0) continue;
      std::uint64_t* rows = block_taps_[static_cast<std::size_t>(plane)].data();
      if (static_cast<unsigned>(plane) != f) std::copy(words.begin(), words.begin() + lanes, rows);
      std::fill(rows + lanes, rows + block_lanes, 0);
      common::transpose64_blocked(rows, width);
    }
  }

  // Induction-variable lane blocks of the IV registers a fabric input
  // reads, each segment counting from its own latched start plus
  // step * iteration (mod 2^32).
  for (const unsigned p : iv_used_) {
    auto& plane = iv_planes_[p];
    const auto step = static_cast<std::uint32_t>(iv_step_[p]);
    for (const BlockSegment* seg = segments; seg != segments + count; ++seg) {
      const std::uint32_t start = slot_value(*seg->invocation, iv_slot_[p]) +
                                  step * static_cast<std::uint32_t>(seg->iter0);
      for (unsigned j = 0; j < seg->lanes; ++j) plane[seg->lane0 + j] = start + step * j;
    }
    std::fill(plane.begin() + lanes, plane.begin() + block_lanes, 0);
    common::transpose64_blocked(plane.data(), width);
  }

  // 2. Wire the lane blocks to the fabric inputs something reads. MAC
  //    results start at 0 until their products are fed in.
  for (const std::uint32_t i : block_inputs_) {
    const InputBinding& binding = input_bindings_[i];
    switch (binding.kind) {
      case InputBinding::Kind::kStream:
        packed_->set_input_block(
            i, &block_taps_[static_cast<std::size_t>(
                tap_plane_[static_cast<std::size_t>(binding.tap_index)])][binding.bit * width]);
        break;
      case InputBinding::Kind::kLiveIn: {
        // Each segment's lanes carry its own latched bit.
        std::array<std::uint64_t, kMaxPackedWidth> lane_words{};
        for (const BlockSegment* seg = segments; seg != segments + count; ++seg) {
          if ((slot_value(*seg->invocation, binding.slot) >> binding.bit) & 1u) {
            set_lane_range(lane_words.data(), seg->lane0, seg->lanes);
          }
        }
        packed_->set_input_block(i, lane_words.data());
        break;
      }
      case InputBinding::Kind::kIv:
        if (binding.iv_pos >= 0) {
          packed_->set_input_block(
              i, &iv_planes_[static_cast<std::size_t>(binding.iv_pos)][binding.bit * width]);
        } else {
          for (unsigned w = 0; w < width; ++w) packed_->set_input(i, w, 0);
        }
        break;
      case InputBinding::Kind::kMacResult:
        for (unsigned w = 0; w < width; ++w) packed_->set_input(i, w, 0);
        break;
      case InputBinding::Kind::kAccState: {
        // A held bit of the state cone, or, in the 1-lane blocks of a
        // kernel without one, any state bit: its value at block start.
        const std::uint64_t value = ((acc[binding.a] >> binding.bit) & 1u) ? ~0ull : 0;
        for (unsigned w = 0; w < width; ++w) packed_->set_input(i, w, value);
        break;
      }
    }
  }

  // 3. Evaluate all width*64 iterations stage by stage; after each stage,
  //    the MACs whose operands are now ready feed their products into the
  //    next one. A kernel with a state cone then runs its final stage, the
  //    cone, one lane at a time.
  const unsigned packed_stages = packed_->num_stages() - (state_cone_ ? 1 : 0);
  for (unsigned stage = 0; stage < packed_stages; ++stage) {
    packed_->run_stage(stage);
    for (const std::size_t m : fed_macs_) {
      if (mac_stage_[m] == stage) feed_mac_result(m, segments, count, width);
    }
  }
  if (state_cone_) run_state_cone(lanes, acc);

  // 4. MAC accumulations: the products of the valid lanes' operands are
  //    summed in iteration order.
  std::array<std::uint64_t, kMaxPackedLanes> words_a;
  std::array<std::uint64_t, kMaxPackedLanes> words_b;
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    if (!kernel_.mac_ops[m].accumulate) continue;
    form_word(mac_a_ports_[m], segments, count, width, words_a.data());
    form_word(mac_b_ports_[m], segments, count, width, words_b.data());
    std::uint32_t sum = 0;
    for (unsigned j = 0; j < lanes; ++j) {
      sum += static_cast<std::uint32_t>(words_a[j]) * static_cast<std::uint32_t>(words_b[j]);
    }
    acc[static_cast<std::size_t>(kernel_.mac_ops[m].acc_index)] += sum;
  }

  // 5. Stream writes of the valid lanes, in iteration-major order and
  //    segment by segment (the reference's order, in case two write taps or
  //    two invocations alias).
  if (!kernel_.write_outputs.empty()) {
    for (std::size_t w = 0; w < kernel_.write_outputs.size(); ++w) {
      form_word(write_ports_[w], segments, count, width, write_words_[w].data());
    }
    for (const BlockSegment* seg = segments; seg != segments + count; ++seg) {
      for (unsigned j = 0; j < seg->lanes; ++j) {
        for (std::size_t w = 0; w < kernel_.write_outputs.size(); ++w) {
          const auto& out = kernel_.write_outputs[w];
          const auto& stream = ir.streams[out.stream];
          store(memory,
                tap_addr(stream, seg->invocation->stream_bases[out.stream], seg->iter0 + j,
                         out.tap),
                stream.elem_bytes, static_cast<std::uint32_t>(write_words_[w][seg->lane0 + j]));
        }
      }
    }
  }

  // 6. A fabric-held accumulator ends at the last valid lane's next state
  //    (the state cone already threaded it there).
  if (state_cone_) return;
  for (const FabricAcc& f : fabric_accs_) acc[f.index] = next_state(f, acc[f.index], lanes - 1);
}

void KernelExecutor::check_against_dfg(std::uint64_t iter,
                                       const std::vector<ReferenceWrite>& expect,
                                       const std::vector<std::uint32_t>& expect_acc,
                                       const std::vector<std::uint32_t>& acc) const {
  // Synthesis emits one write output per ir.writes entry, in its order.
  if (expect.size() != kernel_.write_outputs.size()) {
    throw common::InternalError("executor: write outputs do not match the DFG's writes");
  }
  for (std::size_t w = 0; w < expect.size(); ++w) {
    const unsigned bits = 8 * expect[w].elem_bytes;
    const std::uint32_t mask = bits >= 32 ? ~0u : (1u << bits) - 1;
    const auto got = static_cast<std::uint32_t>(write_words_[w][0]) & mask;
    if (got != (expect[w].value & mask)) {
      throw common::InternalError(common::format(
          "fabric/DFG mismatch at iter %llu stream %u tap %u: fabric=0x%x dfg=0x%x",
          static_cast<unsigned long long>(iter), kernel_.write_outputs[w].stream,
          kernel_.write_outputs[w].tap, got, expect[w].value & mask));
    }
  }
  for (std::size_t k = 0; k < acc.size(); ++k) {
    if (acc[k] != expect_acc[k]) {
      throw common::InternalError(common::format(
          "fabric/DFG mismatch at iter %llu accumulator %zu: fabric=0x%x dfg=0x%x",
          static_cast<unsigned long long>(iter), k, acc[k], expect_acc[k]));
    }
  }
}

// ---- The dataflow-graph reference ------------------------------------------

void reference_step(const decompile::KernelIR& ir, const sim::Memory& memory,
                    const KernelInvocation& invocation, std::uint64_t iter,
                    std::vector<std::uint32_t>& acc, std::vector<ReferenceWrite>& writes) {
  decompile::Dfg::Inputs inputs;
  for (std::size_t k = 0; k < ir.live_in_regs.size(); ++k) {
    inputs.live_in[ir.live_in_regs[k]] = invocation.live_in[k];
  }
  // Accumulator registers read their value at iteration start.
  for (std::size_t k = 0; k < ir.accumulators.size(); ++k) {
    inputs.live_in[ir.accumulators[k].reg] = acc[k];
  }
  // An induction register enters the DFG as a kIv node: its latched value
  // (0 when not latched) plus step * iter.
  for (const auto& [reg, step] : ir.iv_regs) {
    const auto it = inputs.live_in.find(reg);
    const std::uint32_t start = it == inputs.live_in.end() ? 0 : it->second;
    if (it != inputs.live_in.end()) inputs.live_in.erase(it);
    inputs.iv[reg] = start + static_cast<std::uint32_t>(static_cast<std::int64_t>(step) *
                                                        static_cast<std::int64_t>(iter));
  }
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    const auto& stream = ir.streams[s];
    if (stream.is_write) continue;
    for (unsigned t = 0; t < stream.burst; ++t) {
      inputs.stream_in[(static_cast<std::uint32_t>(s) << 16) | t] =
          load(memory, tap_addr(stream, invocation.stream_bases[s], iter, t), stream.elem_bytes);
    }
  }
  for (const auto& w : ir.writes) {
    const auto& stream = ir.streams[w.stream];
    writes.push_back({tap_addr(stream, invocation.stream_bases[w.stream], iter, w.tap),
                      stream.elem_bytes, ir.dfg.eval(w.node, inputs)});
  }
  for (std::size_t k = 0; k < ir.accumulators.size(); ++k) {
    const std::uint32_t f = ir.dfg.eval(ir.accumulators[k].node, inputs);
    switch (ir.accumulators[k].op) {
      case decompile::DfgOp::kAdd: acc[k] += f; break;
      case decompile::DfgOp::kOr: acc[k] |= f; break;
      case decompile::DfgOp::kXor: acc[k] ^= f; break;
      case decompile::DfgOp::kAnd: acc[k] &= f; break;
      default: throw common::InternalError("reference: unsupported accumulator op");
    }
  }
}

std::vector<std::uint32_t> reference_run(const decompile::KernelIR& ir, sim::Memory& memory,
                                         const KernelInvocation& invocation) {
  if (!well_formed(ir, invocation)) throw common::InternalError("reference: malformed invocation");
  std::vector<std::uint32_t> acc = invocation.acc_init;
  std::vector<ReferenceWrite> writes;
  for (std::uint64_t iter = 0; iter < invocation.trip; ++iter) {
    writes.clear();
    reference_step(ir, memory, invocation, iter, acc, writes);
    for (const ReferenceWrite& w : writes) store(memory, w.addr, w.elem_bytes, w.value);
  }
  return acc;
}

}  // namespace warp::hwsim
