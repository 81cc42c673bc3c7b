#include "hwsim/executor.hpp"

#include <algorithm>
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

}  // namespace

const char* scalar_reason_name(ScalarReason reason) {
  switch (reason) {
    case ScalarReason::kNone: return "none";
    case ScalarReason::kMacHeldState: return "mac-held state";
    case ScalarReason::kMacOperandInCone: return "mac operand in state cone";
    case ScalarReason::kStreamAlias: return "stream alias";
    case ScalarReason::kVerify: return "verify";
    case ScalarReason::kForcedScalar: return "forced scalar";
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
  block_taps_.resize(total_taps);
  tap_values_.resize(ir.streams.size());
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    tap_values_[s].assign(ir.streams[s].burst, 0);
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
    binding.b = spec.b;
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
  livein_cache_.assign(input_bindings_.size(), 0);

  // Output index tables: one bit-list per consumed word, so reading a word
  // is a gather over its own bits instead of an O(outputs) scan.
  write_groups_.assign(kernel_.write_outputs.size(), {});
  mac_a_groups_.assign(kernel_.mac_ops.size(), {});
  mac_b_groups_.assign(kernel_.mac_ops.size(), {});
  acc_next_groups_.assign(ir.accumulators.size(), {});
  for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
    const PortSpec& spec = output_ports[i];
    OutputBit ob;
    ob.bit = spec.bit;
    ob.output_index = static_cast<std::uint32_t>(i);
    ob.source = netlist.outputs[i].source;
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
        write_groups_[static_cast<std::size_t>(w)].push_back(ob);
        break;
      }
      case PortSpec::Kind::kMacA:
        if (spec.a >= mac_a_groups_.size()) {
          throw common::InternalError("executor: MAC A output out of range");
        }
        mac_a_groups_[spec.a].push_back(ob);
        break;
      case PortSpec::Kind::kMacB:
        if (spec.a >= mac_b_groups_.size()) {
          throw common::InternalError("executor: MAC B output out of range");
        }
        mac_b_groups_[spec.a].push_back(ob);
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
    if (!out.via_mac) fabric_accs_.push_back(out.acc_index);
  }

  for (const auto& w : ir.writes) {
    write_node_[(static_cast<std::uint32_t>(w.stream) << 16) | w.tap] = w.node;
  }

  iv_step_.resize(ir.iv_regs.size());
  for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) iv_step_[p] = ir.iv_regs[p].second;

  inputs_.assign(netlist.primary_inputs.size(), false);
  mac_results_.assign(kernel_.mac_ops.size(), 0);
  iv_planes_.resize(ir.iv_regs.size());
  write_words_.resize(kernel_.write_outputs.size());

  scalar_reason_ = check_state_cone();
  if (scalar_reason_ == ScalarReason::kNone) packed_.emplace(netlist, stage_macs());
}

ScalarReason KernelExecutor::check_state_cone() const {
  if (state_inputs_.empty()) return ScalarReason::kNone;
  // A MAC-held accumulator's state changes with every product, outside the
  // fabric.
  std::vector<bool> is_state(input_bindings_.size(), false);
  for (const std::uint32_t i : state_inputs_) {
    if (std::find(fabric_accs_.begin(), fabric_accs_.end(), input_bindings_[i].a) ==
        fabric_accs_.end()) {
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
    for (const OutputGroup* group : {&mac_a_groups_[m], &mac_b_groups_[m]}) {
      for (const OutputBit& ob : *group) {
        if (reads_state(ob.source)) return ScalarReason::kMacOperandInCone;
      }
    }
  }
  return ScalarReason::kNone;
}

std::vector<unsigned> KernelExecutor::stage_macs() {
  // The scalar engine reads MAC m's operands after the results of MACs
  // 0..m-1 are in, so the packed plan splits at the MACs: operands that are
  // ready after stage s give a product that enters as a stage s+1 input.
  // MACs are staged in op order (synthesis emits them in dataflow order), so
  // an operand still reading an unstaged result reads its own or a later
  // MAC's, which the in-order scalar engine would see before it is set.
  const auto& luts = config_.netlist.luts;
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
    for (const OutputGroup* group : {&mac_a_groups_[m], &mac_b_groups_[m]}) {
      for (const OutputBit& ob : *group) stage = std::max(stage, stage_of(ob.source));
    }
    if (stage == kUnstaged) {
      throw common::InternalError(common::format(
          "executor: MAC %zu operands read its own or a later MAC's result", m));
    }
    mac_stage_[m] = stage;
    if (kernel_.mac_ops[m].accumulate) continue;
    for (const std::uint32_t i : mac_result_inputs_[m]) input_stage[i] = stage + 1;
  }

  // The state inputs enter one past the last MAC stage, so the plan's final
  // stage is exactly the state cone.
  if (!state_inputs_.empty()) {
    const unsigned cone_stage = 1 + *std::max_element(input_stage.begin(), input_stage.end());
    for (const std::uint32_t i : state_inputs_) input_stage[i] = cone_stage;
  }
  return input_stage;
}

std::uint32_t KernelExecutor::read_group_word(const OutputGroup& group,
                                              const std::vector<bool>& lut_values) const {
  std::uint32_t word = 0;
  for (const OutputBit& ob : group) {
    if (techmap::resolve_ref(ob.source, lut_values, inputs_)) word |= 1u << ob.bit;
  }
  return word;
}

int KernelExecutor::find_write_node(unsigned stream, unsigned tap) const {
  const auto it = write_node_.find((stream << 16) | tap);
  if (it == write_node_.end()) {
    throw common::InternalError("executor: no DFG node for write output");
  }
  return it->second;
}

std::uint32_t KernelExecutor::iv_value(int iv_pos, std::uint64_t iter) const {
  if (iv_pos < 0) return 0;
  return iv_init_[static_cast<std::size_t>(iv_pos)] +
         static_cast<std::uint32_t>(
             static_cast<std::int64_t>(iv_step_[static_cast<std::size_t>(iv_pos)]) *
             static_cast<std::int64_t>(iter));
}

bool KernelExecutor::streams_hazard_free(const KernelInvocation& invocation,
                                         unsigned block_lanes) const {
  const auto& ir = kernel_.ir;
  if (invocation.trip == 0) return true;
  const std::int64_t last_iter = static_cast<std::int64_t>(invocation.trip) - 1;
  // No block spans more iterations than the trip.
  const std::int64_t window =
      static_cast<std::int64_t>(std::min<std::uint64_t>(block_lanes, invocation.trip));

  struct Range {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
  };
  std::vector<Range> ranges(ir.streams.size());
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
    ranges[s] = {lo, hi};
  }

  for (std::size_t ws = 0; ws < ir.streams.size(); ++ws) {
    if (!ir.streams[ws].is_write) continue;
    for (std::size_t rs = 0; rs < ir.streams.size(); ++rs) {
      if (ir.streams[rs].is_write) continue;
      if (ranges[ws].hi < ranges[rs].lo || ranges[rs].hi < ranges[ws].lo) continue;

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

unsigned KernelExecutor::select_packed_width(const KernelInvocation& invocation) const {
  // A pinned width is honored as-is (hazards drop to scalar, matching the
  // historical W=1 semantics); auto mode starts from the trip/plan-size
  // heuristic and narrows the block until its hazard window closes.
  if (packed_options_.width != 0) {
    return streams_hazard_free(invocation, packed_options_.width * kPackedWordBits)
               ? packed_options_.width
               : 0;
  }
  unsigned width = packed_->choose_width(invocation.trip);
  while (width != 0 && !streams_hazard_free(invocation, width * kPackedWordBits)) {
    width >>= 1;
  }
  return width;
}

common::Result<KernelRunResult> KernelExecutor::run(sim::Memory& memory,
                                                    const KernelInvocation& invocation,
                                                    bool verify_against_dfg) {
  using Result = common::Result<KernelRunResult>;
  const auto& ir = kernel_.ir;
  if (invocation.stream_bases.size() != ir.streams.size()) {
    return Result::error("invocation stream base count mismatch");
  }
  if (invocation.acc_init.size() != ir.accumulators.size()) {
    return Result::error("invocation accumulator init count mismatch");
  }

  // Accumulator state (both MAC-held and fabric-held).
  std::vector<std::uint32_t> acc = invocation.acc_init;

  // Per-run tables: induction-variable initial values and cached live-ins,
  // so the per-iteration paths never touch the live_in hash map.
  iv_init_.assign(ir.iv_regs.size(), 0);
  for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) {
    const auto it = invocation.live_in.find(ir.iv_regs[p].first);
    iv_init_[p] = (it != invocation.live_in.end()) ? it->second : 0;
  }
  for (std::size_t i = 0; i < input_bindings_.size(); ++i) {
    if (input_bindings_[i].kind != InputBinding::Kind::kLiveIn) continue;
    const auto it = invocation.live_in.find(input_bindings_[i].a);
    livein_cache_[i] = (it != invocation.live_in.end()) ? it->second : 0;
  }

  KernelRunResult result;
  result.scalar_reason = scalar_reason_;
  if (result.scalar_reason == ScalarReason::kNone && verify_against_dfg) {
    result.scalar_reason = ScalarReason::kVerify;
  }
  if (result.scalar_reason == ScalarReason::kNone && engine_ == EvalEngine::kScalar) {
    result.scalar_reason = ScalarReason::kForcedScalar;
  }
  unsigned width = 0;
  if (result.scalar_reason == ScalarReason::kNone) {
    width = select_packed_width(invocation);
    if (width == 0) result.scalar_reason = ScalarReason::kStreamAlias;
  }
  if (width != 0) {
    // Full blocks, then the trip's remainder as one partial block.
    packed_->set_width(width);
    const std::uint64_t block = std::uint64_t{width} * kPackedWordBits;
    for (std::uint64_t iter = 0; iter < invocation.trip; iter += block) {
      const auto lanes = static_cast<unsigned>(std::min(block, invocation.trip - iter));
      run_packed_block(memory, invocation, iter, lanes, acc, width);
    }
    result.packed_iterations = invocation.trip;
    if (invocation.trip != 0) result.packed_width = width;
  } else {
    for (std::uint64_t iter = 0; iter < invocation.trip; ++iter) {
      run_scalar_iter(memory, invocation, iter, acc, verify_against_dfg);
    }
    result.scalar_iterations = invocation.trip;
  }

  const unsigned ii = kernel_.initiation_interval();
  result.wcla_cycles = static_cast<std::uint64_t>(ii) * invocation.trip +
                       config_.pipeline_stages() + kStartupCycles;
  result.clock_mhz = config_.fabric_clock_mhz();
  result.time_ns = static_cast<double>(result.wcla_cycles) * 1000.0 / result.clock_mhz;
  result.acc_final = acc;
  return result;
}

void KernelExecutor::run_scalar_iter(sim::Memory& memory, const KernelInvocation& invocation,
                                     std::uint64_t iter, std::vector<std::uint32_t>& acc,
                                     bool verify_against_dfg) {
  const auto& ir = kernel_.ir;
  const auto& netlist = config_.netlist;

  // Accumulator values at iteration start: what the fabric's AccState
  // inputs and the golden model both observe.
  acc_start_of_iter_ = acc;

  // 1. DADG: fetch read-stream taps.
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    const auto& stream = ir.streams[s];
    if (stream.is_write) continue;
    const std::uint32_t base =
        invocation.stream_bases[s] +
        static_cast<std::uint32_t>(static_cast<std::int64_t>(stream.stride_bytes) *
                                   static_cast<std::int64_t>(iter));
    for (unsigned t = 0; t < stream.burst; ++t) {
      const std::uint32_t addr =
          base + t * static_cast<std::uint32_t>(stream.tap_stride_bytes);
      switch (stream.elem_bytes) {
        case 1: tap_values_[s][t] = memory.read8(addr); break;
        case 2: tap_values_[s][t] = memory.read16(addr); break;
        default: tap_values_[s][t] = memory.read32(addr); break;
      }
    }
  }

  // 2. Evaluate fabric + MAC (MAC ops in order, refreshing the fabric
  //    between them because operands may depend on earlier results).
  auto load_inputs = [&] {
    for (std::size_t i = 0; i < input_bindings_.size(); ++i) {
      const InputBinding& binding = input_bindings_[i];
      std::uint32_t word = 0;
      switch (binding.kind) {
        case InputBinding::Kind::kStream:
          word = tap_values_[binding.a][binding.b];
          break;
        case InputBinding::Kind::kLiveIn:
          word = livein_cache_[i];
          break;
        case InputBinding::Kind::kIv:
          word = iv_value(binding.iv_pos, iter);
          break;
        case InputBinding::Kind::kMacResult:
          word = mac_results_[binding.a];
          break;
        case InputBinding::Kind::kAccState:
          word = acc_start_of_iter_[binding.a];
          break;
      }
      inputs_[i] = (word >> binding.bit) & 1u;
    }
  };

  std::fill(mac_results_.begin(), mac_results_.end(), 0);
  load_inputs();
  std::vector<bool> lut_values = netlist.evaluate(inputs_);
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    const std::uint32_t a = read_group_word(mac_a_groups_[m], lut_values);
    const std::uint32_t b = read_group_word(mac_b_groups_[m], lut_values);
    const std::uint32_t product = a * b;
    if (kernel_.mac_ops[m].accumulate) {
      acc[static_cast<std::size_t>(kernel_.mac_ops[m].acc_index)] += product;
    } else {
      mac_results_[m] = product;  // indexed by global MAC-op number
      // Refresh fabric with the new MAC result.
      load_inputs();
      lut_values = netlist.evaluate(inputs_);
    }
  }

  // 3. Stream writes.
  for (std::size_t w = 0; w < kernel_.write_outputs.size(); ++w) {
    const auto& out = kernel_.write_outputs[w];
    const auto& stream = ir.streams[out.stream];
    const std::uint32_t base =
        invocation.stream_bases[out.stream] +
        static_cast<std::uint32_t>(static_cast<std::int64_t>(stream.stride_bytes) *
                                   static_cast<std::int64_t>(iter));
    const std::uint32_t addr =
        base + out.tap * static_cast<std::uint32_t>(stream.tap_stride_bytes);
    const std::uint32_t value = read_group_word(write_groups_[w], lut_values);
    switch (stream.elem_bytes) {
      case 1: memory.write8(addr, static_cast<std::uint8_t>(value)); break;
      case 2: memory.write16(addr, static_cast<std::uint16_t>(value)); break;
      default: memory.write32(addr, value); break;
    }
    if (verify_against_dfg) {
      decompile::Dfg::Inputs golden;
      for (const auto& [reg, value_in] : invocation.live_in) golden.live_in[reg] = value_in;
      for (std::size_t s = 0; s < ir.streams.size(); ++s) {
        for (unsigned t = 0; t < ir.streams[s].burst; ++t) {
          golden.stream_in[(static_cast<std::uint32_t>(s) << 16) | t] = tap_values_[s][t];
        }
      }
      // Accumulator live-ins observe the value at iteration start.
      for (std::size_t k = 0; k < ir.accumulators.size(); ++k) {
        golden.live_in[ir.accumulators[k].reg] = acc_start_of_iter_[k];
      }
      for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) {
        golden.live_in.erase(ir.iv_regs[p].first);  // iv regs enter the DFG as kIv nodes
        golden.iv[ir.iv_regs[p].first] = iv_value(static_cast<int>(p), iter);
      }
      const std::uint32_t expect = ir.dfg.eval(
          find_write_node(static_cast<unsigned>(out.stream), out.tap), golden);
      std::uint32_t masked = expect;
      if (stream.elem_bytes == 1) masked &= 0xFFu;
      if (stream.elem_bytes == 2) masked &= 0xFFFFu;
      std::uint32_t got = value;
      if (stream.elem_bytes == 1) got &= 0xFFu;
      if (stream.elem_bytes == 2) got &= 0xFFFFu;
      if (got != masked) {
        throw common::InternalError(common::format(
            "fabric/DFG mismatch at iter %llu stream %u tap %u: fabric=0x%x dfg=0x%x",
            static_cast<unsigned long long>(iter), out.stream, out.tap, got, masked));
      }
    }
  }

  // 4. Fabric-held accumulator updates.
  for (const auto& out : kernel_.acc_outputs) {
    if (out.via_mac) continue;
    acc[out.acc_index] = read_group_word(acc_next_groups_[out.acc_index], lut_values);
  }
}

void KernelExecutor::unpack_group(const OutputGroup& group, std::uint64_t* words,
                                  unsigned width) const {
  const unsigned block_lanes = width * kPackedWordBits;
  std::fill(words, words + block_lanes, 0);
  for (const OutputBit& ob : group) {
    for (unsigned w = 0; w < width; ++w) {
      words[ob.bit * width + w] = packed_->output(ob.output_index, w);
    }
  }
  common::transpose64_unblocked(words, width);
}

void KernelExecutor::feed_mac_result(std::size_t m, unsigned width) {
  const unsigned block_lanes = width * kPackedWordBits;
  std::array<std::uint64_t, kMaxPackedLanes> product;  // A operands, then products
  std::array<std::uint64_t, kMaxPackedLanes> operand_b;
  unpack_group(mac_a_groups_[m], product.data(), width);
  unpack_group(mac_b_groups_[m], operand_b.data(), width);
  for (unsigned j = 0; j < block_lanes; ++j) {
    product[j] = static_cast<std::uint32_t>(product[j]) * static_cast<std::uint32_t>(operand_b[j]);
  }
  common::transpose64_blocked(product.data(), width);
  for (const std::uint32_t i : mac_result_inputs_[m]) {
    packed_->set_input_block(i, &product[input_bindings_[i].bit * width]);
  }
}

void KernelExecutor::run_state_cone(unsigned lanes, std::vector<std::uint32_t>& acc) {
  const unsigned cone = packed_->num_stages() - 1;
  for (unsigned j = 0; j < lanes; ++j) {
    for (const std::uint32_t i : state_inputs_) {
      const InputBinding& binding = input_bindings_[i];
      packed_->set_input_lane(i, j, (acc[binding.a] >> binding.bit) & 1u);
    }
    packed_->run_stage_lane(cone, j);
    for (const unsigned k : fabric_accs_) {
      std::uint32_t next = 0;
      for (const OutputBit& ob : acc_next_groups_[k]) {
        next |= static_cast<std::uint32_t>(packed_->output_lane(ob.output_index, j)) << ob.bit;
      }
      acc[k] = next;
    }
  }
}

void KernelExecutor::run_packed_block(sim::Memory& memory, const KernelInvocation& invocation,
                                      std::uint64_t iter0, unsigned lanes,
                                      std::vector<std::uint32_t>& acc, unsigned width) {
  const auto& ir = kernel_.ir;

  // 1. Batched DADG reads: the block's valid iterations of every read tap,
  //    loaded one word per iteration (spare lanes of a partial block read
  //    0, never memory) and block-transposed in place into lane blocks (the
  //    width words at row b*width = the lane block of tap bit b).
  const unsigned block_lanes = width * kPackedWordBits;
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    const auto& stream = ir.streams[s];
    if (stream.is_write) continue;
    for (unsigned t = 0; t < stream.burst; ++t) {
      auto& words = block_taps_[tap_base_[s] + t];
      const std::uint32_t tap_offset =
          invocation.stream_bases[s] + t * static_cast<std::uint32_t>(stream.tap_stride_bytes);
      for (unsigned j = 0; j < lanes; ++j) {
        const std::uint32_t addr =
            tap_offset +
            static_cast<std::uint32_t>(static_cast<std::int64_t>(stream.stride_bytes) *
                                       static_cast<std::int64_t>(iter0 + j));
        switch (stream.elem_bytes) {
          case 1: words[j] = memory.read8(addr); break;
          case 2: words[j] = memory.read16(addr); break;
          default: words[j] = memory.read32(addr); break;
        }
      }
      std::fill(words.begin() + lanes, words.begin() + block_lanes, 0);
      common::transpose64_blocked(words.data(), width);
    }
  }

  // Induction-variable lane blocks, one row set per iv reg.
  for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) {
    for (unsigned j = 0; j < lanes; ++j) {
      iv_planes_[p][j] = iv_value(static_cast<int>(p), iter0 + j);
    }
    std::fill(iv_planes_[p].begin() + lanes, iv_planes_[p].begin() + block_lanes, 0);
    common::transpose64_blocked(iv_planes_[p].data(), width);
  }

  // 2. Wire the lane blocks to the fabric inputs. MAC results start at 0,
  //    as in the scalar engine, until their products are fed in.
  for (std::size_t i = 0; i < input_bindings_.size(); ++i) {
    const InputBinding& binding = input_bindings_[i];
    switch (binding.kind) {
      case InputBinding::Kind::kStream:
        packed_->set_input_block(
            i, &block_taps_[static_cast<std::size_t>(binding.tap_index)][binding.bit * width]);
        break;
      case InputBinding::Kind::kLiveIn: {
        const std::uint64_t lane = ((livein_cache_[i] >> binding.bit) & 1u) ? ~0ull : 0ull;
        for (unsigned w = 0; w < width; ++w) packed_->set_input(i, w, lane);
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
      case InputBinding::Kind::kAccState:
        break;  // set lane by lane in the state cone
    }
  }

  // 3. Evaluate all width*64 iterations stage by stage; after each stage,
  //    the MACs whose operands are now ready feed their products into the
  //    next one. A kernel with accumulator state then runs its final stage,
  //    the state cone, one lane at a time.
  const unsigned packed_stages = packed_->num_stages() - (state_inputs_.empty() ? 0 : 1);
  for (unsigned stage = 0; stage < packed_stages; ++stage) {
    packed_->run_stage(stage);
    for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
      if (!kernel_.mac_ops[m].accumulate && mac_stage_[m] == stage &&
          !mac_result_inputs_[m].empty()) {
        feed_mac_result(m, width);  // unread products are not formed
      }
    }
  }
  if (!state_inputs_.empty()) run_state_cone(lanes, acc);

  // 4. MAC accumulations: operands come out of the packed pass; the
  //    products of the valid lanes are summed in iteration order.
  std::array<std::uint64_t, kMaxPackedLanes> words_a;
  std::array<std::uint64_t, kMaxPackedLanes> words_b;
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    if (!kernel_.mac_ops[m].accumulate) continue;
    unpack_group(mac_a_groups_[m], words_a.data(), width);
    unpack_group(mac_b_groups_[m], words_b.data(), width);
    std::uint32_t sum = 0;
    for (unsigned j = 0; j < lanes; ++j) {
      sum += static_cast<std::uint32_t>(words_a[j]) * static_cast<std::uint32_t>(words_b[j]);
    }
    acc[static_cast<std::size_t>(kernel_.mac_ops[m].acc_index)] += sum;
  }

  // 5. Stream writes of the valid lanes, in iteration-major order (the
  //    scalar engine's order, in case two write taps alias).
  if (!kernel_.write_outputs.empty()) {
    for (std::size_t w = 0; w < kernel_.write_outputs.size(); ++w) {
      unpack_group(write_groups_[w], write_words_[w].data(), width);
    }
    for (unsigned j = 0; j < lanes; ++j) {
      for (std::size_t w = 0; w < kernel_.write_outputs.size(); ++w) {
        const auto& out = kernel_.write_outputs[w];
        const auto& stream = ir.streams[out.stream];
        const std::uint32_t addr =
            invocation.stream_bases[out.stream] +
            static_cast<std::uint32_t>(static_cast<std::int64_t>(stream.stride_bytes) *
                                       static_cast<std::int64_t>(iter0 + j)) +
            out.tap * static_cast<std::uint32_t>(stream.tap_stride_bytes);
        const std::uint32_t value = static_cast<std::uint32_t>(write_words_[w][j]);
        switch (stream.elem_bytes) {
          case 1: memory.write8(addr, static_cast<std::uint8_t>(value)); break;
          case 2: memory.write16(addr, static_cast<std::uint16_t>(value)); break;
          default: memory.write32(addr, value); break;
        }
      }
    }
  }

  // 6. A fabric-held accumulator ends at the last valid lane's next state
  //    (the state cone already threaded it there).
  for (const unsigned k : fabric_accs_) {
    std::uint32_t word = 0;
    for (const OutputBit& ob : acc_next_groups_[k]) {
      word |= static_cast<std::uint32_t>(packed_->output_lane(ob.output_index, lanes - 1))
              << ob.bit;
    }
    acc[k] = word;
  }
}

}  // namespace warp::hwsim
