// Cycle-level execution of a configured WCLA kernel.
//
// The executor runs the *mapped* LUT netlist (not the source dataflow
// graph), so a run exercises the entire ROCPART flow end to end: what the
// fabric computes is what the cut-based mapper produced from the bit-blasted
// netlist. Stream data moves through the shared (dual-ported) data BRAM,
// mirroring Figure 3's DADG <-> BRAM connection. The cycle model:
//
//   cycles = II * trip + pipeline_latency + kStartupCycles
//     II   = max(1, BRAM accesses/iter, MAC ops/iter)    (port conflicts)
//   clock  = fabric clock after critical-path derating
//
// Two evaluation engines back the same cycle model:
//   - a packed lane-block engine (PackedEvaluator) that evaluates W*64 loop
//     iterations per pass (W in {1,2,4}, fixed via PackedOptions or chosen
//     per run), one contiguous W-word lane block per net, with batched
//     stream tap reads and writes per block. The last trip % (W*64)
//     iterations run as one partial block whose spare lanes are never read
//     from or written to memory. Hard-MAC results that feed back into the
//     fabric within an iteration are staged: the plan is split at the MACs,
//     and between stages the W*64 products are formed lane by lane and fed
//     in as inputs of the next stage. Fabric-held accumulator state (the
//     flip-flops of an or/xor/and reduction) is threaded through a final
//     stage that holds exactly the state cone, the LUTs that depend on the
//     state: every earlier stage runs packed, then the cone runs lane by
//     lane in iteration order, each lane reading the previous lane's next
//     state. Used unless the invocation's read/write streams may alias
//     within a block (auto mode narrows the block until it is hazard-free
//     before giving up), or the kernel has state the cone cannot thread
//     (ScalarReason);
//   - the scalar reference engine (one iteration at a time over the shared
//     techmap::resolve_ref reference semantics), used for those kernels and
//     invocations, for the golden DFG cross-check mode, and when forced.
//
// The executor also provides a golden cross-check mode that evaluates the
// original dataflow graph and verifies the fabric against it per iteration.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "fabric/wcla.hpp"
#include "hwsim/packed_eval.hpp"
#include "sim/memory.hpp"
#include "synth/hw_kernel.hpp"

namespace warp::hwsim {

inline constexpr unsigned kStartupCycles = 2;  // DADG setup + result writeback

/// Per-invocation inputs provided by the patched software stub.
struct KernelInvocation {
  std::uint64_t trip = 0;
  std::vector<std::uint32_t> stream_bases;        // per stream, byte address
  std::unordered_map<unsigned, std::uint32_t> live_in;  // reg -> value
  std::vector<std::uint32_t> acc_init;            // per accumulator
};

/// Why a run used the scalar reference engine (kNone: it ran packed).
enum class ScalarReason : std::uint8_t {
  kNone,
  /// The fabric reads the running value of a MAC-held (add) accumulator,
  /// which the MAC updates every iteration.
  kMacHeldState,
  /// A MAC operand depends on fabric-held accumulator state, so the MAC
  /// would have to run inside the lane-by-lane state cone.
  kMacOperandInCone,
  /// The write streams may alias the read streams within a block at every
  /// width tried.
  kStreamAlias,
  /// The golden DFG cross-check (verify_against_dfg) runs scalar.
  kVerify,
  /// EvalEngine::kScalar.
  kForcedScalar,
};
const char* scalar_reason_name(ScalarReason reason);

struct KernelRunResult {
  std::uint64_t wcla_cycles = 0;
  double clock_mhz = 0.0;
  double time_ns = 0.0;
  std::vector<std::uint32_t> acc_final;  // per accumulator
  // Engine split, for tests and the microbenchmark: how many iterations ran
  // through the packed lane-block engine vs. the scalar reference engine,
  // the lane-block width (in 64-bit words) the packed passes used (0 when
  // no packed pass ran), and why the run was scalar.
  std::uint64_t packed_iterations = 0;
  std::uint64_t scalar_iterations = 0;
  unsigned packed_width = 0;
  ScalarReason scalar_reason = ScalarReason::kNone;
};

class KernelExecutor {
 public:
  /// Which evaluation engine run() uses. kAuto picks the packed engine
  /// whenever it is safe (state the cone can thread, no intra-block stream
  /// aliasing) and falls back to the scalar reference otherwise; kScalar
  /// forces the reference engine (the microbenchmark's baseline).
  enum class EvalEngine : std::uint8_t { kAuto, kScalar };

  /// `kernel` and `config` must outlive the executor. `packed` pins or
  /// auto-selects the lane-block width of the packed engine.
  KernelExecutor(const synth::HwKernel& kernel, const fabric::FabricConfig& config,
                 PackedOptions packed = {});

  /// Execute one invocation against `memory`.
  /// When `verify_against_dfg` is set, every iteration is cross-checked
  /// against the dataflow-graph golden model (throws InternalError on
  /// mismatch — a CAD-flow bug, not a data error); verification always runs
  /// on the scalar engine.
  common::Result<KernelRunResult> run(sim::Memory& memory, const KernelInvocation& invocation,
                                      bool verify_against_dfg = false);

  void set_engine(EvalEngine engine) { engine_ = engine; }
  /// Re-pin or re-enable auto selection of the lane-block width (used by
  /// the width-sweep microbenchmark). Throws on unsupported widths.
  void set_packed_options(PackedOptions packed);
  const PackedOptions& packed_options() const { return packed_options_; }
  /// True when the kernel itself permits packed evaluation: any
  /// accumulator state it feeds back is fabric-held and read by no MAC
  /// operand. Individual invocations may still fall back when their streams
  /// alias.
  bool packed_supported() const { return scalar_reason_ == ScalarReason::kNone; }
  /// Why every run of this kernel is scalar (kNone when packed_supported()).
  ScalarReason scalar_reason() const { return scalar_reason_; }
  /// LUT nodes surviving the packed plan's constant/wire folding (0 when
  /// the kernel cannot use the packed engine).
  std::size_t packed_node_count() const { return packed_ ? packed_->node_count() : 0; }

  const synth::HwKernel& kernel() const { return kernel_; }
  const fabric::FabricConfig& config() const { return config_; }

 private:
  struct InputBinding {
    enum class Kind : std::uint8_t { kStream, kLiveIn, kIv, kMacResult, kAccState };
    Kind kind = Kind::kLiveIn;
    unsigned a = 0;    // stream | reg | mac index | acc index
    unsigned b = 0;    // tap (streams)
    unsigned bit = 0;
    int iv_pos = -1;   // kIv: index into ir.iv_regs (-1: unknown reg, reads 0)
    int tap_index = -1;  // kStream: flattened (stream, tap) scratch index
  };
  /// One netlist output bit contributing to a word read (write value, MAC
  /// operand, or next accumulator state).
  struct OutputBit {
    unsigned bit = 0;
    std::uint32_t output_index = 0;  // netlist output (for the packed engine)
    techmap::NetRef source;          // resolved source (for the scalar engine)
  };
  using OutputGroup = std::vector<OutputBit>;

  /// Builds the port tables, and the packed plan when the kernel permits.
  void bind_ports();
  /// The reason the packed plan cannot thread the kernel's accumulator
  /// state (kNone when it can, or there is none).
  ScalarReason check_state_cone() const;
  /// Stages the MAC ops for the packed plan: sets mac_stage_ and returns
  /// each primary input's evaluation stage, with the state inputs one past
  /// the last MAC stage. Throws InternalError when a MAC's operands read its
  /// own or a later MAC's result, which the scalar engine's in-order MAC
  /// sequencing would evaluate differently.
  std::vector<unsigned> stage_macs();
  std::uint32_t read_group_word(const OutputGroup& group,
                                const std::vector<bool>& lut_values) const;
  int find_write_node(unsigned stream, unsigned tap) const;

  /// True when the invocation's write streams cannot feed a read stream
  /// within one `block_lanes`-iteration block (packed batching preserves
  /// the scalar read-then-write order only across iterations in different
  /// positions). Wider blocks widen the hazard window, so this is checked
  /// per candidate width.
  bool streams_hazard_free(const KernelInvocation& invocation, unsigned block_lanes) const;
  /// Lane-block width (words) the packed engine will use for this
  /// invocation; 0 when the invocation must run scalar.
  unsigned select_packed_width(const KernelInvocation& invocation) const;

  void run_scalar_iter(sim::Memory& memory, const KernelInvocation& invocation,
                       std::uint64_t iter, std::vector<std::uint32_t>& acc,
                       bool verify_against_dfg);
  /// One packed block of `lanes` <= width*64 iterations starting at iter0.
  void run_packed_block(sim::Memory& memory, const KernelInvocation& invocation,
                        std::uint64_t iter0, unsigned lanes, std::vector<std::uint32_t>& acc,
                        unsigned width);
  /// Form MAC m's products for every lane of the block and feed them into
  /// the primary inputs bound to its result.
  void feed_mac_result(std::size_t m, unsigned width);
  /// Run the state cone (the plan's final stage) over `lanes` lanes in
  /// iteration order, threading the fabric-held accumulators through acc.
  void run_state_cone(unsigned lanes, std::vector<std::uint32_t>& acc);

  std::uint32_t iv_value(int iv_pos, std::uint64_t iter) const;
  /// Gather a word group out of the packed pass: lane blocks in, one word
  /// per iteration out (in the low 32 bits of each of the width*64 rows).
  void unpack_group(const OutputGroup& group, std::uint64_t* words, unsigned width) const;

  const synth::HwKernel& kernel_;
  const fabric::FabricConfig& config_;
  EvalEngine engine_ = EvalEngine::kAuto;
  PackedOptions packed_options_;
  ScalarReason scalar_reason_ = ScalarReason::kNone;

  std::vector<InputBinding> input_bindings_;  // per primary input
  std::vector<OutputGroup> write_groups_;     // per kernel write output
  std::vector<OutputGroup> mac_a_groups_;     // per MAC op
  std::vector<OutputGroup> mac_b_groups_;     // per MAC op
  std::vector<OutputGroup> acc_next_groups_;  // per accumulator
  std::vector<std::vector<std::uint32_t>> mac_result_inputs_;  // per MAC op: bound inputs
  std::vector<std::uint32_t> state_inputs_;   // kAccState inputs
  std::vector<unsigned> fabric_accs_;         // accumulators held in fabric flip-flops
  std::vector<unsigned> mac_stage_;  // per MAC op: packed stage its operands are ready in
  std::unordered_map<std::uint32_t, int> write_node_;  // (stream<<16|tap) -> DFG node
  std::vector<unsigned> tap_base_;            // per stream: flattened tap index base

  std::optional<PackedEvaluator> packed_;  // compiled only when supported

  // Per-run state (valid during run()).
  std::vector<std::uint32_t> iv_init_;        // per ir.iv_regs entry
  std::vector<std::int32_t> iv_step_;
  std::vector<std::uint32_t> livein_cache_;   // per input binding (kLiveIn)
  std::vector<std::vector<std::uint32_t>> tap_values_;  // scalar scratch
  std::vector<bool> inputs_;                  // scalar scratch
  std::vector<std::uint32_t> mac_results_;    // scalar scratch
  std::vector<std::uint32_t> acc_start_of_iter_;
  // Per flat (stream, tap) index: loaded as one word per iteration, then
  // block-transposed in place so the W words starting at row b*W are the
  // lane block of tap bit b. Sized for the widest block; narrower widths
  // use a prefix.
  std::vector<std::array<std::uint64_t, kMaxPackedLanes>> block_taps_;
  std::vector<std::array<std::uint64_t, kMaxPackedLanes>> iv_planes_;   // per iv reg
  std::vector<std::array<std::uint64_t, kMaxPackedLanes>> write_words_;  // per write output
};

}  // namespace warp::hwsim
