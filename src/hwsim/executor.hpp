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
// Its constants (II, the pipeline depth and the derated clock) are fixed
// per kernel and computed once, at construction.
//
// One evaluation engine backs the cycle model: the lane-block engine
// (PackedEvaluator) evaluates W*64 loop iterations per pass (W in {1,2,4},
// fixed via PackedOptions or chosen per run), one contiguous W-word lane
// block per net, with batched stream tap reads and writes per block. The
// last trip % (W*64) iterations run as one partial block whose spare lanes
// are never read from or written to memory. A block is filled by 1..n
// invocation segments (run_packed_block), each with its own stream bases,
// IV starts and live-in lane masks: run() fills each block from one
// invocation, and run_shared_block() fills one block from several short
// invocations of an accumulator-free kernel that WclaDevice queued (see
// src/hwsim/README.md). Hard-MAC results that feed back into the fabric
// within an iteration are staged: the plan is split at the MACs, and
// between stages the W*64 products are formed lane by lane and fed in as
// inputs of the next stage. Fabric-held accumulator state (the flip-flops
// of an or/xor/and reduction) is threaded through a final stage that holds
// exactly the state cone, the LUTs that depend on the state: every earlier
// stage runs packed, then the cone runs lane by lane in iteration order,
// each lane reading the previous lane's next state.
//
// Only the bits LUTs compute cross the bit planes (64xW bit-matrix
// transposes). At construction every consumed word (stream write value,
// MAC operand) is classified from the sources of its netlist output bits
// (PortClasses): a constant word, a tap word (bit b from bit b of one read
// tap), a live-in word (bit b from bit b of one live-in), where constant
// bits may fill the rest of a tap or live-in word, or a computed word,
// gathered from the planes. The first three are formed per lane from the
// loaded words or the latched values. A read tap or IV register is
// transposed into planes only when a LUT or a computed word reads it, and
// only the fabric inputs something reads are wired. An accumulator-next bit
// wired to the same bit of its own state input is held: it is set once per
// block as a constant lane block, and the state cone sets and reads only
// the changing bits lane by lane.
//
// When iterations of one block cannot be evaluated side by side
// (ScalarReason: the invocation's streams may alias within a block, the
// kernel has state the cone cannot thread, or the DFG cross-check is on),
// run() evaluates 1-lane blocks: one iteration, that is one clock of the
// next-state function, per block. A kernel with a kernel-level reason gets
// a plan whose state inputs sit at stage 0, set from the accumulators at
// block start. 1-lane blocks go through the same block routine, port
// classes included.
//
// reference_run() below is the oracle every executor gate compares with:
// the kernel's dataflow graph (decompile::Dfg::eval), one iteration at a
// time. It shares no code with techmap or PackedEvaluator, so it also sees
// what the CAD flow got wrong. The DFG cross-check mode checks every 1-lane
// block's writes and accumulators against one reference_step.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
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
  std::vector<std::uint32_t> stream_bases;  // per stream, byte address
  std::vector<std::uint32_t> live_in;       // per live-in slot (order = ir.live_in_regs)
  std::vector<std::uint32_t> acc_init;      // per accumulator
};

/// The byte interval [lo, hi] one stream touches over a whole invocation.
struct StreamEnvelope {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool overlaps(const StreamEnvelope& other) const { return lo <= other.hi && other.lo <= hi; }
};

/// One invocation's share of a packed lane block: its iterations
/// [iter0, iter0 + lanes) fill block lanes [lane0, lane0 + lanes).
struct BlockSegment {
  const KernelInvocation* invocation = nullptr;
  std::uint64_t iter0 = 0;
  unsigned lane0 = 0;
  unsigned lanes = 0;
};

/// Why a run evaluated 1-lane blocks (kNone: it ran in full lane blocks).
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
  /// The DFG cross-check (verify_against_dfg) checks every iteration.
  kVerify,
};
inline constexpr std::size_t kScalarReasonCount =
    static_cast<std::size_t>(ScalarReason::kVerify) + 1;
const char* scalar_reason_name(ScalarReason reason);

struct KernelRunResult {
  std::uint64_t wcla_cycles = 0;
  double clock_mhz = 0.0;
  double time_ns = 0.0;
  std::vector<std::uint32_t> acc_final;  // per accumulator
  // For tests and the microbenchmark: the lane-block width (in 64-bit
  // words) of the run's blocks (0 when the trip is 0), how many blocks it
  // evaluated (the trip, when they were 1-lane blocks), and why it ran
  // 1-lane blocks.
  unsigned packed_width = 0;
  std::uint64_t packed_blocks = 0;
  ScalarReason scalar_reason = ScalarReason::kNone;
};

/// One write of a reference_step: `value`'s low `elem_bytes` bytes at `addr`.
struct ReferenceWrite {
  std::uint32_t addr = 0;
  unsigned elem_bytes = 4;
  std::uint32_t value = 0;
};

/// Iteration `iter` of `invocation` on the kernel's dataflow graph. Reads
/// the iteration's read taps from `memory`, appends the value of every
/// ir.writes node to `writes` (in program order; memory is not written),
/// and steps every accumulator, acc = acc <op> eval(acc node). Every node
/// sees the accumulators as they were at iteration start.
void reference_step(const decompile::KernelIR& ir, const sim::Memory& memory,
                    const KernelInvocation& invocation, std::uint64_t iter,
                    std::vector<std::uint32_t>& acc, std::vector<ReferenceWrite>& writes);

/// The whole invocation on the dataflow graph: one reference_step per
/// iteration, whose writes land before the next iteration reads. Returns
/// the final accumulators. Throws InternalError on a malformed invocation.
std::vector<std::uint32_t> reference_run(const decompile::KernelIR& ir, sim::Memory& memory,
                                         const KernelInvocation& invocation);

/// How one kernel's ports move through a lane block, fixed at construction
/// from the netlist (src/hwsim/README.md, "Port classes"). Words are the
/// consumed ones: every stream write value, every accumulating MAC's
/// operands, and the operands of every MAC whose product the fabric reads.
struct PortClasses {
  unsigned plane_taps = 0;      // read taps a LUT or a computed word reads
  unsigned iv_planes = 0;       // IV registers a wired fabric input reads
  unsigned constant_words = 0;  // every bit constant
  unsigned tap_words = 0;       // bit b from bit b of one read tap (or constant)
  unsigned live_in_words = 0;   // bit b from bit b of one live-in (or constant)
  unsigned computed_words = 0;  // gathered from the planes
  unsigned mac_feeds = 0;       // MAC products transposed back into the fabric
  unsigned held_state_bits = 0;  // accumulator-next bits wired to their own state

  /// 64xW bit-matrix transposes one lane block pays.
  unsigned transposes_per_block() const {
    return plane_taps + iv_planes + computed_words + mac_feeds;
  }
};

class KernelExecutor {
 public:
  /// `kernel` and `config` must outlive the executor. `packed` pins or
  /// auto-selects the width of the full lane blocks.
  KernelExecutor(const synth::HwKernel& kernel, const fabric::FabricConfig& config,
                 PackedOptions packed = {});

  /// Execute one invocation against `memory`.
  /// When `verify_against_dfg` is set, the run evaluates 1-lane blocks and
  /// checks each one's writes and accumulators against a reference_step
  /// (throws InternalError on mismatch — a CAD-flow bug, not a data error).
  common::Result<KernelRunResult> run(sim::Memory& memory, const KernelInvocation& invocation,
                                      bool verify_against_dfg = false);

  /// The cycle model alone: what run() reports for a trip of `trip`
  /// iterations in wcla_cycles, clock_mhz and time_ns.
  KernelRunResult timing(std::uint64_t trip) const;

  /// The lane-block width (words) of the shared block `invocation` may be
  /// queued into, or 0 when it must run alone through run(). Nonzero only
  /// for an accumulator-free kernel, a well-formed invocation with
  /// 0 < trip < width*64, and streams hazard-free within the trip. The
  /// width is the pinned one, or the
  /// widest the auto rule gives the plan (PackedEvaluator::choose_width of
  /// an unbounded trip). Fills `envelopes` with one entry per stream.
  unsigned shared_block_width(const KernelInvocation& invocation,
                              std::vector<StreamEnvelope>& envelopes);
  /// Run `count` segments, each a whole invocation that shared_block_width
  /// accepted, as one packed block, lane0 = the lanes of the segments
  /// before it. No invocation may read what an earlier one writes: the
  /// block reads every lane before it writes any. Runs at the pinned width,
  /// or the narrowest that holds the lanes.
  void run_shared_block(sim::Memory& memory, const BlockSegment* segments, std::size_t count);

  /// Re-pin or re-enable auto selection of the lane-block width (used by
  /// the width-sweep microbenchmark). Throws on unsupported widths.
  void set_packed_options(PackedOptions packed);
  const PackedOptions& packed_options() const { return packed_options_; }
  /// True when the kernel itself permits full lane blocks: any
  /// accumulator state it feeds back is fabric-held and read by no MAC
  /// operand. Individual invocations may still run 1-lane blocks when their
  /// streams alias.
  bool packed_supported() const { return scalar_reason_ == ScalarReason::kNone; }
  /// Why every run of this kernel evaluates 1-lane blocks (kNone when
  /// packed_supported()).
  ScalarReason scalar_reason() const { return scalar_reason_; }
  /// LUT nodes surviving the plan's constant/wire folding.
  std::size_t packed_node_count() const { return packed_->node_count(); }
  /// The kernel's port classes, the same for every block shape.
  const PortClasses& port_classes() const { return port_classes_; }

  const synth::HwKernel& kernel() const { return kernel_; }
  const fabric::FabricConfig& config() const { return config_; }

 private:
  struct InputBinding {
    enum class Kind : std::uint8_t { kStream, kLiveIn, kIv, kMacResult, kAccState };
    Kind kind = Kind::kLiveIn;
    unsigned a = 0;    // stream | reg | mac index | acc index
    unsigned bit = 0;
    int iv_pos = -1;   // kIv: index into ir.iv_regs (-1: unknown reg, reads 0)
    int tap_index = -1;  // kStream: flattened (stream, tap) index
    int slot = -1;     // kLiveIn: live-in slot (-1: not latched, reads 0)
  };
  /// One netlist output bit contributing to a word read (write value, MAC
  /// operand, or next accumulator state).
  struct OutputBit {
    unsigned bit = 0;
    std::uint32_t output_index = 0;  // netlist output
  };
  using OutputGroup = std::vector<OutputBit>;
  /// A consumed word and how each lane of it is formed (see PortClasses).
  /// Every kind but kComputed skips the planes: lane value =
  /// (source & mask) | ones, the source being a loaded tap word (kTap), a
  /// segment's latched live-in (kLiveIn) or nothing (kConstant).
  struct WordPort {
    enum class Kind : std::uint8_t { kConstant, kTap, kLiveIn, kComputed };
    OutputGroup bits;
    Kind kind = Kind::kComputed;
    std::uint32_t ones = 0;  // constant-1 bits
    std::uint32_t mask = 0;  // bits taken from the source
    int source = -1;         // kTap: flat tap index; kLiveIn: slot (-1 reads 0)
  };
  /// A fabric-held accumulator: its held bits (next state = state) and the
  /// next-state bits the fabric changes.
  struct FabricAcc {
    unsigned index = 0;
    std::uint32_t held = 0;
    OutputGroup changing;
  };

  /// Builds the port tables, and the packed plan when the kernel permits.
  void bind_ports();
  /// Classifies every consumed word and state bit, and lists the planes to
  /// build and the fabric inputs to wire (everything a LUT or a computed
  /// word reads). Fills port_classes_.
  void classify_ports();
  /// The reason the packed plan cannot thread the kernel's accumulator
  /// state (kNone when it can, or there is none).
  ScalarReason check_state_cone() const;
  /// Stages the MAC ops for the plan: sets mac_stage_ and returns each
  /// primary input's evaluation stage. The state inputs of a kernel the
  /// cone can thread enter one past the last MAC stage (the cone stage);
  /// any other kernel's enter at stage 0. Throws InternalError when a MAC's
  /// operands read its own or a later MAC's result, which an in-order MAC
  /// sequence would evaluate differently.
  std::vector<unsigned> stage_macs();

  /// Each stream's envelope over `invocation` into `out`; false when an
  /// address wraps 32 bits.
  bool stream_envelopes(const KernelInvocation& invocation, StreamEnvelope* out) const;
  /// True when the invocation's write streams cannot feed a read stream
  /// within one `block_lanes`-iteration block (a block reads every lane
  /// before it writes any, which keeps the one-iteration-at-a-time
  /// read-then-write order only across iterations in different positions). Wider blocks widen the hazard window, so this is checked
  /// per candidate width. `envelopes` are the invocation's (stream_envelopes).
  bool streams_hazard_free(const KernelInvocation& invocation, const StreamEnvelope* envelopes,
                           unsigned block_lanes) const;
  /// Lane-block width (words) of this invocation's full lane blocks; 0
  /// when it must run 1-lane blocks.
  unsigned select_packed_width(const KernelInvocation& invocation);

  /// The one block routine: `count` >= 1 segments filling lanes [0, lanes)
  /// of a width*64-lane block, contiguous and in lane order. Accumulator
  /// state threads through `acc`, so a kernel with accumulators runs one
  /// segment per block.
  void run_packed_block(sim::Memory& memory, const BlockSegment* segments, std::size_t count,
                        unsigned width, std::vector<std::uint32_t>& acc);
  /// Form MAC m's products for every lane of the block and feed them into
  /// the primary inputs bound to its result.
  void feed_mac_result(std::size_t m, const BlockSegment* segments, std::size_t count,
                       unsigned width);
  /// Run the state cone (the plan's final stage) over `lanes` lanes in
  /// iteration order, threading the fabric-held accumulators through acc.
  void run_state_cone(unsigned lanes, std::vector<std::uint32_t>& acc);
  /// Fabric-held accumulator `f`'s next state in block lane `lane`, from
  /// its present state `state`.
  std::uint32_t next_state(const FabricAcc& f, std::uint32_t state, unsigned lane) const;
  /// Throws InternalError unless the 1-lane block of iteration `iter` wrote
  /// `expect`'s values and left the accumulators at `expect_acc`.
  void check_against_dfg(std::uint64_t iter, const std::vector<ReferenceWrite>& expect,
                         const std::vector<std::uint32_t>& expect_acc,
                         const std::vector<std::uint32_t>& acc) const;

  /// `port`'s word for the block's valid lanes, one per lane in the low 32
  /// bits of `words` (a computed word fills all width*64 rows).
  void form_word(const WordPort& port, const BlockSegment* segments, std::size_t count,
                 unsigned width, std::uint64_t* words) const;

  const synth::HwKernel& kernel_;
  const fabric::FabricConfig& config_;
  PackedOptions packed_options_;
  ScalarReason scalar_reason_ = ScalarReason::kNone;
  bool state_cone_ = false;  // the plan's final stage is the state cone
  // The cycle model's per-kernel constants.
  unsigned initiation_interval_ = 1;
  std::uint64_t fixed_cycles_ = 0;  // pipeline stages + kStartupCycles
  double clock_mhz_ = 0.0;

  std::vector<InputBinding> input_bindings_;  // per primary input
  std::vector<WordPort> write_ports_;         // per kernel write output
  std::vector<WordPort> mac_a_ports_;         // per MAC op
  std::vector<WordPort> mac_b_ports_;         // per MAC op
  std::vector<OutputGroup> acc_next_groups_;  // per accumulator
  std::vector<std::vector<std::uint32_t>> mac_result_inputs_;  // per MAC op: bound inputs
  std::vector<std::uint32_t> state_inputs_;   // kAccState inputs
  std::vector<FabricAcc> fabric_accs_;        // accumulators held in fabric flip-flops
  std::vector<unsigned> mac_stage_;  // per MAC op: plan stage its operands are ready in
  std::vector<unsigned> tap_base_;            // per stream: flattened tap index base
  std::vector<int> iv_slot_;                  // per ir.iv_regs entry: live-in slot (-1: none)
  std::vector<std::int32_t> iv_step_;         // per ir.iv_regs entry

  // What a block moves, from classify_ports().
  PortClasses port_classes_;
  std::vector<int> tap_plane_;       // per flat tap: block_taps_ row of its planes (-1: none)
  std::vector<unsigned> iv_used_;    // ir.iv_regs entries whose plane is built
  std::vector<std::size_t> fed_macs_;  // non-accumulating MACs whose products are fed
  // Fabric inputs something reads, set once per block (state inputs of the
  // cone's held bits included), and the cone's changing state inputs, set
  // lane by lane.
  std::vector<std::uint32_t> block_inputs_;
  std::vector<std::uint32_t> lane_state_inputs_;

  std::optional<PackedEvaluator> packed_;  // compiled in bind_ports()

  // Per-run scratch.
  std::vector<StreamEnvelope> envelopes_;     // per stream
  // Rows [0, taps): per flat (stream, tap) index, the loaded words, one per
  // lane. A tap only planes read is block-transposed in place, so the W
  // words starting at row b*W are the lane block of tap bit b; a tap that
  // tap words read too is copied into a row past the taps and transposed
  // there. Sized for the widest block; narrower widths use a prefix.
  std::vector<std::array<std::uint64_t, kMaxPackedLanes>> block_taps_;
  std::vector<std::array<std::uint64_t, kMaxPackedLanes>> iv_planes_;   // per iv reg
  std::vector<std::array<std::uint64_t, kMaxPackedLanes>> write_words_;  // per write output
};

}  // namespace warp::hwsim
