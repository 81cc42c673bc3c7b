// Cycle-approximate MicroBlaze-subset core.
//
// Models the 3-stage MicroBlaze pipeline at the level the study needs:
// each instruction retires with its class latency (ALU 1, mul 3, div 32,
// load/store 2, taken branch 3 / not-taken 1, jumps 3 — see
// isa::latency_cycles). The core exposes:
//   - a loop-branch sink feeding the non-intrusive on-chip profiler, which
//     in hardware snoops the instruction-side LMB;
//   - OPB device dispatch for data accesses at/above sim::kOpbBase;
//   - separate active/idle cycle counters for the Figure 5 energy model.
// Each fetched word is decoded once into a table indexed by PC; any write to
// the instruction Memory drops the table (see src/sim/README.md). run()
// executes superblocks over that table: runs of consecutive entries along
// the fall-through path, where a taken conditional branch is a side exit.
// It charges their counters in one pass over the table when it returns or
// throws, so CoreStats is exact then, and between step() calls. The core
// settles the data Memory's deferred work (a WCLA's queued invocations)
// before each data load or store below kOpbBase and on every exit from
// run(); the instruction Memory accepts no deferred work, so fetch never
// settles.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/isa.hpp"
#include "profiler/profiler.hpp"
#include "sim/device.hpp"
#include "sim/memory.hpp"

namespace warp::sim {

/// Why a run() call returned.
enum class StopReason { kHalted, kMaxInstructions, kError };

/// Execution statistics for the timing / energy / ARM models.
struct CoreStats {
  std::uint64_t cycles = 0;       // total, including idle
  std::uint64_t idle_cycles = 0;  // waiting on OPB devices (WCLA execution)
  std::uint64_t instructions = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t not_taken_branches = 0;
  std::array<std::uint64_t, 10> per_class{};  // indexed by isa::InstrClass

  bool operator==(const CoreStats&) const = default;

  std::uint64_t active_cycles() const { return cycles - idle_cycles; }
  std::uint64_t count(isa::InstrClass c) const {
    return per_class[static_cast<std::size_t>(c)];
  }
  double seconds(double clock_mhz) const {
    return static_cast<double>(cycles) / (clock_mhz * 1e6);
  }
};

class Core {
 public:
  /// The core owns neither memory: the instruction BRAM is shared with the
  /// DPM (binary patching) and the data BRAM with the WCLA (DADG streaming).
  /// Marks `instr_mem` fetched (Memory::mark_fetched), so it never holds
  /// deferred work, also when it is `data_mem` too.
  Core(Memory& instr_mem, Memory& data_mem, isa::CpuConfig config);

  /// Load a program at instruction address 0 and reset the core.
  void load_program(const isa::Program& program);
  void reset();

  /// Registers / PC access (r0 reads as zero and ignores writes).
  std::uint32_t reg(unsigned index) const { return regs_[index]; }
  void set_reg(unsigned index, std::uint32_t value) {
    if (index != 0) regs_[index] = value;
  }
  std::uint32_t pc() const { return pc_; }
  void set_pc(std::uint32_t pc) { pc_ = pc; }
  bool halted() const { return halted_; }

  const CoreStats& stats() const { return stats_; }
  void clear_stats() { stats_ = CoreStats{}; }
  const isa::CpuConfig& config() const { return config_; }
  Memory& data_mem() { return data_mem_; }
  Memory& instr_mem() { return instr_mem_; }

  /// The branch hook fires for every taken backward branch among the
  /// conditional branches, `br` and `brl`, with target < pc: a loop
  /// iteration, the only event the on-chip profiler keeps (an
  /// instruction-bus snooper sees it as a backward jump of the fetch
  /// address). `taken` is always true. No other branch reaches it: forward
  /// and not-taken branches, `brr` and `rtsd` never do.
  using BranchHook = std::function<void(std::uint32_t pc, std::uint32_t target, bool taken)>;
  void set_branch_hook(BranchHook hook) { branch_hook_ = std::move(hook); }
  /// The same events, fed straight to a profiler (the system's own sink,
  /// without a std::function call). Not owned; null for none. Both sinks,
  /// when set, see every event.
  void set_profiler(profiler::Profiler* profiler) { profiler_ = profiler; }

  void add_device(OpbDevice* device) { devices_.push_back(device); }

  /// Execute one instruction; returns false if halted or on error. This is
  /// the one-instruction reference that run() must match. A caller that
  /// steps by hand and then reads data memory itself settles it first
  /// (Memory::settle).
  bool step();
  /// Run until halt or the instruction limit. Returns the stop reason. The
  /// data Memory holds no deferred work when it returns or throws, and
  /// stats() is exact: a throw charges exactly the instructions that
  /// retired before it.
  StopReason run(std::uint64_t max_instructions = 500'000'000);

  /// Last error message (valid after StopReason::kError).
  const std::string& error() const { return error_; }

 private:
  /// One predecoded instruction word: the decoded fields plus everything a
  /// step would otherwise ask isa.cpp for, and the superblock it belongs to.
  struct Decoded {
    isa::Instr instr;
    /// The immediate a superblock executes: instr.imm combined with an IMM
    /// word right before this one, since inside a superblock that word ran
    /// just before. step() combines its latch itself.
    std::int32_t imm = 0;
    isa::InstrClass cls = isa::InstrClass::kAlu;  // kBranch: beq..bge
    std::array<std::uint8_t, 2> cycles{};         // latency not taken / taken
    bool prefixed = false;  // follows an IMM word: no superblock starts here
    bool valid = false;     // decoded since the table was dropped
    /// Instructions from here to the end of the superblock along the
    /// fall-through path; 0 until formed. 1 marks the last entry.
    std::uint32_t run = 0;
    // Superblock traffic since the last fold: superblocks entered here,
    // taken side exits here, and other early exits after this entry (a
    // throw in the next one, or a store that rewrote instruction memory).
    // Reaching the last entry exits without a count.
    std::uint64_t enters = 0;
    std::uint64_t taken = 0;
    std::uint64_t exits = 0;
  };

  /// How an executed instruction leaves the PC.
  enum class Flow : std::uint8_t {
    kNext,    // falls through
    kSync,    // falls through after a store or an OPB access, which may
              // have written the instruction Memory
    kBranch,  // taken conditional branch
    kJump,    // br, brl
    kEnd,     // brr, rtsd, halt
  };

  /// How a superblock ended: instructions retired, and the branch pc when
  /// it ended on a taken backward branch (pc_ holds the target).
  struct SuperblockExit {
    std::uint32_t retired = 0;
    bool loop_branch = false;
    std::uint32_t branch_pc = 0;
  };

  /// Entry for pc_, decoding the word on first fetch. Null (with error_ set
  /// and the core halted) on a bad PC, an invalid word or a word that needs
  /// a unit this core lacks.
  const Decoded* fetch();
  /// Decode the word at table index `index` unless it is already in the
  /// table. False, with nothing entered, for a word that cannot be cached:
  /// past the instruction BRAM, invalid, or needing an absent unit.
  bool decode(std::size_t index);
  /// Why the word at pc_ cannot be fetched: sets error_ and halts.
  [[gnu::cold, gnu::noinline]] void fetch_fault();
  /// Superblock length entered at `index`, forming it along the
  /// fall-through path on first entry; 0 when the word cannot be cached.
  /// May grow the table: no reference into it survives.
  [[gnu::noinline]] std::uint32_t form_superblock(std::size_t index);
  SuperblockExit run_superblock(std::size_t index);
  /// Charge the superblock counters to stats_ and clear them.
  [[gnu::noinline]] void fold_superblocks();
  /// Drop the table if the instruction Memory changed since it was built.
  void check_generation();
  /// Execute one instruction at `pc` with effective immediate `imm`;
  /// `next_pc` holds pc + 4 on entry and the next PC on return.
  Flow execute(const isa::Instr& instr, std::int32_t imm, std::uint32_t pc,
               std::uint32_t& next_pc);
  /// A taken backward branch: feed both sinks.
  void loop_branch(std::uint32_t pc, std::uint32_t target);
  std::uint32_t data_read(std::uint32_t addr, unsigned size, Flow& flow);
  void data_write(std::uint32_t addr, std::uint32_t value, unsigned size);
  /// The barrier's slow path, out of line so the load/store path stays a
  /// pointer test.
  [[gnu::cold, gnu::noinline]] void settle_data_mem();
  OpbDevice* find_device(std::uint32_t addr);

  Memory& instr_mem_;
  Memory& data_mem_;
  isa::CpuConfig config_;
  std::array<std::uint32_t, isa::kNumRegisters> regs_{};
  std::uint32_t pc_ = 0;
  bool halted_ = false;
  bool imm_valid_ = false;
  std::uint32_t imm_latch_ = 0;
  CoreStats stats_;
  BranchHook branch_hook_;
  profiler::Profiler* profiler_ = nullptr;
  std::vector<Decoded> decoded_;  // by pc / 4, up to the highest decoded word
  std::uint64_t decoded_generation_ = 0;  // instr_mem_.generation() it matches
  std::vector<OpbDevice*> devices_;
  OpbDevice* last_device_ = nullptr;  // hot loops hit the same device repeatedly
  std::string error_;
};

}  // namespace warp::sim
