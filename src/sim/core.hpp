// Cycle-approximate MicroBlaze-subset core.
//
// Models the 3-stage MicroBlaze pipeline at the level the study needs:
// each instruction retires with its class latency (ALU 1, mul 3, div 32,
// load/store 2, taken branch 3 / not-taken 1, jumps 3 — see
// isa::latency_cycles). The core exposes:
//   - a branch hook feeding the non-intrusive on-chip profiler, which in
//     hardware snoops the instruction-side LMB;
//   - OPB device dispatch for data accesses at/above sim::kOpbBase;
//   - separate active/idle cycle counters for the Figure 5 energy model.
// Each fetched word is decoded once into a table indexed by PC; any write to
// the instruction Memory drops the table (see src/sim/README.md). The core
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

  /// The branch hook fires for every conditional branch and direct jump
  /// (what an instruction-bus snooper can observe).
  using BranchHook = std::function<void(std::uint32_t pc, std::uint32_t target, bool taken)>;
  void set_branch_hook(BranchHook hook) { branch_hook_ = std::move(hook); }

  void add_device(OpbDevice* device) { devices_.push_back(device); }

  /// Execute one instruction; returns false if halted or on error. A
  /// caller that steps by hand and then reads data memory itself settles
  /// it first (Memory::settle).
  bool step();
  /// Run until halt or the instruction limit. Returns the stop reason. The
  /// data Memory holds no deferred work when it returns or throws.
  StopReason run(std::uint64_t max_instructions = 500'000'000);

  /// Last error message (valid after StopReason::kError).
  const std::string& error() const { return error_; }

 private:
  /// One predecoded instruction word: the decoded fields plus everything a
  /// step would otherwise ask isa.cpp for.
  struct Decoded {
    isa::Instr instr;
    isa::InstrClass cls = isa::InstrClass::kAlu;  // kBranch: beq..bge
    std::array<std::uint8_t, 2> cycles{};         // latency not taken / taken
    bool branch_event = false;                    // seen by the branch hook
    bool valid = false;                           // decoded since the table was dropped
  };

  /// Entry for pc_, decoding the word on first fetch. Null (with error_ set
  /// and the core halted) on a bad PC, an invalid word or a word that needs
  /// a unit this core lacks.
  const Decoded* fetch();
  const Decoded* decode_at_pc();
  std::uint32_t data_read(std::uint32_t addr, unsigned size);
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
  std::vector<Decoded> decoded_;  // by pc / 4, up to the highest fetched word
  std::uint64_t decoded_generation_ = 0;  // instr_mem_.generation() it matches
  std::vector<OpbDevice*> devices_;
  OpbDevice* last_device_ = nullptr;  // hot loops hit the same device repeatedly
  std::string error_;
};

}  // namespace warp::sim
