#include "sim/core.hpp"

#include <limits>
#include <optional>

#include "common/strings.hpp"

namespace warp::sim {

using isa::Instr;
using isa::InstrClass;
using isa::Opcode;

Core::Core(Memory& instr_mem, Memory& data_mem, isa::CpuConfig config)
    : instr_mem_(instr_mem), data_mem_(data_mem), config_(config) {
  instr_mem_.mark_fetched();
}

void Core::load_program(const isa::Program& program) {
  instr_mem_.load_words(0, program.words);
  reset();
}

void Core::reset() {
  regs_.fill(0);
  pc_ = 0;
  halted_ = false;
  imm_valid_ = false;
  imm_latch_ = 0;
  error_.clear();
}

OpbDevice* Core::find_device(std::uint32_t addr) {
  if (last_device_ && last_device_->contains(addr)) return last_device_;
  for (auto* device : devices_) {
    if (device->contains(addr)) {
      last_device_ = device;
      return device;
    }
  }
  return nullptr;
}

std::uint32_t Core::data_read(std::uint32_t addr, unsigned size, Flow& flow) {
  if (addr >= kOpbBase) {
    OpbDevice* device = find_device(addr);
    if (!device) throw common::InternalError("OPB read from unmapped address");
    const OpbReadResult result = device->read32(addr);
    stats_.cycles += result.idle_cycles + kOpbExtraCycles;
    stats_.idle_cycles += result.idle_cycles;
    flow = Flow::kSync;
    return result.value;
  }
  if (data_mem_.has_deferred_work()) settle_data_mem();
  switch (size) {
    case 1: return data_mem_.read8(addr);
    case 2: return data_mem_.read16(addr);
    default: return data_mem_.read32(addr);
  }
}

void Core::settle_data_mem() { data_mem_.settle(); }

void Core::data_write(std::uint32_t addr, std::uint32_t value, unsigned size) {
  if (addr >= kOpbBase) {
    OpbDevice* device = find_device(addr);
    if (!device) throw common::InternalError("OPB write to unmapped address");
    device->write32(addr, value);
    stats_.cycles += kOpbExtraCycles;
    return;
  }
  if (data_mem_.has_deferred_work()) settle_data_mem();
  switch (size) {
    case 1: data_mem_.write8(addr, static_cast<std::uint8_t>(value)); break;
    case 2: data_mem_.write16(addr, static_cast<std::uint16_t>(value)); break;
    default: data_mem_.write32(addr, value); break;
  }
}

void Core::check_generation() {
  if (instr_mem_.generation() == decoded_generation_) return;
  fold_superblocks();
  decoded_.clear();
  decoded_generation_ = instr_mem_.generation();
}

const Core::Decoded* Core::fetch() {
  check_generation();
  const std::size_t index = pc_ >> 2;
  if ((pc_ & 3u) == 0 && decode(index)) return &decoded_[index];
  fetch_fault();
  return nullptr;
}

namespace {

/// The word at `addr` decoded, when it fits in `mem` and is valid.
std::optional<Instr> decode_word(const Memory& mem, std::size_t addr) {
  if (addr + 4 > mem.size()) return std::nullopt;
  return isa::decode(mem.read32(static_cast<std::uint32_t>(addr)));
}

bool needs_absent_unit(Opcode op, const isa::CpuConfig& config) {
  return (isa::requires_barrel_shifter(op) && !config.has_barrel_shifter) ||
         (isa::requires_multiplier(op) && !config.has_multiplier) ||
         (isa::requires_divider(op) && !config.has_divider);
}

/// The immediate of an instruction whose IMM prefix latched `latch`.
std::int32_t combine_imm(std::uint32_t latch, std::int32_t imm) {
  return static_cast<std::int32_t>((latch << 16) | (static_cast<std::uint32_t>(imm) & 0xFFFFu));
}

/// br, brl, brr, rtsd and halt end a superblock; a conditional branch is a
/// side exit and does not.
bool ends_superblock(InstrClass cls) {
  return cls == InstrClass::kJump || cls == InstrClass::kHalt;
}

}  // namespace

bool Core::decode(std::size_t index) {
  if (index < decoded_.size() && decoded_[index].valid) return true;
  const std::size_t addr = index * 4;
  const auto decoded = decode_word(instr_mem_, addr);
  // Configuration traps: a binary built for a richer core must not run. A
  // trapping word is never cached, so it traps again on every execution,
  // and a superblock ends before it, so it traps only if it executes.
  if (!decoded || needs_absent_unit(decoded->op, config_)) return false;
  const Opcode op = decoded->op;

  if (index >= decoded_.size()) decoded_.resize(index + 1);
  Decoded& d = decoded_[index];
  d.instr = *decoded;
  d.imm = decoded->imm;
  d.cls = isa::classify(op);
  d.cycles = {static_cast<std::uint8_t>(isa::latency_cycles(op, false)),
              static_cast<std::uint8_t>(isa::latency_cycles(op, true))};
  if (index > 0 && op != Opcode::kImm) {
    const auto prev = decode_word(instr_mem_, addr - 4);
    d.prefixed = prev && prev->op == Opcode::kImm;
    if (d.prefixed) d.imm = combine_imm(static_cast<std::uint32_t>(prev->imm) & 0xFFFFu, d.imm);
  }
  d.valid = true;
  return true;
}

void Core::fetch_fault() {
  halted_ = true;
  if ((pc_ & 3u) != 0 || std::size_t{pc_} + 4 > instr_mem_.size()) {
    error_ = common::format("bad PC 0x%08x", pc_);
    return;
  }
  const std::uint32_t word = instr_mem_.read32(pc_);
  const auto decoded = isa::decode(word);
  if (!decoded) {
    error_ = common::format("invalid instruction 0x%08x at pc 0x%08x", word, pc_);
  } else {
    error_ = common::format("instruction '%s' at pc 0x%08x needs an absent unit",
                            std::string(isa::mnemonic(decoded->op)).c_str(), pc_);
  }
}

std::uint32_t Core::form_superblock(std::size_t index) {
  // Walk the fall-through path to the first entry that ends a superblock,
  // already belongs to one, or cannot be cached; then number the walked
  // entries backwards from there.
  std::size_t end = index;
  std::uint32_t run = 0;  // of the entry at `end`
  for (;; ++end) {
    if (end < decoded_.size() && decoded_[end].run != 0) {
      run = decoded_[end].run;
      break;
    }
    if (!decode(end)) break;
    if (ends_superblock(decoded_[end].cls)) {
      run = decoded_[end].run = 1;
      break;
    }
  }
  while (end > index) decoded_[--end].run = ++run;
  return run;
}

// One instruction's effect on registers, data memory, devices and halted_.
// step() and run_chain() handle the IMM latch and charge the counters,
// each its own way.
[[gnu::always_inline]] inline Core::Flow Core::execute(const Instr& instr, std::int32_t imm,
                                                       std::uint32_t pc,
                                                       std::uint32_t& next_pc) {
  const std::uint32_t a = regs_[instr.ra];
  const std::uint32_t b = regs_[instr.rb];
  const std::int32_t sa = static_cast<std::int32_t>(a);
  const std::int32_t sb = static_cast<std::int32_t>(b);
  const auto uimm = static_cast<std::uint32_t>(imm);
  Flow flow = Flow::kNext;
  bool branch_taken = false;
  bool write_result = false;
  std::uint32_t result = 0;

  switch (instr.op) {
    case Opcode::kAdd: result = a + b; write_result = true; break;
    case Opcode::kAddi: result = a + uimm; write_result = true; break;
    case Opcode::kSub: result = a - b; write_result = true; break;
    case Opcode::kMul: result = a * b; write_result = true; break;
    case Opcode::kMuli: result = a * uimm; write_result = true; break;
    case Opcode::kIdiv:
      // Division by zero gives 0; overflow (INT_MIN / -1) gives INT_MIN, as
      // on MicroBlaze and in the assembler's __divsi3.
      if (b == 0) {
        result = 0;
      } else if (sa == std::numeric_limits<std::int32_t>::min() && sb == -1) {
        result = a;
      } else {
        result = static_cast<std::uint32_t>(sa / sb);
      }
      write_result = true;
      break;
    case Opcode::kAnd: result = a & b; write_result = true; break;
    case Opcode::kAndi: result = a & uimm; write_result = true; break;
    case Opcode::kOr: result = a | b; write_result = true; break;
    case Opcode::kOri: result = a | uimm; write_result = true; break;
    case Opcode::kXor: result = a ^ b; write_result = true; break;
    case Opcode::kXori: result = a ^ uimm; write_result = true; break;
    case Opcode::kSext8:
      result = static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(a)));
      write_result = true;
      break;
    case Opcode::kSext16:
      result = static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(a)));
      write_result = true;
      break;
    case Opcode::kSrl: result = a >> 1; write_result = true; break;
    case Opcode::kSra: result = static_cast<std::uint32_t>(sa >> 1); write_result = true; break;
    case Opcode::kBsll: result = a << (b & 31u); write_result = true; break;
    case Opcode::kBsrl: result = a >> (b & 31u); write_result = true; break;
    case Opcode::kBsra:
      result = static_cast<std::uint32_t>(sa >> (b & 31u));
      write_result = true;
      break;
    case Opcode::kBslli: result = a << (imm & 31); write_result = true; break;
    case Opcode::kBsrli: result = a >> (imm & 31); write_result = true; break;
    case Opcode::kBsrai:
      result = static_cast<std::uint32_t>(sa >> (imm & 31));
      write_result = true;
      break;
    case Opcode::kCmp:
      result = (sa < sb) ? static_cast<std::uint32_t>(-1) : (sa == sb ? 0u : 1u);
      write_result = true;
      break;
    case Opcode::kCmpu:
      result = (a < b) ? static_cast<std::uint32_t>(-1) : (a == b ? 0u : 1u);
      write_result = true;
      break;
    case Opcode::kLw: result = data_read(a + b, 4, flow); write_result = true; break;
    case Opcode::kLwi: result = data_read(a + uimm, 4, flow); write_result = true; break;
    case Opcode::kLbu: result = data_read(a + b, 1, flow); write_result = true; break;
    case Opcode::kLbui: result = data_read(a + uimm, 1, flow); write_result = true; break;
    case Opcode::kLhu: result = data_read(a + b, 2, flow); write_result = true; break;
    case Opcode::kLhui: result = data_read(a + uimm, 2, flow); write_result = true; break;
    case Opcode::kSw: data_write(a + b, regs_[instr.rd], 4); flow = Flow::kSync; break;
    case Opcode::kSwi: data_write(a + uimm, regs_[instr.rd], 4); flow = Flow::kSync; break;
    case Opcode::kSb: data_write(a + b, regs_[instr.rd], 1); flow = Flow::kSync; break;
    case Opcode::kSbi: data_write(a + uimm, regs_[instr.rd], 1); flow = Flow::kSync; break;
    case Opcode::kSh: data_write(a + b, regs_[instr.rd], 2); flow = Flow::kSync; break;
    case Opcode::kShi: data_write(a + uimm, regs_[instr.rd], 2); flow = Flow::kSync; break;
    case Opcode::kBeq: branch_taken = (a == 0); break;
    case Opcode::kBne: branch_taken = (a != 0); break;
    case Opcode::kBlt: branch_taken = (sa < 0); break;
    case Opcode::kBle: branch_taken = (sa <= 0); break;
    case Opcode::kBgt: branch_taken = (sa > 0); break;
    case Opcode::kBge: branch_taken = (sa >= 0); break;
    case Opcode::kBr:
      next_pc = pc + uimm;
      flow = Flow::kJump;
      break;
    case Opcode::kBrl:
      result = pc + 4;
      write_result = true;
      next_pc = pc + uimm;
      flow = Flow::kJump;
      break;
    case Opcode::kBrr:
      next_pc = a;
      flow = Flow::kReturn;
      break;
    case Opcode::kRtsd:
      next_pc = a + uimm;
      flow = Flow::kReturn;
      break;
    case Opcode::kImm:
      break;
    case Opcode::kHalt:
      halted_ = true;
      flow = Flow::kHalt;
      break;
    case Opcode::kOpcodeCount:
      break;
  }
  if (branch_taken) {
    next_pc = pc + uimm;
    flow = Flow::kBranch;
  }
  if (write_result) set_reg(instr.rd, result);
  return flow;
}

void Core::loop_branch(std::uint32_t pc, std::uint32_t target) {
  if (profiler_) profiler_->on_loop_branch(pc, target);
  if (branch_hook_) branch_hook_(pc, target, true);
}

bool Core::step() {
  if (halted_) return false;
  // Only fetch() changes the table, so the entry outlives this step even if
  // a store below bumps the instruction Memory's generation.
  const Decoded* entry = fetch();
  if (!entry) return false;
  const Instr& instr = entry->instr;

  // Effective immediate: combine with the IMM prefix latch if armed.
  std::int32_t imm = instr.imm;
  if (imm_valid_ && instr.op != Opcode::kImm) imm = combine_imm(imm_latch_, imm);
  std::uint32_t next_pc = pc_ + 4;
  const Flow flow = execute(instr, imm, pc_, next_pc);

  // IMM latch arms for exactly the next instruction.
  if (instr.op == Opcode::kImm) imm_latch_ = static_cast<std::uint32_t>(instr.imm) & 0xFFFFu;
  imm_valid_ = (instr.op == Opcode::kImm);

  const bool branch_taken = flow == Flow::kBranch;
  if (entry->cls == InstrClass::kBranch) {
    ++(branch_taken ? stats_.taken_branches : stats_.not_taken_branches);
  }
  stats_.cycles += entry->cycles[branch_taken];  // a jump's two latencies are equal
  ++stats_.instructions;
  ++stats_.per_class[static_cast<std::size_t>(entry->cls)];

  if ((branch_taken || flow == Flow::kJump) && next_pc < pc_) loop_branch(pc_, next_pc);

  pc_ = next_pc;
  return !halted_;
}

// The checks of run()'s head but the generation, which only a chain's own
// exits can move: aligned, in the table, formed, not prefixed and no longer
// than the budget left. A chain never forms an entry.
Core::Decoded* Core::chain_successor(std::uint32_t pc, std::uint64_t room) {
  const std::size_t index = pc >> 2;
  if ((pc & 3u) != 0 || index >= decoded_.size()) return nullptr;
  Decoded* const next = &decoded_[index];
  if (next->run == 0 || next->run > room || next->prefixed) return nullptr;
  return next;
}

// Runs the superblock entered at `index` (formed, not prefixed, no IMM
// latch armed, and no longer than `left`) until a taken branch, a jump, a
// return, halt, its last entry, or a store or OPB access after which the
// instruction Memory changed. After a taken branch, a jump or a return, the
// chain continues into chain_successor() unless a branch hook moved the
// generation. Nothing here grows the table.
std::uint64_t Core::run_chain(std::size_t index, std::uint64_t left) {
  const std::uint64_t generation = decoded_generation_;
  Decoded* start = &decoded_[index];
  Decoded* last = start + (start->run - 1);
  Decoded* e = start;
  std::uint32_t pc = static_cast<std::uint32_t>(index << 2);
  std::uint32_t next_pc = pc;
  std::uint64_t room = left;  // budget left after the superblocks that ended
  ++start->enters;
  for (;;) {
    next_pc = pc + 4;
    Flow flow;
    try {
      flow = execute(e->instr, e->imm, pc, next_pc);
    } catch (...) {
      // The instruction at e threw and did not retire; those before it did.
      if (e == start) {
        --start->enters;
      } else {
        ++(e - 1)->exits;
      }
      pc_ = pc;
      if (e->prefixed) {
        imm_valid_ = true;
        imm_latch_ = static_cast<std::uint32_t>((e - 1)->instr.imm) & 0xFFFFu;
      }
      throw;
    }
    if (flow == Flow::kNext || flow == Flow::kSync) {
      if (flow == Flow::kSync && instr_mem_.generation() != generation) {
        ++e->exits;
      } else if (e != last) {
        ++e;
        pc += 4;
        continue;
      } else if (e->instr.op == Opcode::kImm) {
        // Past the last entry the word cannot be cached; step() runs it
        // with the latch armed.
        imm_valid_ = true;
        imm_latch_ = static_cast<std::uint32_t>(e->instr.imm) & 0xFFFFu;
      }
    }
    // The superblock ends at e.
    room -= static_cast<std::uint64_t>(e - start + 1);
    if (flow == Flow::kNext || flow == Flow::kSync || flow == Flow::kHalt) break;
    if (flow == Flow::kBranch) ++e->taken;
    if (flow != Flow::kReturn && next_pc < pc) {
      // loop_branch() in the order step() feeds the sinks; the hook sees
      // pc_ at the target, and may write the instruction Memory.
      if (profiler_) profiler_->on_loop_branch(pc, next_pc);
      if (branch_hook_) {
        pc_ = next_pc;
        branch_hook_(pc, next_pc, true);
        if (instr_mem_.generation() != generation) break;
      }
    }
    Decoded* const next = chain_successor(next_pc, room);
    if (!next) break;
    start = e = next;
    last = next + (next->run - 1);
    pc = next_pc;
    ++next->enters;
  }
  pc_ = next_pc;
  return left - room;
}

void Core::fold_superblocks() {
  // Superblocks are contiguous, so the ones that reach an entry are those
  // entered at or before it, less those that left before it.
  std::uint64_t live = 0;
  for (Decoded& d : decoded_) {
    live += d.enters;
    if (live != 0) {
      stats_.instructions += live;
      stats_.per_class[static_cast<std::size_t>(d.cls)] += live;
      stats_.cycles += live * d.cycles[0];
      if (d.cls == InstrClass::kBranch) {
        stats_.taken_branches += d.taken;
        stats_.not_taken_branches += live - d.taken;
        stats_.cycles += d.taken * static_cast<std::uint64_t>(d.cycles[1] - d.cycles[0]);
      }
      live -= d.taken + d.exits;
    }
    if (d.run == 1) live = 0;  // every superblock that got here ends here
    d.enters = d.taken = d.exits = 0;
  }
}

// Flattened so that step(), the chain loop and their callees are inlined
// into the loop (see src/sim/README.md). Every exit, a throw
// included, folds the superblock counters into stats_ and settles the data
// Memory's deferred work, so whoever reads either next sees it all.
[[gnu::flatten]] StopReason Core::run(std::uint64_t max_instructions) {
  std::uint64_t left = max_instructions;
  try {
    while (!halted_ && left != 0) {
      check_generation();
      const std::size_t index = pc_ >> 2;
      if (!imm_valid_ && (pc_ & 3u) == 0) {
        std::uint32_t run = index < decoded_.size() ? decoded_[index].run : 0;
        if (run == 0) run = form_superblock(index);
        if (run != 0 && run <= left && !decoded_[index].prefixed) {
          left -= run_chain(index, left);
          continue;
        }
      }
      // An IMM latch armed at entry, an entry right after an IMM word, a
      // word that cannot be cached, a bad PC or a budget tail shorter than
      // the superblock: one instruction.
      if (!step()) break;
      --left;
    }
  } catch (...) {
    fold_superblocks();
    if (data_mem_.has_deferred_work()) settle_data_mem();
    throw;
  }
  fold_superblocks();
  if (data_mem_.has_deferred_work()) settle_data_mem();
  if (!error_.empty()) return StopReason::kError;
  if (halted_) return StopReason::kHalted;
  return StopReason::kMaxInstructions;
}

}  // namespace warp::sim
