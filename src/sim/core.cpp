#include "sim/core.hpp"

#include <limits>

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

std::uint32_t Core::data_read(std::uint32_t addr, unsigned size) {
  if (addr >= kOpbBase) {
    OpbDevice* device = find_device(addr);
    if (!device) throw common::InternalError("OPB read from unmapped address");
    const OpbReadResult result = device->read32(addr);
    stats_.cycles += result.idle_cycles + kOpbExtraCycles;
    stats_.idle_cycles += result.idle_cycles;
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

const Core::Decoded* Core::fetch() {
  if (instr_mem_.generation() != decoded_generation_) {
    decoded_.clear();
    decoded_generation_ = instr_mem_.generation();
  }
  const std::size_t index = pc_ >> 2;
  if ((pc_ & 3u) == 0 && index < decoded_.size() && decoded_[index].valid) {
    return &decoded_[index];
  }
  return decode_at_pc();
}

const Core::Decoded* Core::decode_at_pc() {
  if (std::size_t{pc_} + 4 > instr_mem_.size() || (pc_ & 3u) != 0) {
    error_ = common::format("bad PC 0x%08x", pc_);
    halted_ = true;
    return nullptr;
  }
  const std::uint32_t word = instr_mem_.read32(pc_);
  const auto decoded = isa::decode(word);
  if (!decoded) {
    error_ = common::format("invalid instruction 0x%08x at pc 0x%08x", word, pc_);
    halted_ = true;
    return nullptr;
  }
  const Opcode op = decoded->op;

  // Configuration traps: a binary built for a richer core must not run. The
  // word is decoded only when it is about to execute, and a trapping word is
  // never cached, so it traps again on every run.
  if ((isa::requires_barrel_shifter(op) && !config_.has_barrel_shifter) ||
      (isa::requires_multiplier(op) && !config_.has_multiplier) ||
      (isa::requires_divider(op) && !config_.has_divider)) {
    error_ = common::format("instruction '%s' at pc 0x%08x needs an absent unit",
                            std::string(isa::mnemonic(op)).c_str(), pc_);
    halted_ = true;
    return nullptr;
  }

  const std::size_t index = pc_ >> 2;
  if (index >= decoded_.size()) decoded_.resize(index + 1);
  Decoded& d = decoded_[index];
  d.instr = *decoded;
  d.cls = isa::classify(op);
  d.cycles = {static_cast<std::uint8_t>(isa::latency_cycles(op, false)),
              static_cast<std::uint8_t>(isa::latency_cycles(op, true))};
  d.branch_event = d.cls == InstrClass::kBranch || op == Opcode::kBr || op == Opcode::kBrl;
  d.valid = true;
  return &d;
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
  if (imm_valid_ && instr.op != Opcode::kImm) {
    imm = static_cast<std::int32_t>((imm_latch_ << 16) |
                                    (static_cast<std::uint32_t>(instr.imm) & 0xFFFFu));
  }

  const std::uint32_t a = regs_[instr.ra];
  const std::uint32_t b = regs_[instr.rb];
  const std::int32_t sa = static_cast<std::int32_t>(a);
  const std::int32_t sb = static_cast<std::int32_t>(b);
  std::uint32_t next_pc = pc_ + 4;
  bool branch_taken = false;
  bool write_result = false;
  std::uint32_t result = 0;

  switch (instr.op) {
    case Opcode::kAdd: result = a + b; write_result = true; break;
    case Opcode::kAddi: result = a + static_cast<std::uint32_t>(imm); write_result = true; break;
    case Opcode::kSub: result = a - b; write_result = true; break;
    case Opcode::kMul: result = a * b; write_result = true; break;
    case Opcode::kMuli: result = a * static_cast<std::uint32_t>(imm); write_result = true; break;
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
    case Opcode::kAndi: result = a & static_cast<std::uint32_t>(imm); write_result = true; break;
    case Opcode::kOr: result = a | b; write_result = true; break;
    case Opcode::kOri: result = a | static_cast<std::uint32_t>(imm); write_result = true; break;
    case Opcode::kXor: result = a ^ b; write_result = true; break;
    case Opcode::kXori: result = a ^ static_cast<std::uint32_t>(imm); write_result = true; break;
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
    case Opcode::kLw: result = data_read(a + b, 4); write_result = true; break;
    case Opcode::kLwi:
      result = data_read(a + static_cast<std::uint32_t>(imm), 4);
      write_result = true;
      break;
    case Opcode::kLbu: result = data_read(a + b, 1); write_result = true; break;
    case Opcode::kLbui:
      result = data_read(a + static_cast<std::uint32_t>(imm), 1);
      write_result = true;
      break;
    case Opcode::kLhu: result = data_read(a + b, 2); write_result = true; break;
    case Opcode::kLhui:
      result = data_read(a + static_cast<std::uint32_t>(imm), 2);
      write_result = true;
      break;
    case Opcode::kSw: data_write(a + b, regs_[instr.rd], 4); break;
    case Opcode::kSwi: data_write(a + static_cast<std::uint32_t>(imm), regs_[instr.rd], 4); break;
    case Opcode::kSb: data_write(a + b, regs_[instr.rd], 1); break;
    case Opcode::kSbi: data_write(a + static_cast<std::uint32_t>(imm), regs_[instr.rd], 1); break;
    case Opcode::kSh: data_write(a + b, regs_[instr.rd], 2); break;
    case Opcode::kShi: data_write(a + static_cast<std::uint32_t>(imm), regs_[instr.rd], 2); break;
    case Opcode::kBeq: branch_taken = (a == 0); break;
    case Opcode::kBne: branch_taken = (a != 0); break;
    case Opcode::kBlt: branch_taken = (sa < 0); break;
    case Opcode::kBle: branch_taken = (sa <= 0); break;
    case Opcode::kBgt: branch_taken = (sa > 0); break;
    case Opcode::kBge: branch_taken = (sa >= 0); break;
    case Opcode::kBr:
      next_pc = pc_ + static_cast<std::uint32_t>(imm);
      branch_taken = true;
      break;
    case Opcode::kBrl:
      result = pc_ + 4;
      write_result = true;
      next_pc = pc_ + static_cast<std::uint32_t>(imm);
      branch_taken = true;
      break;
    case Opcode::kBrr:
      next_pc = a;
      branch_taken = true;
      break;
    case Opcode::kRtsd:
      next_pc = a + static_cast<std::uint32_t>(imm);
      branch_taken = true;
      break;
    case Opcode::kImm:
      imm_latch_ = static_cast<std::uint32_t>(instr.imm) & 0xFFFFu;
      break;
    case Opcode::kHalt:
      halted_ = true;
      break;
    case Opcode::kOpcodeCount:
      break;
  }

  if (entry->cls == InstrClass::kBranch) {
    if (branch_taken) {
      next_pc = pc_ + static_cast<std::uint32_t>(imm);
      ++stats_.taken_branches;
    } else {
      ++stats_.not_taken_branches;
    }
  }

  if (write_result) set_reg(instr.rd, result);

  // IMM latch arms for exactly the next instruction.
  imm_valid_ = (instr.op == Opcode::kImm);

  stats_.cycles += entry->cycles[branch_taken];
  ++stats_.instructions;
  ++stats_.per_class[static_cast<std::size_t>(entry->cls)];

  if (entry->branch_event && branch_hook_) {
    branch_hook_(pc_, branch_taken ? next_pc : pc_ + 4, branch_taken);
  }

  pc_ = next_pc;
  return !halted_;
}

// Flattened so that step() and its callees are inlined into the loop; on
// perfbench's sw_profile this measured about 8 % more simulated MIPS (see
// src/sim/README.md). Every exit, a throw included, settles the data
// Memory's deferred work, so whoever reads the data image next sees it all.
[[gnu::flatten]] StopReason Core::run(std::uint64_t max_instructions) {
  const std::uint64_t limit = stats_.instructions + max_instructions;
  try {
    while (!halted_ && stats_.instructions < limit) {
      if (!step()) break;
    }
  } catch (...) {
    if (data_mem_.has_deferred_work()) settle_data_mem();
    throw;
  }
  if (data_mem_.has_deferred_work()) settle_data_mem();
  if (!error_.empty()) return StopReason::kError;
  if (halted_) return StopReason::kHalted;
  return StopReason::kMaxInstructions;
}

}  // namespace warp::sim
