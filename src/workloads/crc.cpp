// crc (EEMBC TeleBench substitute): XOR-folded CRC-style signature over a
// word stream.
//
// Each iteration folds a 32-bit sample down to a byte (fold the high half
// into the low half, then the high byte of that into the low byte), XORs
// the byte into a running signature register, adds it into a running sum,
// and emits it to a byte stream. The XOR signature is a fabric-held
// logical reduction: the fabric computes sig ^ byte from the accumulator's
// start-of-iteration state, so the kernel feeds accumulator state back
// into the fabric every iteration. That makes this workload a deliberate
// stress of the simulator's fallback paths: the packed lane-block engine
// must refuse it (per-iteration feedback) and leave the whole trip to the
// scalar reference engine, at every lane-block width. The trip count is
// also kept off the 64-iteration grid so any engine that did batch would
// also have to run a partial lane block.
#include "workloads/workload.hpp"

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace warp::workloads {
namespace {

constexpr std::uint32_t kIn = 4096;
constexpr std::uint32_t kOut = 16384;
constexpr std::uint32_t kRes = 256;
constexpr unsigned kWords = 999;  // deliberately not a multiple of 64
constexpr std::uint64_t kSeed = 0xC2C32ull;

constexpr const char* kSource = R"(
; crc: per word, fold to a byte; xor it into a signature, add it into a
; sum, and store it.
  li r2, 4096        ; IN
  li r3, 16384       ; OUT
  li r4, 999         ; N
  li r8, 0           ; xor signature (fabric-held reduction)
  li r11, 0          ; byte sum (MAC add reduction)
loop:
  lwi r5, r2, 0
  shr_i r6, r5, 16
  xor r6, r6, r5     ; fold high half into low
  shr_i r7, r6, 8
  xor r7, r7, r6     ; fold high byte into low
  andi r7, r7, 255
  xor r8, r8, r7
  add r11, r11, r7
  sbi r7, r3, 0
  addi r2, r2, 4
  addi r3, r3, 1
  addi r4, r4, -1
  bne r4, loop
  li r2, 256
  swi r8, r2, 0
  swi r11, r2, 4
  halt
)";

std::uint32_t fold_byte(std::uint32_t word) {
  const std::uint32_t half = word ^ (word >> 16);
  return (half ^ (half >> 8)) & 0xFFu;
}

}  // namespace

Workload make_crc() {
  Workload w;
  w.name = "crc";
  w.description = "EEMBC-style CRC byte-stream signature (fabric-held reduction)";
  w.source = kSource;
  w.init = [](sim::Memory& mem) {
    common::Rng rng(kSeed);
    for (unsigned i = 0; i < kWords; ++i) {
      mem.write32(kIn + 4 * i, rng.next_u32());
    }
    for (unsigned i = 0; i < kWords; ++i) mem.write8(kOut + i, 0);
    mem.write32(kRes, 0);
    mem.write32(kRes + 4, 0);
  };
  w.check = [](const sim::Memory& mem) {
    common::Rng rng(kSeed);
    std::uint32_t sig = 0;
    std::uint32_t sum = 0;
    for (unsigned i = 0; i < kWords; ++i) {
      const std::uint32_t byte = fold_byte(rng.next_u32());
      sig ^= byte;
      sum += byte;
      if (mem.read8(kOut + i) != byte) {
        return common::Status::error(common::format("crc: out[%u] wrong", i));
      }
    }
    if (mem.read32(kRes) != sig) return common::Status::error("crc: signature mismatch");
    if (mem.read32(kRes + 4) != sum) return common::Status::error("crc: sum mismatch");
    return common::Status::ok();
  };
  return w;
}

}  // namespace warp::workloads
