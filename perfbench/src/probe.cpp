#include "probe.hpp"

#include <array>
#include <cstdint>

#include "common/rng.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kProgramWords = 256;
constexpr std::size_t kDataWords = 8192;
constexpr int kSteps = 400'000;
volatile std::uint32_t probe_sink = 0;

// A seeded random program for a toy 16-register machine: each word is
// opcode (4 bits), rd, ra, rb (4 bits each) and a 16-bit immediate.
const std::vector<std::uint32_t>& toy_program() {
  static const std::vector<std::uint32_t> program = [] {
    warp::common::Rng rng(0xC0DE);
    std::vector<std::uint32_t> words(kProgramWords);
    for (auto& word : words) word = static_cast<std::uint32_t>(rng.below(1u << 31));
    return words;
  }();
  return program;
}

}  // namespace

double probe_ms() {
  const std::vector<std::uint32_t>& program = toy_program();
  std::array<std::uint32_t, 16> r{};
  for (std::uint32_t i = 0; i < r.size(); ++i) r[i] = 0x1234567u * (i + 1);
  std::vector<std::uint32_t> mem(kDataWords);
  std::size_t pc = 0;
  const std::int64_t start = now_ns();
  for (int step = 0; step < kSteps; ++step) {
    const std::uint32_t word = program[pc];
    const unsigned d = (word >> 4) & 15u, a = (word >> 8) & 15u, b = (word >> 12) & 15u;
    const std::uint32_t imm = word >> 16;
    const std::size_t target = (pc + imm) % kProgramWords;
    std::size_t next = (pc + 1) % kProgramWords;
    switch (word & 15u) {
      case 0: r[d] = r[a] + r[b]; break;
      case 1: r[d] = r[a] - r[b]; break;
      case 2: r[d] = r[a] ^ r[b]; break;
      case 3: r[d] = r[a] << (r[b] & 31u); break;
      case 4: r[d] = r[a] >> (r[b] & 31u); break;
      case 5: r[d] = mem[(r[a] + imm) % kDataWords]; break;
      case 6: mem[(r[a] + imm) % kDataWords] = r[b]; break;
      case 7: if (r[a] == r[b]) next = target; break;
      case 8: if (r[a] < r[b]) next = target; break;
      case 9: r[d] = r[a] * r[b]; break;
      case 10: r[d] = r[a] | imm; break;
      case 11: r[d] = r[a] & r[b]; break;
      case 12: r[d] = imm; break;
      case 13: if (r[a] & 1u) next = target; break;
      case 14: r[d] = r[a] + imm; break;
      default: r[d] = ~r[a]; break;
    }
    pc = next;
  }
  const std::int64_t end = now_ns();
  probe_sink = r[0] + r[15];
  return static_cast<double>(end - start) / 1e6;
}

double slowness(std::vector<double> probe_times_ms) {
  return median(std::move(probe_times_ms)) / kProbeReferenceMs;
}

}  // namespace perfbench
