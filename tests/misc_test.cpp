// Tests for common utilities, memory, energy and ARM models, workloads.
#include <gtest/gtest.h>

#include "arm/arm_model.hpp"
#include "common/bitutil.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "energy/power_model.hpp"
#include "sim/memory.hpp"
#include "workloads/workload.hpp"

namespace warp {
namespace {

TEST(BitUtil, Basics) {
  EXPECT_EQ(common::bits(0xABCD1234u, 8, 8), 0x12u);
  EXPECT_EQ(common::set_bits(0, 4, 4, 0xF), 0xF0u);
  EXPECT_EQ(common::sign_extend(0x8000, 16), -32768);
  EXPECT_EQ(common::sign_extend(0x7FFF, 16), 32767);
  EXPECT_TRUE(common::fits_signed(-32768, 16));
  EXPECT_FALSE(common::fits_signed(32768, 16));
  EXPECT_EQ(common::bit_reverse32(0x80000000u), 1u);
  EXPECT_EQ(common::bit_reverse32(common::bit_reverse32(0xDEADBEEFu)), 0xDEADBEEFu);
  EXPECT_EQ(common::log2_ceil(1), 0u);
  EXPECT_EQ(common::log2_ceil(8), 3u);
  EXPECT_EQ(common::log2_ceil(9), 4u);
}

TEST(BitUtil, Transpose64RoundTrip) {
  std::uint64_t m[64];
  std::uint64_t seed = 0x1234;
  auto rnd = [&] { return seed = seed * 6364136223846793005ull + 1442695040888963407ull; };
  for (auto& row : m) row = rnd();
  std::uint64_t orig[64];
  std::copy(std::begin(m), std::end(m), std::begin(orig));
  common::transpose64(m);
  for (unsigned i = 0; i < 64; ++i) {
    for (unsigned j = 0; j < 64; ++j) {
      EXPECT_EQ((m[j] >> i) & 1u, (orig[i] >> j) & 1u) << i << "," << j;
    }
  }
  common::transpose64(m);
  for (unsigned i = 0; i < 64; ++i) EXPECT_EQ(m[i], orig[i]);
}

TEST(BitUtil, BlockedTransposeMatchesReference) {
  // transpose64_blocked: frame-major words in, contiguous per-bit lane
  // blocks out; transpose64_unblocked inverts it exactly.
  std::uint64_t seed = 0xBEEF;
  auto rnd = [&] { return seed = seed * 6364136223846793005ull + 1442695040888963407ull; };
  for (const unsigned w_words : {1u, 2u, 4u}) {
    std::vector<std::uint64_t> m(64 * w_words);
    for (auto& v : m) v = rnd();
    const std::vector<std::uint64_t> frames = m;
    common::transpose64_blocked(m.data(), w_words);
    for (unsigned b = 0; b < 64; ++b) {
      for (unsigned f = 0; f < 64 * w_words; ++f) {
        const std::uint64_t lane_word = m[b * w_words + f / 64];
        EXPECT_EQ((lane_word >> (f % 64)) & 1u, (frames[f] >> b) & 1u)
            << "w=" << w_words << " bit " << b << " frame " << f;
      }
    }
    common::transpose64_unblocked(m.data(), w_words);
    EXPECT_EQ(m, frames) << w_words;
  }
}

TEST(Strings, ParseInt) {
  long long v = 0;
  EXPECT_TRUE(common::parse_int("123", v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(common::parse_int("-45", v));
  EXPECT_EQ(v, -45);
  EXPECT_TRUE(common::parse_int("0xFF", v));
  EXPECT_EQ(v, 255);
  EXPECT_FALSE(common::parse_int("12x", v));
  EXPECT_FALSE(common::parse_int("", v));
  EXPECT_TRUE(common::parse_int("9223372036854775807", v));
  EXPECT_EQ(v, 9223372036854775807LL);
  EXPECT_FALSE(common::parse_int("9223372036854775808", v));  // overflow, not a wrap
  EXPECT_FALSE(common::parse_int("0x10000000000000000", v));
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(common::trim("  hi \t"), "hi");
  const auto parts = common::split("a, b,, c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Table, RendersAligned) {
  common::Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Memory, WordByteHalfAccess) {
  sim::Memory mem(64);
  mem.write32(0, 0xA1B2C3D4u);
  EXPECT_EQ(mem.read8(0), 0xD4u);
  EXPECT_EQ(mem.read16(2), 0xA1B2u);
  mem.write16(4, 0x1234);
  EXPECT_EQ(mem.read32(4), 0x1234u);
  EXPECT_THROW(mem.read32(62), common::InternalError);
}

TEST(Energy, Figure5Composition) {
  // E_total must equal the sum of the three Figure 5 terms, and idle time
  // must cost less than active time.
  const auto busy = energy::microblaze_energy(1e-3, 0.0, 0.0, 0, false);
  const auto idle = energy::microblaze_energy(0.0, 1e-3, 0.0, 0, false);
  EXPECT_GT(busy.total_mj(), idle.total_mj());
  EXPECT_DOUBLE_EQ(busy.total_mj(), busy.e_mb_mj + busy.e_hw_mj + busy.e_static_mj);
  // Hardware energy scales with fabric size.
  const auto small = energy::microblaze_energy(0, 0, 1e-3, 10, false);
  const auto large = energy::microblaze_energy(0, 0, 1e-3, 2000, true);
  EXPECT_GT(large.e_hw_mj, small.e_hw_mj);
}

TEST(ArmModel, FasterCoresAreFaster) {
  sim::CoreStats stats;
  stats.per_class[static_cast<std::size_t>(isa::InstrClass::kAlu)] = 1'000'000;
  stats.per_class[static_cast<std::size_t>(isa::InstrClass::kLoad)] = 200'000;
  stats.per_class[static_cast<std::size_t>(isa::InstrClass::kBranch)] = 100'000;
  const auto t7 = arm::estimate(arm::arm7(), stats).seconds;
  const auto t9 = arm::estimate(arm::arm9(), stats).seconds;
  const auto t10 = arm::estimate(arm::arm10(), stats).seconds;
  const auto t11 = arm::estimate(arm::arm11(), stats).seconds;
  EXPECT_GT(t7, t9);
  EXPECT_GT(t9, t10);
  EXPECT_GT(t10, t11);
}

TEST(ArmModel, EnergyOrderingMatchesPaper) {
  // Figure 7: among the hard cores, faster cores burn more energy.
  sim::CoreStats stats;
  stats.per_class[static_cast<std::size_t>(isa::InstrClass::kAlu)] = 1'000'000;
  const auto e7 = arm::estimate(arm::arm7(), stats).energy_mj;
  const auto e9 = arm::estimate(arm::arm9(), stats).energy_mj;
  const auto e10 = arm::estimate(arm::arm10(), stats).energy_mj;
  const auto e11 = arm::estimate(arm::arm11(), stats).energy_mj;
  EXPECT_LT(e7, e9);
  EXPECT_LT(e9, e10);
  EXPECT_LT(e10, e11);
}

TEST(Workloads, RegistryHasAllSixPaperBenchmarks) {
  const auto& all = workloads::all_workloads();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "brev");
  EXPECT_EQ(all[5].name, "matmul");
  EXPECT_THROW(workloads::workload_by_name("nope"), common::InternalError);
}

TEST(Workloads, ExtendedRegistryAddsCoverageKernels) {
  // The extended list keeps the paper six in order and appends the
  // post-paper coverage workloads; name lookup spans all of them.
  const auto& extended = workloads::extended_workloads();
  ASSERT_EQ(extended.size(), workloads::all_workloads().size() + 2);
  for (std::size_t i = 0; i < workloads::all_workloads().size(); ++i) {
    EXPECT_EQ(extended[i].name, workloads::all_workloads()[i].name);
  }
  EXPECT_EQ(extended[extended.size() - 2].name, "crc");
  EXPECT_EQ(extended.back().name, "fir");
  EXPECT_EQ(workloads::workload_by_name("crc").name, "crc");
  EXPECT_EQ(workloads::workload_by_name("fir").name, "fir");
}

TEST(Workloads, CheckRejectsUntouchedMemory) {
  // The golden checkers must actually check something: fresh memory that
  // never ran the benchmark must fail.
  for (const auto& w : workloads::extended_workloads()) {
    sim::Memory mem(1 << 20);
    w.init(mem);
    EXPECT_FALSE(w.check(mem).is_ok()) << w.name;
  }
}

}  // namespace
}  // namespace warp
