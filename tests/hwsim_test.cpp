// Hardware-execution tests: the WCLA executor and OPB device driven
// directly (not through the warp runtime), including the cycle model.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "decompile/cfg.hpp"
#include "decompile/extract.hpp"
#include "decompile/liveness.hpp"
#include "hwsim/wcla_device.hpp"
#include "isa/assembler.hpp"
#include "pnr/pnr.hpp"
#include "techmap/techmap.hpp"

namespace warp::hwsim {
namespace {

struct Built {
  std::shared_ptr<synth::HwKernel> kernel;
  std::shared_ptr<fabric::FabricConfig> config;
  decompile::KernelIR ir;
};

Built build_kernel(const std::string& source, const std::string& label) {
  auto prog = isa::assemble(source, isa::CpuConfig::full());
  EXPECT_TRUE(prog.is_ok()) << prog.message();
  const std::uint32_t target = prog.value().label(label);
  auto cfg = decompile::Cfg::build(decompile::decode_program(prog.value().words));
  std::uint32_t branch = 0;
  for (const auto& fi : cfg.instrs()) {
    if (fi.valid && isa::is_conditional_branch(fi.instr.op) &&
        fi.pc + static_cast<std::uint32_t>(fi.imm) == target && fi.pc > target) {
      branch = fi.pc;
    }
  }
  decompile::Liveness live(cfg);
  auto ir = decompile::extract_kernel(cfg, live, branch, target);
  EXPECT_TRUE(ir.is_ok()) << ir.message();
  synth::SynthOptions so;
  so.csd_max_terms = 2;
  auto kernel = synth::synthesize(ir.value(), so);
  EXPECT_TRUE(kernel.is_ok()) << kernel.message();
  auto mapped = techmap::techmap(kernel.value().fabric);
  EXPECT_TRUE(mapped.is_ok()) << mapped.message();
  auto pnr = pnr::place_and_route(mapped.value(), fabric::FabricGeometry());
  EXPECT_TRUE(pnr.is_ok()) << pnr.message();
  Built built;
  built.ir = ir.value();
  built.kernel = std::make_shared<synth::HwKernel>(std::move(kernel).value());
  built.config = std::make_shared<fabric::FabricConfig>(std::move(pnr).value().config);
  return built;
}

/// Latch `value` for register `reg` in the invocation's live-in slot (the
/// stub's CONST[k] order, ir.live_in_regs).
void set_live_in(KernelInvocation& invocation, const decompile::KernelIR& ir, unsigned reg,
                 std::uint32_t value) {
  const auto it = std::find(ir.live_in_regs.begin(), ir.live_in_regs.end(), reg);
  ASSERT_NE(it, ir.live_in_regs.end()) << "r" << reg << " is not a live-in";
  invocation.live_in[static_cast<std::size_t>(it - ir.live_in_regs.begin())] = value;
}

constexpr const char* kSaxpyish = R"(
  li r2, 0x1000
  li r3, 0x2000
  li r4, 64
  li r8, 0
loop:
  lwi r5, r2, 0
  muli r6, r5, 3
  addi r6, r6, 7
  swi r6, r3, 0
  add r8, r8, r5
  addi r2, r2, 4
  addi r3, r3, 4
  addi r4, r4, -1
  bne r4, loop
  li r9, 0x100
  swi r8, r9, 0
  halt
)";

TEST(Executor, TransformsAndAccumulates) {
  auto built = build_kernel(kSaxpyish, "loop");
  sim::Memory mem(1 << 16);
  common::Rng rng(1);
  std::uint32_t expect_sum = 0;
  std::vector<std::uint32_t> inputs;
  for (unsigned i = 0; i < 64; ++i) {
    const std::uint32_t v = rng.below(100000);
    inputs.push_back(v);
    mem.write32(0x1000 + 4 * i, v);
    expect_sum += v;
  }

  KernelExecutor executor(*built.kernel, *built.config);
  KernelInvocation invocation;
  invocation.trip = 64;
  // Stream order is discovery order: read [r2], then write [r3].
  for (const auto& stream : built.ir.streams) {
    invocation.stream_bases.push_back(stream.is_write ? 0x2000 : 0x1000);
  }
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  invocation.live_in.assign(built.ir.live_in_regs.size(), 0);
  set_live_in(invocation, built.ir, 2, 0x1000);
  set_live_in(invocation, built.ir, 3, 0x2000);
  set_live_in(invocation, built.ir, 4, 64);

  auto result = executor.run(mem, invocation, /*verify_against_dfg=*/true);
  ASSERT_TRUE(result.is_ok()) << result.message();
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(mem.read32(0x2000 + 4 * i), inputs[i] * 3u + 7u) << i;
  }
  ASSERT_EQ(result.value().acc_final.size(), 1u);
  EXPECT_EQ(result.value().acc_final[0], expect_sum);
}

TEST(Executor, CycleModel) {
  auto built = build_kernel(kSaxpyish, "loop");
  sim::Memory mem(1 << 16);
  KernelExecutor executor(*built.kernel, *built.config);
  KernelInvocation invocation;
  invocation.trip = 64;
  invocation.stream_bases.assign(built.ir.streams.size(), 0x1000);
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  invocation.live_in.assign(built.ir.live_in_regs.size(), 0);
  auto result = executor.run(mem, invocation);
  ASSERT_TRUE(result.is_ok());
  // II = max(mem=2, mac>=1) = 2; cycles = II*trip + pipeline + startup.
  const unsigned ii = built.kernel->initiation_interval();
  EXPECT_EQ(ii, 2u);
  EXPECT_EQ(result.value().wcla_cycles,
            static_cast<std::uint64_t>(ii) * 64 + built.config->pipeline_stages() +
                kStartupCycles);
  EXPECT_GT(result.value().clock_mhz, 0.0);
  EXPECT_LE(result.value().clock_mhz, 250.0);
}

// A read stream, a write stream through a fabric adder, and an XOR
// reduction whose next state only the accumulator reads.
constexpr const char* kChecksum = R"(
  li r2, 0x1000
  li r3, 0x2000
  li r4, 64
  li r8, 0
loop:
  lwi r5, r2, 0
  addi r6, r5, 0x1234
  swi r6, r3, 0
  xor r8, r8, r5
  addi r2, r2, 4
  addi r3, r3, 4
  addi r4, r4, -1
  bne r4, loop
  li r9, 0x100
  swi r8, r9, 0
  halt
)";

TEST(Executor, VerifyCatchesACorruptedLut) {
  // A copy of the fabric configuration with one truth-table bit flipped,
  // first in the LUT driving the top write bit, then in the LUT driving
  // the top next-state bit of the accumulator: the DFG cross-check must
  // throw, and an unchecked run must leave a result the DFG reference does
  // not (the seeded data reaches the flipped row).
  auto built = build_kernel(kChecksum, "loop");
  ASSERT_EQ(built.ir.accumulators.size(), 1u);
  KernelInvocation invocation;
  invocation.trip = 64;
  for (const auto& stream : built.ir.streams) {
    invocation.stream_bases.push_back(stream.is_write ? 0x2000 : 0x1000);
  }
  invocation.acc_init = {0x0F0F0F0Fu};
  invocation.live_in.assign(built.ir.live_in_regs.size(), 0);
  set_live_in(invocation, built.ir, 2, 0x1000);
  set_live_in(invocation, built.ir, 3, 0x2000);
  set_live_in(invocation, built.ir, 4, 64);
  sim::Memory initial(1 << 16);
  common::Rng rng(21);
  for (unsigned i = 0; i < 64; ++i) initial.write32(0x1000 + 4 * i, rng.next_u32());
  const std::vector<std::uint32_t> snapshot = initial.snapshot_words();
  sim::Memory reference(1 << 16);
  reference.load_words(0, snapshot);
  const auto reference_acc = reference_run(built.ir, reference, invocation);

  for (const auto kind : {techmap::PortSpec::Kind::kWrite, techmap::PortSpec::Kind::kAccNext}) {
    const bool write = kind == techmap::PortSpec::Kind::kWrite;
    fabric::FabricConfig corrupted = *built.config;
    auto& netlist = corrupted.netlist;
    int lut = -1;
    for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
      if (netlist.output_ports[o].kind == kind &&
          netlist.outputs[o].source.kind == techmap::NetRef::Kind::kLut) {
        lut = netlist.outputs[o].source.index;  // the highest bit wins
      }
    }
    ASSERT_GE(lut, 0) << (write ? "write" : "accnext");
    netlist.luts[static_cast<std::size_t>(lut)].truth ^= 1u;

    sim::Memory checked(1 << 16);
    checked.load_words(0, snapshot);
    KernelExecutor verifying(*built.kernel, corrupted);
    EXPECT_THROW((void)verifying.run(checked, invocation, /*verify_against_dfg=*/true),
                 common::InternalError)
        << (write ? "write" : "accnext");

    sim::Memory mem(1 << 16);
    mem.load_words(0, snapshot);
    KernelExecutor executor(*built.kernel, corrupted);
    auto result = executor.run(mem, invocation);
    ASSERT_TRUE(result.is_ok()) << result.message();
    if (write) {
      EXPECT_NE(mem.checksum_words(), reference.checksum_words());
    } else {
      EXPECT_EQ(mem.checksum_words(), reference.checksum_words());
      EXPECT_NE(result.value().acc_final, reference_acc);
    }
  }
}

TEST(Executor, RejectsMalformedInvocation) {
  auto built = build_kernel(kSaxpyish, "loop");
  sim::Memory mem(1 << 16);
  KernelExecutor executor(*built.kernel, *built.config);
  KernelInvocation invocation;  // missing stream bases / acc inits
  invocation.trip = 4;
  EXPECT_FALSE(executor.run(mem, invocation).is_ok());
}

TEST(WclaDevice, RegisterProtocol) {
  auto built = build_kernel(kSaxpyish, "loop");
  sim::Memory mem(1 << 16);
  for (unsigned i = 0; i < 8; ++i) mem.write32(0x1000 + 4 * i, i + 1);

  WclaDevice device(mem, 85.0);
  ASSERT_FALSE(device.configured());
  device.configure(built.kernel, built.config);
  ASSERT_TRUE(device.configured());

  // Program per-invocation state the way the stub does.
  device.write32(kWclaBase + kWclaTrip, 8);
  unsigned read_stream = 0, write_stream = 1;
  if (built.ir.streams[0].is_write) std::swap(read_stream, write_stream);
  device.write32(kWclaBase + kWclaStreamBase + 4 * read_stream, 0x1000);
  device.write32(kWclaBase + kWclaStreamBase + 4 * write_stream, 0x3000);
  for (std::size_t k = 0; k < built.ir.live_in_regs.size(); ++k) {
    device.write32(kWclaBase + kWclaConstBase + 4 * static_cast<std::uint32_t>(k), 0);
  }
  device.write32(kWclaBase + kWclaAccBase, 100);  // acc starts at 100
  device.write32(kWclaBase + kWclaCtrl, 1);

  // First STATUS read reports busy and charges idle cycles; second is done.
  auto status1 = device.read32(kWclaBase + kWclaStatus);
  EXPECT_EQ(status1.value, 0u);
  EXPECT_GT(status1.idle_cycles, 0u);
  auto status2 = device.read32(kWclaBase + kWclaStatus);
  EXPECT_EQ(status2.value, 1u);
  EXPECT_EQ(status2.idle_cycles, 0u);

  // Accumulator readback: 100 + sum(1..8).
  EXPECT_EQ(device.read32(kWclaBase + kWclaAccBase).value, 100u + 36u);
  // Memory got the transformed values.
  EXPECT_EQ(mem.read32(0x3000), 1u * 3 + 7);
  EXPECT_EQ(device.stats().invocations, 1u);
  EXPECT_GT(device.stats().busy_ns, 0.0);
}

constexpr const char* kTransform8 = R"(
  li r2, 0x1000
  li r3, 0x2000
  li r4, 8
loop:
  lwi r5, r2, 0
  bslli r6, r5, 1
  xori r6, r6, 0x1234
  swi r6, r3, 0
  addi r2, r2, 4
  addi r3, r3, 4
  addi r4, r4, -1
  bne r4, loop
  halt
)";

TEST(WclaDevice, ConfigureRunsQueuedInvocations) {
  // An accumulator-free kernel with trip 8: a started invocation is
  // charged at once but queued for a shared lane block, and configure()
  // must run the queue on the kernel it was queued for.
  auto built = build_kernel(kTransform8, "loop");
  ASSERT_TRUE(built.ir.accumulators.empty());
  sim::Memory mem(1 << 16);
  sim::Memory reference(1 << 16);
  for (unsigned i = 0; i < 16; ++i) {
    mem.write32(0x1000 + 4 * i, i * 0x9E3779B9u + 1);
    reference.write32(0x1000 + 4 * i, i * 0x9E3779B9u + 1);
  }
  WclaDevice device(mem, 85.0);
  device.configure(built.kernel, built.config);
  for (std::uint32_t k = 0; k < 2; ++k) {
    KernelInvocation invocation;
    invocation.trip = 8;
    for (const auto& stream : built.ir.streams) {
      invocation.stream_bases.push_back((stream.is_write ? 0x2000 : 0x1000) + 32 * k);
    }
    invocation.live_in.assign(built.ir.live_in_regs.size(), 0);
    set_live_in(invocation, built.ir, 2, 0x1000 + 32 * k);
    set_live_in(invocation, built.ir, 3, 0x2000 + 32 * k);
    set_live_in(invocation, built.ir, 4, 8);
    (void)reference_run(built.ir, reference, invocation);

    // Program it the way the stub does.
    device.write32(kWclaBase + kWclaTrip, 8);
    for (std::size_t s = 0; s < invocation.stream_bases.size(); ++s) {
      device.write32(kWclaBase + kWclaStreamBase + 4 * static_cast<std::uint32_t>(s),
                     invocation.stream_bases[s]);
    }
    for (std::size_t slot = 0; slot < invocation.live_in.size(); ++slot) {
      device.write32(kWclaBase + kWclaConstBase + 4 * static_cast<std::uint32_t>(slot),
                     invocation.live_in[slot]);
    }
    device.write32(kWclaBase + kWclaCtrl, 1);
    EXPECT_TRUE(mem.has_deferred_work());
    EXPECT_EQ(mem.read32(0x2000 + 32 * k), 0u) << "invocation " << k << " ran at start";
    const auto status = device.read32(kWclaBase + kWclaStatus);
    EXPECT_EQ(status.value, 0u);
    EXPECT_GT(status.idle_cycles, 0u);
  }
  EXPECT_EQ(device.stats().invocations, 2u);
  EXPECT_EQ(device.stats().packed_blocks, 0u);

  device.configure(built.kernel, built.config);
  EXPECT_FALSE(mem.has_deferred_work());
  EXPECT_EQ(device.stats().packed_blocks, 1u);  // both invocations shared one block
  EXPECT_EQ(mem.checksum_words(), reference.checksum_words());
}

}  // namespace
}  // namespace warp::hwsim
