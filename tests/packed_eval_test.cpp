// Packed-evaluation engine tests: the 64-lane SWAR engine must agree
// bit-exactly with the scalar reference on random mapped netlists, on
// hand-built netlists exercising constant/wire folding, and on full kernel
// executions; and the experiment harness must stay golden-output-exact now
// that the packed engine backs the default executor path.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "decompile/cfg.hpp"
#include "decompile/extract.hpp"
#include "decompile/liveness.hpp"
#include "experiments/harness.hpp"
#include "hwsim/executor.hpp"
#include "hwsim/packed_eval.hpp"
#include "isa/assembler.hpp"
#include "pnr/pnr.hpp"
#include "techmap/techmap.hpp"

namespace warp::hwsim {

// gtest prints a ScalarReason by name instead of as a raw byte.
void PrintTo(ScalarReason reason, std::ostream* os) { *os << scalar_reason_name(reason); }

namespace {

synth::GateNetlist random_gate_netlist(common::Rng& rng, unsigned inputs, unsigned gates,
                                       unsigned outputs) {
  synth::GateNetlist net;
  std::vector<int> pool = {net.const0(), net.const1()};
  for (unsigned i = 0; i < inputs; ++i) pool.push_back(net.add_input("x" + std::to_string(i)));
  for (unsigned g = 0; g < gates; ++g) {
    const int a = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
    const int b = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
    int id;
    switch (rng.below(4)) {
      case 0: id = net.gate_and(a, b); break;
      case 1: id = net.gate_or(a, b); break;
      case 2: id = net.gate_xor(a, b); break;
      default: id = net.gate_not(a); break;
    }
    pool.push_back(id);
  }
  for (unsigned o = 0; o < outputs; ++o) {
    net.add_output("o" + std::to_string(o),
                   pool[pool.size() - 1 - (o % std::min<std::size_t>(pool.size(), 8))]);
  }
  return net;
}

/// Drive `frames` through both engines and require bit-exact agreement at
/// every supported lane-block width (64/128/256 frames per packed pass).
void expect_engines_agree(const techmap::LutNetlist& netlist,
                          const std::vector<std::vector<bool>>& frames) {
  PackedEvaluator packed(netlist);
  ASSERT_EQ(packed.num_inputs(), netlist.primary_inputs.size());
  ASSERT_EQ(packed.num_outputs(), netlist.outputs.size());

  std::vector<std::vector<bool>> scalar_out(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    scalar_out[f] = netlist.evaluate_outputs(frames[f]);
  }

  for (const unsigned width : {1u, 2u, 4u}) {
    packed.set_width(width);
    ASSERT_EQ(packed.lanes(), width * kPackedWordBits);
    const std::size_t block_lanes = packed.lanes();
    for (std::size_t block = 0; block < frames.size(); block += block_lanes) {
      const std::size_t n = std::min<std::size_t>(block_lanes, frames.size() - block);
      for (std::size_t i = 0; i < netlist.primary_inputs.size(); ++i) {
        for (unsigned w = 0; w < width; ++w) {
          std::uint64_t lane = 0;
          for (std::size_t j = 0; j < kPackedWordBits; ++j) {
            const std::size_t f = block + w * kPackedWordBits + j;
            if (f < frames.size() && frames[f][i]) lane |= 1ull << j;
          }
          packed.set_input(i, w, lane);
        }
      }
      packed.run();
      for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint64_t lane = packed.output(o, static_cast<unsigned>(j / kPackedWordBits));
          ASSERT_EQ(((lane >> (j % kPackedWordBits)) & 1u) != 0, scalar_out[block + j][o])
              << "width " << width << " output " << o << " frame " << block + j;
        }
      }
    }
  }
}

TEST(PackedEval, MatchesScalarOnRandomMappedNetlists) {
  common::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    auto net = random_gate_netlist(rng, 10, 80, 8);
    auto mapped = techmap::techmap(net);
    ASSERT_TRUE(mapped.is_ok()) << mapped.message();

    std::vector<std::vector<bool>> frames(1000);
    for (auto& frame : frames) {
      frame.resize(mapped.value().primary_inputs.size());
      for (std::size_t i = 0; i < frame.size(); ++i) frame[i] = rng.chance(0.5);
    }
    expect_engines_agree(mapped.value(), frames);

    // The mapped scalar reference itself must agree with the gate level, so
    // packed == mapped == gates transitively.
    for (int f = 0; f < 16; ++f) {
      const auto& frame = frames[static_cast<std::size_t>(f)];
      const auto gate_values = net.evaluate(frame);
      const auto lut_out = mapped.value().evaluate_outputs(frame);
      for (std::size_t o = 0; o < net.outputs().size(); ++o) {
        ASSERT_EQ(lut_out[o],
                  gate_values[static_cast<std::size_t>(net.outputs()[o].gate)]);
      }
    }
  }
}

TEST(PackedEval, FoldsConstantsAndWires) {
  // Hand-built netlist exercising every folding case: constant fanins,
  // constant LUTs, wire LUTs, inverters, and outputs that reference
  // constants and primary inputs directly.
  using techmap::NetRef;
  techmap::LutNetlist netlist;
  netlist.primary_inputs = {"a", "b"};
  const NetRef in_a{NetRef::Kind::kPrimaryInput, 0};
  const NetRef in_b{NetRef::Kind::kPrimaryInput, 1};
  const NetRef c0{NetRef::Kind::kConst0, -1};
  const NetRef c1{NetRef::Kind::kConst1, -1};

  techmap::Lut and_c1;  // a AND 1 -> wire to a after folding
  and_c1.inputs = {in_a, c1, NetRef{}};
  and_c1.num_inputs = 2;
  and_c1.truth = 0x8;  // AND
  netlist.luts.push_back(and_c1);

  techmap::Lut or_c1;  // b OR 1 -> constant 1
  or_c1.inputs = {in_b, c1, NetRef{}};
  or_c1.num_inputs = 2;
  or_c1.truth = 0xE;  // OR
  netlist.luts.push_back(or_c1);

  techmap::Lut inv;  // NOT of the folded wire
  inv.inputs = {NetRef{NetRef::Kind::kLut, 0}, NetRef{}, NetRef{}};
  inv.num_inputs = 1;
  inv.truth = 0x1;
  netlist.luts.push_back(inv);

  techmap::Lut xo;  // (wire a) XOR (const 1 lut) XOR b
  xo.inputs = {NetRef{NetRef::Kind::kLut, 0}, NetRef{NetRef::Kind::kLut, 1}, in_b};
  xo.num_inputs = 3;
  xo.truth = 0x96;  // 3-input XOR
  netlist.luts.push_back(xo);

  netlist.outputs.push_back({"wire", NetRef{NetRef::Kind::kLut, 0}});
  netlist.outputs.push_back({"konst", NetRef{NetRef::Kind::kLut, 1}});
  netlist.outputs.push_back({"inv", NetRef{NetRef::Kind::kLut, 2}});
  netlist.outputs.push_back({"xor3", NetRef{NetRef::Kind::kLut, 3}});
  netlist.outputs.push_back({"pass", in_b});
  netlist.outputs.push_back({"zero", c0});

  PackedEvaluator packed(netlist);
  // Folding leaves only the inverter and the xor as real nodes.
  EXPECT_EQ(packed.node_count(), 2u);

  common::Rng rng(11);
  std::vector<std::vector<bool>> frames(256);
  for (auto& frame : frames) frame = {rng.chance(0.5), rng.chance(0.5)};
  expect_engines_agree(netlist, frames);
}

TEST(PackedEval, PropertyRandomLutNetlists) {
  // Random LutNetlists built directly (not through techmap), with constant
  // and primary-input fanins sprinkled in so folding paths stay covered.
  using techmap::NetRef;
  common::Rng rng(2026);
  for (int trial = 0; trial < 10; ++trial) {
    techmap::LutNetlist netlist;
    const unsigned num_inputs = 2 + rng.below(8);
    for (unsigned i = 0; i < num_inputs; ++i) {
      netlist.primary_inputs.push_back("x" + std::to_string(i));
    }
    const unsigned num_luts = 1 + rng.below(40);
    for (unsigned l = 0; l < num_luts; ++l) {
      techmap::Lut lut;
      lut.num_inputs = 1 + rng.below(techmap::kLutInputs);
      for (unsigned k = 0; k < lut.num_inputs; ++k) {
        switch (rng.below(8)) {
          case 0: lut.inputs[k] = NetRef{NetRef::Kind::kConst0, -1}; break;
          case 1: lut.inputs[k] = NetRef{NetRef::Kind::kConst1, -1}; break;
          case 2: case 3:
            lut.inputs[k] =
                NetRef{NetRef::Kind::kPrimaryInput, static_cast<int>(rng.below(num_inputs))};
            break;
          default:
            lut.inputs[k] = (l == 0)
                ? NetRef{NetRef::Kind::kPrimaryInput, static_cast<int>(rng.below(num_inputs))}
                : NetRef{NetRef::Kind::kLut, static_cast<int>(rng.below(l))};
            break;
        }
      }
      lut.truth = static_cast<std::uint8_t>(rng.below(1u << (1u << lut.num_inputs)));
      netlist.luts.push_back(lut);
    }
    for (unsigned o = 0; o < 6; ++o) {
      netlist.outputs.push_back(
          {"o" + std::to_string(o),
           NetRef{NetRef::Kind::kLut, static_cast<int>(rng.below(num_luts))}});
    }

    std::vector<std::vector<bool>> frames(1000);
    for (auto& frame : frames) {
      frame.resize(num_inputs);
      for (std::size_t i = 0; i < frame.size(); ++i) frame[i] = rng.chance(0.5);
    }
    expect_engines_agree(netlist, frames);
  }
}

TEST(PackedEval, RejectsNonTopologicalLutArrays) {
  // A LUT whose fanin references a later LUT would silently read stale
  // lanes in a forward evaluation pass; the constructor must refuse it.
  using techmap::NetRef;
  techmap::LutNetlist netlist;
  netlist.primary_inputs = {"a"};
  techmap::Lut forward;  // reads LUT 1 before it is defined
  forward.inputs = {NetRef{NetRef::Kind::kLut, 1}, NetRef{}, NetRef{}};
  forward.num_inputs = 1;
  forward.truth = 0x1;
  netlist.luts.push_back(forward);
  techmap::Lut inv;
  inv.inputs = {NetRef{NetRef::Kind::kPrimaryInput, 0}, NetRef{}, NetRef{}};
  inv.num_inputs = 1;
  inv.truth = 0x1;
  netlist.luts.push_back(inv);
  netlist.outputs.push_back({"o", NetRef{NetRef::Kind::kLut, 0}});
  EXPECT_THROW(PackedEvaluator{netlist}, common::InternalError);

  // Out-of-range references are rejected too, not read out of bounds.
  techmap::LutNetlist oob;
  oob.primary_inputs = {"a"};
  techmap::Lut bad;
  bad.inputs = {NetRef{NetRef::Kind::kLut, 7}, NetRef{}, NetRef{}};
  bad.num_inputs = 1;
  bad.truth = 0x1;
  oob.luts.push_back(bad);
  oob.outputs.push_back({"o", NetRef{NetRef::Kind::kLut, 0}});
  EXPECT_THROW(PackedEvaluator{oob}, common::InternalError);
}

TEST(PackedEval, ChooseWidthHeuristic) {
  // Thin plans (wire-dominated kernels) are IO-bound: auto stays at one
  // word regardless of trip. Plans with real logic widen with the trip,
  // but never so wide that fewer than two full passes fit.
  common::Rng rng(5);
  auto small = techmap::techmap(random_gate_netlist(rng, 8, 40, 4));
  ASSERT_TRUE(small.is_ok());
  PackedEvaluator small_eval(small.value());
  ASSERT_LT(small_eval.node_count(), 192u);
  EXPECT_EQ(small_eval.choose_width(1u << 20), 1u);

  // A netlist whose every LUT survives folding (3-input XOR chains).
  using techmap::NetRef;
  techmap::LutNetlist big;
  big.primary_inputs = {"x0", "x1", "x2"};
  for (int l = 0; l < 400; ++l) {
    techmap::Lut lut;
    lut.num_inputs = 3;
    lut.truth = 0x96;  // 3-input XOR: never constant, never a wire
    for (unsigned k = 0; k < 3; ++k) {
      lut.inputs[k] = (l == 0) ? NetRef{NetRef::Kind::kPrimaryInput, static_cast<int>(k)}
                               : NetRef{NetRef::Kind::kLut, l - 1 - static_cast<int>(k) % l};
    }
    big.luts.push_back(lut);
  }
  big.outputs.push_back({"o", NetRef{NetRef::Kind::kLut, 399}});
  PackedEvaluator big_eval(big);
  ASSERT_GE(big_eval.node_count(), 192u);
  EXPECT_EQ(big_eval.choose_width(100), 1u);      // < 2 passes at W=2
  EXPECT_EQ(big_eval.choose_width(300), 2u);      // 2 passes at W=2, not at W=4
  EXPECT_EQ(big_eval.choose_width(1u << 20), 4u); // plenty of trip
  for (const std::uint64_t trip : {0ull, 63ull, 512ull, 1ull << 30}) {
    EXPECT_TRUE(PackedEvaluator::width_supported(big_eval.choose_width(trip))) << trip;
  }
}

// ---- Full-kernel equivalence through the executor -------------------------

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

constexpr const char* kTransform = R"(
  li r2, 0x1000
  li r3, 0x4000
  li r4, 200
loop:
  lwi r5, r2, 0
  bslli r6, r5, 3
  xori r6, r6, 0x5A5A
  addi r6, r6, 13
  swi r6, r3, 0
  addi r2, r2, 4
  addi r3, r3, 4
  addi r4, r4, -1
  bne r4, loop
  halt
)";

TEST(PackedExecutor, MatchesScalarEngineOnKernelRun) {
  auto built = build_kernel(kTransform, "loop");
  KernelInvocation invocation;
  invocation.trip = 200;  // three full packed blocks + an 8-lane partial block
  for (const auto& stream : built.ir.streams) {
    invocation.stream_bases.push_back(stream.is_write ? 0x4000 : 0x1000);
  }
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  invocation.live_in[2] = 0x1000;
  invocation.live_in[3] = 0x4000;
  invocation.live_in[4] = 200;

  common::Rng rng(3);
  sim::Memory mem_packed(1 << 16);
  sim::Memory mem_scalar(1 << 16);
  for (unsigned i = 0; i < 200; ++i) {
    const std::uint32_t v = rng.next_u32();
    mem_packed.write32(0x1000 + 4 * i, v);
    mem_scalar.write32(0x1000 + 4 * i, v);
  }

  KernelExecutor packed_exec(*built.kernel, *built.config);
  ASSERT_TRUE(packed_exec.packed_supported());
  auto packed_result = packed_exec.run(mem_packed, invocation);
  ASSERT_TRUE(packed_result.is_ok()) << packed_result.message();
  EXPECT_EQ(packed_result.value().packed_iterations, 200u);
  EXPECT_EQ(packed_result.value().scalar_iterations, 0u);

  KernelExecutor scalar_exec(*built.kernel, *built.config);
  scalar_exec.set_engine(KernelExecutor::EvalEngine::kScalar);
  auto scalar_result = scalar_exec.run(mem_scalar, invocation);
  ASSERT_TRUE(scalar_result.is_ok()) << scalar_result.message();
  EXPECT_EQ(scalar_result.value().packed_iterations, 0u);

  for (unsigned i = 0; i < 200; ++i) {
    ASSERT_EQ(mem_packed.read32(0x4000 + 4 * i), mem_scalar.read32(0x4000 + 4 * i)) << i;
  }
  EXPECT_EQ(packed_result.value().acc_final, scalar_result.value().acc_final);
  EXPECT_EQ(packed_result.value().wcla_cycles, scalar_result.value().wcla_cycles);
}

TEST(PackedExecutor, WidthSweepMatchesScalarEngine) {
  // Pinned lane-block widths: every width must agree with the scalar
  // engine bit-exactly and run the whole trip packed, the remainder of
  // the width*64 blocks as one partial block.
  auto built = build_kernel(kTransform, "loop");
  KernelInvocation invocation;
  invocation.trip = 600;  // W=4: two 256-lane blocks + an 88-lane partial block
  for (const auto& stream : built.ir.streams) {
    invocation.stream_bases.push_back(stream.is_write ? 0x4000 : 0x1000);
  }
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  invocation.live_in[2] = 0x1000;
  invocation.live_in[3] = 0x4000;
  invocation.live_in[4] = 600;

  common::Rng rng(17);
  std::vector<std::uint32_t> data(600);
  for (auto& v : data) v = rng.next_u32();

  sim::Memory mem_scalar(1 << 16);
  for (unsigned i = 0; i < 600; ++i) mem_scalar.write32(0x1000 + 4 * i, data[i]);
  KernelExecutor scalar_exec(*built.kernel, *built.config);
  scalar_exec.set_engine(KernelExecutor::EvalEngine::kScalar);
  auto scalar_result = scalar_exec.run(mem_scalar, invocation);
  ASSERT_TRUE(scalar_result.is_ok()) << scalar_result.message();

  for (const unsigned width : {1u, 2u, 4u}) {
    sim::Memory mem(1 << 16);
    for (unsigned i = 0; i < 600; ++i) mem.write32(0x1000 + 4 * i, data[i]);
    KernelExecutor exec(*built.kernel, *built.config, hwsim::PackedOptions{width});
    ASSERT_TRUE(exec.packed_supported());
    auto result = exec.run(mem, invocation);
    ASSERT_TRUE(result.is_ok()) << result.message();
    EXPECT_EQ(result.value().packed_iterations, 600u) << width;
    EXPECT_EQ(result.value().packed_width, width);
    EXPECT_EQ(result.value().scalar_iterations, 0u) << width;
    for (unsigned i = 0; i < 600; ++i) {
      ASSERT_EQ(mem.read32(0x4000 + 4 * i), mem_scalar.read32(0x4000 + 4 * i))
          << "width " << width << " word " << i;
    }
    EXPECT_EQ(result.value().acc_final, scalar_result.value().acc_final);
    EXPECT_EQ(result.value().wcla_cycles, scalar_result.value().wcla_cycles);
  }

  // set_packed_options re-pins on a live executor and validates its input.
  KernelExecutor exec(*built.kernel, *built.config);
  EXPECT_THROW(exec.set_packed_options(hwsim::PackedOptions{3}), common::InternalError);
  EXPECT_THROW((KernelExecutor{*built.kernel, *built.config, hwsim::PackedOptions{8}}),
               common::InternalError);
}

// The constant multiply has more CSD digits than csd_max_terms, so it goes
// to the hard MAC, and its product feeds fabric adds, a second (variable)
// MAC and the stream write: a three-stage packed plan.
constexpr const char* kMacChain = R"(
  li r2, 0x1000
  li r3, 0x4000
  li r4, 200
loop:
  lwi r5, r2, 0
  muli_p r6, r5, 213
  addi r7, r6, 77
  xor r7, r7, r5
  mul_p r8, r7, r5
  add r8, r8, r6
  swi r8, r3, 0
  addi r2, r2, 4
  addi r3, r3, 4
  addi r4, r4, -1
  bne r4, loop
  halt
)";

// Eight dependent MACs with fabric logic between them: each product feeds
// the next MAC's operand, so the packed plan has nine stages.
constexpr const char* kLongMacChain = R"(
  li r2, 0x1000
  li r3, 0x4000
  li r4, 200
loop:
  lwi r5, r2, 0
  mul_p r6, r5, r5
  addi r6, r6, 1
  mul_p r6, r6, r5
  xori r6, r6, 0x55
  mul_p r6, r6, r5
  addi r6, r6, 3
  mul_p r6, r6, r5
  xor r6, r6, r5
  mul_p r6, r6, r5
  addi r6, r6, 5
  mul_p r6, r6, r5
  xori r6, r6, 0x3C
  mul_p r6, r6, r5
  addi r6, r6, 7
  mul_p r6, r6, r5
  swi r6, r3, 0
  addi r2, r2, 4
  addi r3, r3, 4
  addi r4, r4, -1
  bne r4, loop
  halt
)";

constexpr std::uint32_t kSweepMemBytes = 1u << 16;
constexpr std::uint32_t kSweepWriteBase = 0x4000;

/// An invocation of a loop that reads words through r2, stores through r3
/// and counts r4 down from `trip`. The read stream ends at the last word of
/// memory, so a spare lane of a partial block that read memory would throw.
KernelInvocation sweep_invocation(const Built& built, std::uint64_t trip,
                                  const std::vector<std::uint32_t>& acc_init) {
  const std::uint32_t read_base = kSweepMemBytes - 4 * static_cast<std::uint32_t>(trip);
  KernelInvocation invocation;
  invocation.trip = trip;
  for (const auto& stream : built.ir.streams) {
    invocation.stream_bases.push_back(stream.is_write ? kSweepWriteBase : read_base);
  }
  invocation.acc_init = acc_init;
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  invocation.live_in[2] = read_base;
  invocation.live_in[3] = kSweepWriteBase;
  invocation.live_in[4] = static_cast<std::uint32_t>(trip);
  return invocation;
}

/// Runs `invocation` from seeded memory on the scalar engine, through the
/// golden DFG cross-check, and at every lane-block width (auto, 1, 2, 4),
/// and requires the same data memory and final accumulators from each.
/// `reason` is the kernel's: kNone means every width must run packed;
/// otherwise every run is scalar and must say why.
void expect_engines_match(const Built& built, const KernelInvocation& invocation,
                          ScalarReason reason, const std::string& label) {
  sim::Memory initial(kSweepMemBytes);
  common::Rng rng(invocation.trip * 31 + 5);
  const std::uint32_t read_base = kSweepMemBytes - 4 * static_cast<std::uint32_t>(invocation.trip);
  for (std::uint32_t i = 0; i < invocation.trip; ++i) {
    initial.write32(read_base + 4 * i, rng.next_u32());
  }
  // A sentinel past the trip's writes shows a spare lane that wrote.
  for (std::uint32_t i = 0; i < invocation.trip + kMaxPackedLanes; ++i) {
    initial.write32(kSweepWriteBase + 4 * i, 0xA5A5A5A5u);
  }
  const std::vector<std::uint32_t> snapshot = initial.snapshot_words();

  sim::Memory mem_scalar(kSweepMemBytes);
  mem_scalar.load_words(0, snapshot);
  KernelExecutor scalar_exec(*built.kernel, *built.config);
  scalar_exec.set_engine(KernelExecutor::EvalEngine::kScalar);
  auto scalar = scalar_exec.run(mem_scalar, invocation);
  ASSERT_TRUE(scalar.is_ok()) << label << ": " << scalar.message();
  EXPECT_EQ(scalar.value().scalar_reason,
            reason == ScalarReason::kNone ? ScalarReason::kForcedScalar : reason)
      << label;

  // The golden DFG cross-check throws on any fabric/DFG mismatch.
  sim::Memory mem_dfg(kSweepMemBytes);
  mem_dfg.load_words(0, snapshot);
  KernelExecutor dfg_exec(*built.kernel, *built.config);
  auto dfg = dfg_exec.run(mem_dfg, invocation, /*verify_against_dfg=*/true);
  ASSERT_TRUE(dfg.is_ok()) << label << ": " << dfg.message();
  EXPECT_EQ(mem_dfg.checksum_words(), mem_scalar.checksum_words()) << label;
  EXPECT_EQ(dfg.value().acc_final, scalar.value().acc_final) << label;
  EXPECT_EQ(dfg.value().scalar_reason,
            reason == ScalarReason::kNone ? ScalarReason::kVerify : reason)
      << label;

  for (const unsigned width : {0u, 1u, 2u, 4u}) {
    const std::string at = label + " width " + std::to_string(width);
    sim::Memory mem(kSweepMemBytes);
    mem.load_words(0, snapshot);
    KernelExecutor exec(*built.kernel, *built.config, PackedOptions{width});
    EXPECT_EQ(exec.scalar_reason(), reason) << at;
    auto result = exec.run(mem, invocation);
    ASSERT_TRUE(result.is_ok()) << at << ": " << result.message();
    EXPECT_EQ(result.value().scalar_reason, reason) << at;
    EXPECT_EQ(result.value().packed_iterations,
              reason == ScalarReason::kNone ? invocation.trip : 0u)
        << at;
    for (std::uint32_t i = 0; i <= invocation.trip; ++i) {
      ASSERT_EQ(mem.read32(kSweepWriteBase + 4 * i), mem_scalar.read32(kSweepWriteBase + 4 * i))
          << at << " word " << i;
    }
    EXPECT_EQ(mem.checksum_words(), mem_scalar.checksum_words()) << at;
    EXPECT_EQ(result.value().acc_final, scalar.value().acc_final) << at;
    EXPECT_EQ(result.value().wcla_cycles, scalar.value().wcla_cycles) << at;
  }
}

TEST(PackedExecutor, MacFeedbackMatchesScalar) {
  // Short trips run as one partial block, long ones as full blocks plus
  // one, at every width, against the scalar engine and the DFG. Staging
  // walks each LUT once for all MACs; the long chain's eight dependent MACs
  // must still each be staged after their operands.
  for (const auto& [source, macs] : {std::pair{kMacChain, 2u}, std::pair{kLongMacChain, 8u}}) {
    auto built = build_kernel(source, "loop");
    ASSERT_EQ(built.kernel->mac_ops.size(), macs);
    for (const auto& op : built.kernel->mac_ops) ASSERT_FALSE(op.accumulate);
    for (const std::uint64_t trip : {1u, 7u, 8u, 63u, 64u, 65u, 200u}) {
      expect_engines_match(built, sweep_invocation(built, trip, {}), ScalarReason::kNone,
                           std::to_string(macs) + " MACs trip " + std::to_string(trip));
    }
  }
}

TEST(PackedExecutor, RejectsOutOfOrderMacOperands) {
  // Reverse the MAC numbering, so that MAC 0 takes the operands that read
  // the other MACs' results: the scalar engine would read those results
  // before they are set, so the packed plan must refuse to stage them.
  for (const char* source : {kMacChain, kLongMacChain}) {
    auto built = build_kernel(source, "loop");
    fabric::FabricConfig reversed = *built.config;
    const auto last = static_cast<unsigned>(built.kernel->mac_ops.size()) - 1;
    for (auto& port : reversed.netlist.output_ports) {
      if (port.kind == techmap::PortSpec::Kind::kMacA ||
          port.kind == techmap::PortSpec::Kind::kMacB) {
        port.a = last - port.a;
      }
    }
    EXPECT_NO_THROW((KernelExecutor{*built.kernel, *built.config}));
    EXPECT_THROW((KernelExecutor{*built.kernel, reversed}), common::InternalError);
  }
}

/// A loop over words r5 (read through r2) with two derived values, r6 (the
/// high half) and r7 (the low 15 bits), around `body`; the reductions end
/// up in memory after the loop.
std::string reduction_loop(const std::string& body) {
  return "  li r2, 0x1000\n  li r3, 0x4000\n  li r4, 200\n"
         "  li r8, 0\n  li r10, -1\n  li r11, 0\n"
         "loop:\n"
         "  lwi r5, r2, 0\n  shr_i r6, r5, 16\n  andi r7, r5, 0x7FFF\n" +
         body +
         "  addi r2, r2, 4\n  addi r3, r3, 4\n  addi r4, r4, -1\n  bne r4, loop\n"
         "  li r2, 256\n  swi r8, r2, 0\n  swi r10, r2, 4\n  swi r11, r2, 8\n  halt\n";
}

constexpr std::uint64_t kConeTrips[] = {1, 7, 63, 64, 65, 200, 999};

/// Every trip of kConeTrips, with seeded initial accumulator values.
void sweep_trips(const Built& built, ScalarReason reason, const std::string& shape) {
  for (const std::uint64_t trip : kConeTrips) {
    common::Rng rng(trip);
    std::vector<std::uint32_t> acc_init(built.ir.accumulators.size());
    for (auto& v : acc_init) v = rng.next_u32();
    expect_engines_match(built, sweep_invocation(built, trip, acc_init), reason,
                         shape + " trip " + std::to_string(trip));
  }
}

TEST(PackedExecutor, StateConeShapesMatchScalar) {
  // Fabric-held reductions run packed: every LUT outside the state cone in
  // lane blocks, the cone lane by lane in iteration order.
  const struct {
    const char* name;
    const char* body;
    std::size_t accumulators;
  } shapes[] = {
      {"xor", "  xor r8, r8, r7\n  swi r6, r3, 0\n", 1},
      {"or", "  or r8, r8, r6\n  swi r7, r3, 0\n", 1},
      {"and", "  or r9, r5, r6\n  and r10, r10, r9\n  swi r7, r3, 0\n", 1},
      {"xor+and", "  xor r8, r8, r7\n  and r10, r10, r5\n  swi r6, r3, 0\n", 2},
      {"stored xor", "  xor r8, r8, r7\n  swi r8, r3, 0\n", 1},
      {"xor beside a MAC add", "  xor r8, r8, r7\n  add r11, r11, r6\n  swi r7, r3, 0\n", 2},
  };
  for (const auto& shape : shapes) {
    auto built = build_kernel(reduction_loop(shape.body), "loop");
    ASSERT_EQ(built.ir.accumulators.size(), shape.accumulators) << shape.name;
    ASSERT_FALSE(built.kernel->acc_state_inputs.empty()) << shape.name;
    sweep_trips(built, ScalarReason::kNone, shape.name);
  }
}

TEST(PackedExecutor, StateTheConeCannotThreadStaysScalar) {
  // A MAC reading the fabric-held state would have to run inside the
  // lane-by-lane cone; a MAC-held sum read back by the fabric changes
  // outside it. Both stay on the scalar engine, say why, and still match.
  auto mac_in_cone = build_kernel(
      reduction_loop("  xor r8, r8, r7\n  mul_p r9, r8, r7\n  swi r9, r3, 0\n"), "loop");
  sweep_trips(mac_in_cone, ScalarReason::kMacOperandInCone, "mac operand in cone");

  auto stored_sum = build_kernel(reduction_loop("  add r11, r11, r7\n  swi r11, r3, 0\n"),
                                 "loop");
  sweep_trips(stored_sum, ScalarReason::kMacHeldState, "stored mac sum");
}

TEST(PackedExecutor, InPlaceTransformStaysPacked) {
  // Read and write the same array in place: the hazard analysis must prove
  // the block-batched engine safe (same address read-then-written within
  // each iteration only).
  constexpr const char* kInPlace = R"(
    li r2, 0x1000
    li r4, 150
  loop:
    lwi r5, r2, 0
    xori r5, r5, 0x3C3C
    swi r5, r2, 0
    addi r2, r2, 4
    addi r4, r4, -1
    bne r4, loop
    halt
  )";
  auto built = build_kernel(kInPlace, "loop");
  KernelInvocation invocation;
  invocation.trip = 150;
  invocation.stream_bases.assign(built.ir.streams.size(), 0x1000);
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  invocation.live_in[2] = 0x1000;
  invocation.live_in[4] = 150;

  sim::Memory mem(1 << 16);
  for (unsigned i = 0; i < 150; ++i) mem.write32(0x1000 + 4 * i, i * 2654435761u);

  KernelExecutor executor(*built.kernel, *built.config);
  auto result = executor.run(mem, invocation);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().packed_iterations, 150u);
  EXPECT_EQ(result.value().scalar_iterations, 0u);
  for (unsigned i = 0; i < 150; ++i) {
    EXPECT_EQ(mem.read32(0x1000 + 4 * i), (i * 2654435761u) ^ 0x3C3Cu) << i;
  }
}

TEST(PackedExecutor, SubElementStrideFallsBackToScalar) {
  // In-place word loop advancing 2 bytes per iteration: the write of
  // iteration i partially overlaps the read of iteration i+1 (no exact
  // address collision, just byte-range overlap), so the packed engine must
  // refuse the block batching and match the scalar engine exactly.
  constexpr const char* kOverlapping = R"(
    li r2, 0x1000
    li r4, 150
  loop:
    lwi r5, r2, 0
    xori r5, r5, 0x7711
    swi r5, r2, 0
    addi r2, r2, 2
    addi r4, r4, -1
    bne r4, loop
    halt
  )";
  auto built = build_kernel(kOverlapping, "loop");
  KernelInvocation invocation;
  invocation.trip = 150;
  invocation.stream_bases.assign(built.ir.streams.size(), 0x1000);
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  invocation.live_in[2] = 0x1000;
  invocation.live_in[4] = 150;

  sim::Memory mem_scalar(1 << 16);
  common::Rng seed_rng(9);
  for (unsigned i = 0; i < 200; ++i) {
    mem_scalar.write32(0x1000 + 4 * i, seed_rng.next_u32());
  }

  KernelExecutor scalar_exec(*built.kernel, *built.config);
  scalar_exec.set_engine(KernelExecutor::EvalEngine::kScalar);
  auto scalar_result = scalar_exec.run(mem_scalar, invocation);
  ASSERT_TRUE(scalar_result.is_ok()) << scalar_result.message();

  // The hazard must hold at auto and at every pinned width: the write of
  // iteration i partially overlaps the read of i+1 no matter how wide the
  // block is.
  for (const unsigned width : {0u, 1u, 2u, 4u}) {
    // Fresh copy of the original data (the scalar run transformed its own
    // copy in place).
    sim::Memory mem_auto(1 << 16);
    common::Rng rng(9);
    for (unsigned i = 0; i < 200; ++i) mem_auto.write32(0x1000 + 4 * i, rng.next_u32());
    KernelExecutor exec(*built.kernel, *built.config, hwsim::PackedOptions{width});
    auto result = exec.run(mem_auto, invocation);
    ASSERT_TRUE(result.is_ok()) << result.message();
    EXPECT_EQ(result.value().packed_iterations, 0u) << width;  // hazard: stays scalar
    EXPECT_EQ(result.value().packed_width, 0u) << width;
    EXPECT_EQ(result.value().scalar_reason, ScalarReason::kStreamAlias) << width;
    EXPECT_EQ(exec.scalar_reason(), ScalarReason::kNone) << width;  // the invocation's, not the kernel's
    for (unsigned i = 0; i < 200; ++i) {
      ASSERT_EQ(mem_auto.read32(0x1000 + 4 * i), mem_scalar.read32(0x1000 + 4 * i))
          << "width " << width << " word " << i;
    }
  }
}

TEST(PackedExecutor, HarnessBenchmarksStayGolden) {
  // Regression for the whole methodology: all six paper workloads must
  // still report ok (golden outputs bit-exact on both runs) with the packed
  // engine backing the default executor path.
  const auto results = experiments::run_all_benchmarks(experiments::default_options());
  ASSERT_EQ(results.size(), 6u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
    EXPECT_TRUE(result.warped) << result.name << ": " << result.warp_detail;
  }
}

TEST(PackedExecutor, FirEngagesWideAutoWidthEndToEnd) {
  // fir exists precisely to drive the packed engine's wide widths through
  // the whole executor: LUT-heavy (hundreds of surviving plan nodes, above
  // the auto mode's thin-plan cutoff) and feedback-free (no accumulators,
  // no MAC, no in-place hazard), with a long trip. Auto mode must therefore
  // pick a lane block wider than one word — no other registered workload
  // reaches W>1 end-to-end without pinning.
  const auto& fir = workloads::workload_by_name("fir");
  auto flowed = experiments::flow_workload(fir, experiments::default_options(), 1u << 20);
  ASSERT_TRUE(flowed.is_ok()) << flowed.message();
  KernelExecutor* exec = flowed.value().system->wcla().executor();
  ASSERT_TRUE(exec->packed_supported()) << "fir must be packed-eligible";
  EXPECT_GE(exec->packed_node_count(), 192u) << "fir must be LUT-heavy";
  sim::Memory& mem = flowed.value().system->data_mem();
  auto result = exec->run(mem, flowed.value().invocation);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_GT(result.value().packed_width, 1u) << "auto mode stayed narrow";
  EXPECT_GT(result.value().packed_iterations, 0u);
}

TEST(PackedExecutor, AllWorkloadsBitExactAtEveryWidth) {
  // Acceptance gate for the lane-block engine: every registered workload
  // (the paper kernels plus crc and fir) is run through the full warp flow,
  // then its captured invocation is re-executed at every pinned width and
  // in auto mode and compared word-for-word against the scalar reference.
  // Every kernel, canrdr's and crc's fabric-held XOR state and idct's MAC
  // feedback included, must run its whole trip packed.
  for (const auto& workload : workloads::extended_workloads()) {
    // Full flow with the trip stretched (within the data BRAM, keeping
    // packed eligibility) so wide blocks actually engage on
    // packed-capable kernels.
    auto flowed =
        experiments::flow_workload(workload, experiments::default_options(), 2048);
    ASSERT_TRUE(flowed.is_ok()) << flowed.message();
    KernelExecutor* exec = flowed.value().system->wcla().executor();
    sim::Memory& mem = flowed.value().system->data_mem();
    EXPECT_TRUE(exec->packed_supported())
        << workload.name << ": " << scalar_reason_name(exec->scalar_reason());

    // The stretched invocation, then the stub's own (short trips such as
    // idct's 8, matmul's 24 and bitmnp's 32 run as one partial block).
    const KernelInvocation stretched = flowed.value().invocation;
    const KernelInvocation stub = flowed.value().system->wcla().invocation();
    for (const KernelInvocation* invocation : {&stretched, &stub}) {
      const std::string label = workload.name + " trip " + std::to_string(invocation->trip);
      const std::vector<std::uint32_t> snapshot = mem.snapshot_words();
      exec->set_engine(KernelExecutor::EvalEngine::kScalar);
      auto scalar_result = exec->run(mem, *invocation);
      ASSERT_TRUE(scalar_result.is_ok()) << label;
      const std::uint64_t scalar_sum = mem.checksum_words();
      exec->set_engine(KernelExecutor::EvalEngine::kAuto);

      for (const unsigned width : {0u, 1u, 2u, 4u}) {
        mem.load_words(0, snapshot);
        exec->set_packed_options(hwsim::PackedOptions{width});
        auto result = exec->run(mem, *invocation);
        ASSERT_TRUE(result.is_ok()) << label << " width " << width;
        EXPECT_EQ(mem.checksum_words(), scalar_sum) << label << " width " << width;
        EXPECT_EQ(result.value().acc_final, scalar_result.value().acc_final)
            << label << " width " << width;
        // No registered workload aliases its streams within a block, so
        // no kernel falls back.
        EXPECT_EQ(result.value().packed_iterations, invocation->trip)
            << label << " width " << width;
      }
      mem.load_words(0, snapshot);
    }
  }
}

}  // namespace
}  // namespace warp::hwsim
