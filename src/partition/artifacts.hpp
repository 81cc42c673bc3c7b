// Typed stage artifacts of the partition pipeline.
//
// Artifacts are immutable once published (the caches hand out shared_ptr
// <const T>). Stages that can reject their input store the rejection: a
// cached failure short-circuits the same way a computed one does, with the
// same error text. Every cached rejection is a pure function of the input;
// an injected stage fault is never cached (Pipeline::stage). Metered unit
// counts ride along so virtual-time charges can be replayed
// deterministically on hits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decompile/cfg.hpp"
#include "decompile/kernel_ir.hpp"
#include "decompile/liveness.hpp"
#include "fabric/wcla.hpp"
#include "partition/cache_key.hpp"
#include "pnr/pnr.hpp"
#include "synth/hw_kernel.hpp"
#include "techmap/techmap.hpp"
#include "warp/stub_builder.hpp"

namespace warp::partition {

struct FrontendArtifact {
  decompile::Cfg cfg;
  // Built against `cfg` after it reaches its final address (the artifact
  // lives behind a shared_ptr), hence the indirection; also makes the
  // artifact non-copyable, so the reference can never dangle.
  std::unique_ptr<decompile::Liveness> liveness;
  std::uint64_t instrs = 0;  // metered: decode + CFG + liveness units
};

struct DecompileArtifact {
  bool ok = false;
  std::string error;               // rejection reason when !ok
  decompile::KernelIR ir;          // valid when ok
  common::Digest ir_hash;          // content hash of `ir`, valid when ok
  std::uint64_t region_instrs = 0; // metered: symbolic-execution units
};

struct SynthArtifact {
  bool ok = false;
  std::string error;
  synth::HwKernel kernel;       // valid when ok
  common::Digest kernel_hash;   // content hash of `kernel`, valid when ok
  std::uint64_t fabric_gates = 0;  // metered: bit-blast units (0 when !ok)
};

struct TechmapArtifact {
  bool ok = false;
  std::string error;
  techmap::LutNetlist netlist;   // valid when ok
  techmap::TechmapStats stats;   // metered: cut_count / luts_out
  common::Digest netlist_hash;   // content hash of `netlist`, valid when ok
};

struct RocmArtifact {
  unsigned literals_before = 0;
  unsigned literals_after = 0;
  std::uint64_t tautology_calls = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t steps = 0;  // metered: expand + tautology units over all LUTs
};

struct PnrArtifact {
  bool ok = false;
  std::string error;
  pnr::PnrResult result;       // valid when ok
  common::Digest result_hash;  // content hash of `result`, valid when ok
};

struct BitstreamArtifact {
  std::vector<std::uint32_t> words;
};

struct StubArtifact {
  bool ok = false;
  std::string error;
  warpsys::Stub stub;  // valid when ok
};

}  // namespace warp::partition
