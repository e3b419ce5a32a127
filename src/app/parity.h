// Cross-backend parity harness (docs/determinism.md).
//
// Runs one seeded scenario through every neighbor-search / mechanics backend
// combination the engine ships — kd-tree, uniform grid serial, uniform grid
// parallel, the fused CSR fast path (serial and parallel), the spatially
// sharded pipeline (cpu_sharded: two shards with halo exchange,
// docs/sharding.md), the vectorized fused kernel (cpu_simd, and its FP32
// precision mode cpu_fp32), and the GPU version ladder v0..v3 — and
// compares each trajectory against the uniform-grid serial reference (which
// runs the generic callback pass through ReferenceMechanicsBackend, so the
// cpu_fast rows prove fused == callback):
//
//   * backends that owe *bitwise* equality (uniform grid parallel, the
//     fused fast path — same FP operations in the same order at any worker
//     count — and the sharded pipeline, whose merge discipline makes the
//     shard count invisible) are compared by their per-step state-hash
//     sequences;
//   * backends that legitimately alter individual FP operations
//     (kd-tree traversal order; the SIMD kernel's FMA-contracted
//     distances; host/GPU FP32 kernels) are compared by the final
//     per-agent positions, keyed by uid, against a documented tolerance
//     bound.
//
// Both tools/biosim_parity.cc and tests/integration/parity_test.cc are thin
// wrappers around RunParity, so CI and local runs enforce the same bounds.
#ifndef BIOSIM_APP_PARITY_H_
#define BIOSIM_APP_PARITY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace biosim::app {

/// The seeded scenario every backend runs: `agents` random cells of
/// `diameter` in a [0, space]^3 cube (benchmark-B layout, no behaviors, no
/// diffusion — positions are the compared state), stepped `steps` times.
struct ParityScenario {
  size_t agents = 300;
  double space = 50.0;
  double diameter = 10.0;
  uint64_t seed = 77;
  uint64_t steps = 5;
};

/// One backend's comparison against the uniform-grid serial reference.
struct ParityResult {
  std::string backend;
  /// True when the backend owes bitwise-identical state (pass requires
  /// hashes_equal); false when only the tolerance bound is owed.
  bool bitwise_required = false;
  /// Allowed max |Δ position component| vs the reference (tolerance
  /// backends; 0 for bitwise backends).
  double tolerance = 0.0;
  /// Measured max |Δ position component| over all agents, keyed by uid.
  double max_abs_delta = 0.0;
  /// Per-step state-hash sequence identical to the reference's.
  bool hashes_equal = false;
  /// State hash after the final step.
  uint64_t final_hash = 0;
  bool pass = false;
};

struct ParityReport {
  ParityScenario scenario;
  /// First entry is the uniform-grid serial reference itself.
  std::vector<ParityResult> results;
  bool all_pass = false;
  /// Human-readable table, one backend per line.
  std::string ToString() const;
};

/// Run the scenario through all backends and bound the divergence. Never
/// throws on divergence — inspect all_pass / per-result pass.
ParityReport RunParity(const ParityScenario& scenario);

}  // namespace biosim::app

#endif  // BIOSIM_APP_PARITY_H_
