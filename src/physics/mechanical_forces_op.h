// CPU mechanical-interaction operation.
//
// For each agent: iterate its neighborhood through the Environment, sum the
// Eq. (1) collision forces plus the tractor force, convert to a displacement
// (adherence gate + clamp), and buffer it. Displacements are applied in a
// second pass so the computation reads a consistent snapshot of positions —
// the same two-phase structure the GPU offload uses (compute on device,
// apply on host).
//
// Three compute paths (docs/perf.md); ComputeDisplacements picks the fused
// or SIMD path whenever the environment is a UniformGridEnvironment and the
// generic path otherwise:
//
//   * generic (ComputeDisplacementsGeneric): per-agent virtual
//     ForEachNeighborWithinRadius with a function_ref callback — works
//     against any Environment, and is the reference the fused path is
//     tested against (ReferenceMechanicsBackend, parity rows ug_serial /
//     ug_parallel);
//   * fused (uniform grid): slot-by-slot traversal of the grid's
//     occupancy-compacted CSR (spatial/compact_grid.h). Each occupied box
//     resolves its 27-neighbor block once and reuses it for every resident
//     agent, and the inner loop streams contiguous runs with no indirect
//     calls. Bitwise-identical to the generic path: both visit each
//     agent's neighbors in the identical canonical order
//     (GridGeometry::ForEachNeighborCoord block order, ascending agent
//     index within a box) and evaluate the same FP expressions on them;
//   * SIMD (param.cpu_simd and/or Precision::kFp32, uniform grid only):
//     the fused traversal with the per-agent candidate sweep vectorized
//     over width-padded SoA scratch (physics/simd_force_kernel.h),
//     optionally with the pair math narrowed to FP32 (the paper's
//     Improvement I on the host). FMA-contracted distances mean this path
//     owes only a *tolerance* against the scalar reference — but it is
//     bitwise independent of the dispatched vector width, the worker
//     count, and the run (docs/determinism.md, parity rows cpu_simd /
//     cpu_fp32).
//
// The unsharded grid and every spatial shard are windows of the same
// compacted CSR, so the fused and SIMD paths have one entry
// (ComputeDisplacementsSharded) that the unsharded step calls with a single
// window.
#ifndef BIOSIM_PHYSICS_MECHANICAL_FORCES_OP_H_
#define BIOSIM_PHYSICS_MECHANICAL_FORCES_OP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/param.h"
#include "core/resource_manager.h"
#include "core/thread_pool.h"
#include "physics/force_law.h"
#include "spatial/csr_grid_view.h"
#include "spatial/environment.h"

namespace biosim {

/// One window's slice of a fused force pass: its occupancy-compacted CSR
/// (for a shard, owned + halo members; docs/sharding.md), the number of
/// its owned slots — the pass visits slots [0, num_slots) — and the order
/// to visit them in (CompactGrid::traversal_order; null for ascending).
/// The shard runtime guarantees the owned boxes of all shards partition the
/// global non-empty box set, so every agent row is written by exactly one
/// window.
struct ShardForceInput {
  CsrGridView view;
  size_t num_slots = 0;
  const uint32_t* order = nullptr;
};

class MechanicalForcesOp {
 public:
  /// Contact law used for pairwise forces (the GPU kernels always use the
  /// paper's Cortex3D law; see force_law.h).
  explicit MechanicalForcesOp(ForceLaw law = ForceLaw::kCortex3D)
      : force_law_(law) {}

  /// Compute per-agent displacements into an internal buffer: the fused
  /// (or SIMD) pass on a uniform grid, the generic pass on any other
  /// environment. The environment must be up to date. Throws
  /// std::invalid_argument when a vector mode (param.cpu_simd / FP32
  /// precision) is requested but the environment is not a uniform grid —
  /// the vector kernel consumes the grid's CSR layout and has no generic
  /// fallback.
  void ComputeDisplacements(const ResourceManager& rm, const Environment& env,
                            const Param& param, ExecMode mode);

  /// The generic callback pass on any environment, uniform grid included:
  /// the scalar FP64 reference the fused path owes bitwise equality to.
  /// Ignores the vector modes.
  void ComputeDisplacementsGeneric(const ResourceManager& rm,
                                   const Environment& env, const Param& param,
                                   ExecMode mode);

  /// Apply the buffered displacements to the agent positions (and bound the
  /// space). Also zeroes the buffer.
  void ApplyDisplacements(ResourceManager& rm, const Param& param,
                          ExecMode mode);

  /// The fused (or SIMD) pass, run once per window over that window's CSR
  /// view and owned slots; ComputeDisplacements calls it with the global
  /// grid as the one window. Each owned box
  /// presents the identical candidate sequence the global grid would (the
  /// halo exchange ships every agent within one box of a shard face), and
  /// each agent row is owned by exactly one shard, so the displacement
  /// buffer is filled with bitwise the same values as the unsharded pass —
  /// per-shard grids only shrink the *maintenance* cost, never the force
  /// math. `interaction_radius` must not exceed `box_length` (throws
  /// std::invalid_argument; the shard lattice is derived with boxes >= the
  /// radius, so this only fires on misuse).
  void ComputeDisplacementsSharded(const ResourceManager& rm,
                                   const std::vector<ShardForceInput>& shards,
                                   double interaction_radius,
                                   double box_length, const Param& param,
                                   ExecMode mode);

  /// Displacement buffer (tests and the GPU-equivalence suite compare it).
  const std::vector<Double3>& displacements() const { return displacements_; }
  std::vector<Double3>& mutable_displacements() { return displacements_; }

  /// Number of force evaluations in the last ComputeDisplacements call
  /// (work-count diagnostics; also drives CPU-model calibration). Identical
  /// between the generic, fused, and SIMD paths — the CI perf-smoke job
  /// fails if they ever diverge.
  size_t last_force_evaluations() const { return force_evaluations_; }

  /// Whether the last ComputeDisplacements call took the fused CSR path
  /// (scalar or SIMD).
  bool last_used_fast_path() const { return used_fast_path_; }

 private:
  ForceLaw force_law_;
  std::vector<Double3> displacements_;
  size_t force_evaluations_ = 0;
  bool used_fast_path_ = false;
};

}  // namespace biosim

#endif  // BIOSIM_PHYSICS_MECHANICAL_FORCES_OP_H_
