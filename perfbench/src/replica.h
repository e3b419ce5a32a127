// Traced replica of one Simulation::Simulate(1) step.
//
// The replica calls each layer's public entry point in the pipeline's order
// (core/simulation.cc) and times every call from here, so per-layer cost
// and work counts come without tracing inside the library. It advances the
// clock with Simulation::SetStep. Its StateHash must equal the façade's at
// every step; the benchmark checks that, so a replica that drifts from the
// pipeline it mirrors is caught rather than silently timing something else.
//
// It replicates the pipelines the workloads use: unsharded or sharded, with
// z-order sorting and overlap_ops off (the constructor rejects the others).
#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <array>
#include <cstdint>
#include <memory>

#include "core/profiler.h"
#include "core/shard_runtime.h"
#include "core/simulation.h"
#include "gpu/gpu_mechanical_op.h"

namespace perfbench {

enum Layer : int {
  kBehaviors,
  kDepositMerge,
  kCommit,
  kGridUpdate,
  kShardPartition,
  kShardHalo,
  kShardGrids,
  kForces,
  kApply,
  kDiffusion,
  kGpuStep,
  kLayerCount,
};

/// Metric-name prefix of a layer, e.g. "core.behaviors".
const char* LayerName(int layer);

struct LayerSample {
  double ns = 0.0;
  uint64_t units = 0;
};

/// What one replica step measured. Counters are this step's deltas.
struct StepTrace {
  std::array<LayerSample, kLayerCount> layers{};
  double step_ns = 0.0;
  uint64_t halo_messages = 0;
  uint64_t halo_bytes = 0;
  uint64_t grid_full_rebuilds = 0;
  uint64_t grid_incremental_updates = 0;
  uint64_t grid_rebinned_agents = 0;
  uint64_t grid_total_boxes = 0;
  /// Voxels x substeps x 2 arrays x 8 bytes: computed from array sizes,
  /// not measured (cache misses are not counted).
  uint64_t diffusion_bytes_computed = 0;
  uint64_t dropped_deposits = 0;
  // gpusim, modeled: read from Device::history() and the transfer stats.
  double gpu_zorder_ms = 0.0;
  double gpu_h2d_ms = 0.0;
  double gpu_kernels_ms = 0.0;
  double gpu_d2h_ms = 0.0;
  uint64_t gpu_dram_bytes = 0;
  uint64_t gpu_dram_read_bytes = 0;
  uint64_t gpu_l2_read_hit_bytes = 0;
  uint64_t gpu_lane_ops = 0;
  uint64_t gpu_warp_slots = 0;
  uint64_t gpu_h2d_bytes = 0;
  uint64_t gpu_d2h_bytes = 0;
};

class Replica {
 public:
  /// `sim` is stepped only through this replica from now on. `gpu` is the
  /// GPU backend when the simulation uses it, else nullptr.
  Replica(biosim::Simulation& sim, biosim::gpu::GpuMechanicalOp* gpu);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  StepTrace Step();

  /// Test hook: call Environment::Update twice per step. The second call
  /// is idempotent, so the state must not change; only the layer's time.
  void set_double_grid_update(bool on) { double_grid_update_ = on; }

 private:
  void RunBehaviors(StepTrace& t);
  void RunBehaviorsSharded(StepTrace& t);
  void RunShardedOps(StepTrace& t);
  void RunGridUpdate(StepTrace& t);
  void RunMechanics(StepTrace& t);
  void RunDiffusion(StepTrace& t);

  biosim::Simulation& sim_;
  biosim::gpu::GpuMechanicalOp* gpu_;
  std::unique_ptr<biosim::ShardRuntime> runtime_;
  biosim::OpProfile gpu_profile_;
  bool double_grid_update_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
