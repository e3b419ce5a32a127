// The benchmark's four workloads, built through the public Simulation API.
//
// Every workload is a pure function of (config, seed): the same seed gives
// the same population, behaviors and fields, so a run's StateHash sequence
// is reproducible and comparable across pipelines (façade vs. replica,
// unsharded vs. sharded). perfbench/spec.json records why each workload
// exists and which layer metrics it is expected to move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "gpu/gpu_mechanical_op.h"

namespace perfbench {

enum class Kind { kSparseWalk, kTumorGrowth, kGpuCloud };

/// Size and knobs of one workload. FullSize() gives the benchmark's
/// instance; SmallSize() a shrunken one with the same structure, for tests.
struct WorkloadConfig {
  std::string name;
  Kind kind = Kind::kSparseWalk;
  /// Agents at setup (tumor_growth: cells_per_dim^3).
  size_t agents = 0;
  size_t cells_per_dim = 0;
  /// Cube edge (sparse pair; the tumor cube follows benchmark A and the
  /// GPU cloud's follows its density).
  double edge = 0.0;
  uint32_t num_shards = 0;
  size_t diffusion_resolution = 0;
  /// Benchmark B's target mean neighborhood density (gpu_cloud).
  double density = 0.0;
  /// Steps run during setup (sizing grids and scratch) and steps timed per
  /// episode; an episode is setup followed by the timed steps.
  uint64_t warmup_steps = 0;
  uint64_t timed_steps = 0;
};

/// Names of every workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();
/// Throws std::invalid_argument for an unknown name.
WorkloadConfig FullSize(const std::string& name);
WorkloadConfig SmallSize(const std::string& name);

/// A built workload: the simulation plus the handles the benchmark reads.
struct Instance {
  std::unique_ptr<biosim::Simulation> sim;
  /// Non-owning; set on gpu_cloud only.
  biosim::gpu::GpuMechanicalOp* gpu = nullptr;
};

/// Builds the population, behaviors and fields of `cfg` from `seed`, with
/// `threads` worker threads. Runs no step.
Instance Build(const WorkloadConfig& cfg, uint64_t seed, uint32_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
