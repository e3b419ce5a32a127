// Episodes: one workload set up from its seed, then stepped for its timed
// steps, either through the public façade (Simulate(1) per step) or through
// the traced replica.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/simulation.h"
#include "replica.h"
#include "workloads.h"

namespace perfbench {

struct FacadeEpisode {
  /// Start of the workload to its first timed step: population, behaviors,
  /// fields and the warm-up steps (hashing excluded).
  double setup_s = 0.0;
  std::vector<double> step_ms;
  /// Agents alive at the start of each timed step.
  std::vector<uint64_t> agents;
  /// StateHash after every step, warm-up included (when requested).
  std::vector<uint64_t> hashes;
  uint64_t final_hash = 0;
  uint64_t final_agents = 0;
  /// Uid-ordered position fingerprints before the first and after the last
  /// step: they differ iff some position in the host state changed.
  uint64_t initial_positions = 0;
  uint64_t final_positions = 0;
  bool positions_ok = false;
  /// Modeled gpusim time over the timed steps (gpu_cloud only).
  double gpu_sim_ms = 0.0;
  /// Deposits the diffusion grid dropped during the timed steps.
  uint64_t dropped_deposits = 0;
};

FacadeEpisode RunFacade(const WorkloadConfig& cfg, uint64_t seed,
                        uint32_t threads, bool record_hashes);

struct ReplicaEpisode {
  std::vector<StepTrace> steps;  // timed steps only
  std::vector<uint64_t> hashes;  // every step, warm-up included
  bool positions_ok = false;
};

ReplicaEpisode RunReplica(const WorkloadConfig& cfg, uint64_t seed,
                          uint32_t threads);

/// Every position finite and inside the simulation cube.
bool PositionsInCube(const biosim::Simulation& sim);

/// Fingerprint of the positions in uid order, independent of row order.
uint64_t PositionFingerprint(const biosim::Simulation& sim);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
