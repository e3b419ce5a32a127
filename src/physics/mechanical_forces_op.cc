#include "physics/mechanical_forces_op.h"

#include <atomic>
#include <stdexcept>
#include <string>

#include "core/simd.h"
#include "physics/displacement.h"
#include "physics/simd_kernel_dispatch.h"
#include "spatial/uniform_grid.h"

namespace biosim {

namespace {

/// Precondition of the fused kernel: the 27-box scheme only covers one box
/// length.
void CheckRadiusFitsBox(double radius, double box_length) {
  if (radius > box_length + 1e-12) {
    throw std::invalid_argument(
        "MechanicalForcesOp: interaction radius " + std::to_string(radius) +
        " exceeds the grid box length " + std::to_string(box_length));
  }
}

}  // namespace

void MechanicalForcesOp::ComputeDisplacements(const ResourceManager& rm,
                                              const Environment& env,
                                              const Param& param,
                                              ExecMode mode) {
  // One dynamic_cast per step, not per query: the fused kernel consumes the
  // uniform grid's CSR layout; kd-tree and null environments take the
  // generic path.
  if (const auto* grid = dynamic_cast<const UniformGridEnvironment*>(&env)) {
    // The whole lattice is one window whose slots are all owned.
    const CompactGrid& csr = grid->csr();
    ComputeDisplacementsSharded(rm,
                                {{csr.View(), csr.owned_slots(),
                                  csr.traversal_order()}},
                                grid->interaction_radius(),
                                grid->box_length(), param, mode);
    return;
  }
  ComputeDisplacementsGeneric(rm, env, param, mode);
}

void MechanicalForcesOp::ComputeDisplacementsGeneric(const ResourceManager& rm,
                                                     const Environment& env,
                                                     const Param& param,
                                                     ExecMode mode) {
  used_fast_path_ = false;

  size_t n = rm.size();
  displacements_.assign(n, Double3{});

  const auto& positions = rm.positions();
  const auto& diameters = rm.diameters();
  const auto& adherences = rm.adherences();
  const auto& tractor = rm.tractor_forces();

  const ForceParams<double> fp{param.repulsion_coefficient,
                               param.attraction_coefficient};
  const double dt = param.simulation_time_step;
  const double max_disp = param.simulation_max_displacement;
  const double radius = env.interaction_radius();
  const bool torus = param.boundary_mode == BoundaryMode::kTorus;
  const double edge = param.SpaceEdge();

  std::atomic<size_t> evals{0};

  ParallelForChunks(mode, n, [&](size_t begin, size_t end) {
    size_t local_evals = 0;
    for (size_t i = begin; i < end; ++i) {
      const Double3 pi = positions[i];
      const double ri = diameters[i] / 2.0;
      Double3 force = tractor[i];

      env.ForEachNeighborWithinRadius(
          i, rm, radius, [&](AgentIndex j, double) {
            // On a torus the neighbor may be an image across a face; shift
            // it so p_i - p_j is the minimum-image separation.
            Double3 pj = torus ? pi - MinImageVector(pi, positions[j], edge)
                               : positions[j];
            force += EvaluateForce(force_law_, pi, ri, pj,
                                   diameters[j] / 2.0, fp);
            ++local_evals;
          });

      displacements_[i] =
          ComputeDisplacement(force, adherences[i], dt, max_disp);
    }
    evals.fetch_add(local_evals, std::memory_order_relaxed);
  });

  force_evaluations_ = evals.load(std::memory_order_relaxed);
}

void MechanicalForcesOp::ComputeDisplacementsSharded(
    const ResourceManager& rm, const std::vector<ShardForceInput>& shards,
    double interaction_radius, double box_length, const Param& param,
    ExecMode mode) {
  const size_t n = rm.size();
  displacements_.assign(n, Double3{});
  used_fast_path_ = true;
  if (n == 0) {
    force_evaluations_ = 0;
    return;
  }
  CheckRadiusFitsBox(interaction_radius, box_length);

  // The kernel per window, one kernel selection for all of them. It writes
  // the net *force* of every row resident in the window's owned boxes into
  // the displacement buffer; owned boxes partition the global non-empty box
  // set, so each row is written once, with the same candidate stream for
  // any shard count. The force->displacement epilogue then runs once,
  // globally and elementwise, so sharding cannot reorder any of its FP work.
  std::atomic<size_t> evals{0};
  detail::FusedSimdArgs args;
  args.positions = rm.positions().data();
  args.diameters = rm.diameters().data();
  args.tractor = rm.tractor_forces().data();
  args.law = force_law_;
  args.repulsion = param.repulsion_coefficient;
  args.attraction = param.attraction_coefficient;
  args.r2 = interaction_radius * interaction_radius;
  args.torus = param.boundary_mode == BoundaryMode::kTorus;
  args.edge = param.SpaceEdge();
  args.mode = mode;
  args.out_forces = displacements_.data();
  args.force_evaluations = &evals;
  const detail::FusedSimdKernelFn kernel =
      detail::SelectFusedSimdKernel(simd::WidthModeFromEnv());
  for (const ShardForceInput& s : shards) {
    args.view = s.view;
    args.num_slots = s.num_slots;
    args.order = s.order;
    kernel(args);
  }
  const double* adherences = rm.adherences().data();
  const double dt = param.simulation_time_step;
  const double max_disp = param.simulation_max_displacement;
  Double3* disp = displacements_.data();
  ParallelFor(mode, n, [&](size_t i) {
    disp[i] = ComputeDisplacement(disp[i], adherences[i], dt, max_disp);
  });

  force_evaluations_ = evals.load(std::memory_order_relaxed);
}

void MechanicalForcesOp::ApplyDisplacements(ResourceManager& rm,
                                            const Param& param,
                                            ExecMode mode) {
  auto& positions = rm.positions();
  size_t n = rm.size();
  ParallelFor(mode, n, [&](size_t i) {
    positions[i] = ApplyBoundSpace(positions[i] + displacements_[i], param);
  });
}

}  // namespace biosim
