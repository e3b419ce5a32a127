#include "physics/mechanical_forces_op.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "core/aligned_buffer.h"
#include "core/analysis.h"
#include "core/simd.h"
#include "physics/displacement.h"
#include "physics/interaction_force.h"
#include "physics/simd_kernel_dispatch.h"
#include "spatial/uniform_grid.h"

namespace biosim {

namespace {

/// Shared precondition of all fused paths: the 27-box scheme only covers
/// one box length.
void CheckRadiusFitsBox(double radius, double box_length) {
  if (radius > box_length + 1e-12) {
    throw std::invalid_argument(
        "MechanicalForcesOp: interaction radius " + std::to_string(radius) +
        " exceeds the grid box length " + std::to_string(box_length));
  }
}

/// Flattened inputs of one scalar fused pass over one CSR view (the global
/// grid's, or a single shard's window). Mirrors detail::FusedSimdArgs.
struct FusedScalarArgs {
  CsrGridView view;
  /// Visit slots [0, num_slots), in `order` when it is not null.
  size_t num_slots = 0;
  const uint32_t* order = nullptr;
  const Double3* positions = nullptr;
  const double* diameters = nullptr;
  const double* adherences = nullptr;
  const Double3* tractor = nullptr;
  ForceParams<double> fp{0.0, 0.0};
  ForceLaw law = ForceLaw::kCortex3D;
  double dt = 0.0;
  double max_disp = 0.0;
  double r2 = 0.0;
  bool torus = false;
  double edge = 0.0;
  ExecMode mode = ExecMode::kSerial;
  Double3* displacements = nullptr;
  std::atomic<size_t>* evals = nullptr;
};

/// The scalar fused kernel body, run once per window: per box, gather the
/// 27-block candidates once, then stream them per resident in canonical
/// order. Writes each resident row's displacement exactly once — rows are
/// disjoint across shards, so per-shard invocations never race or reorder
/// any FP work.
void RunFusedScalarPass(const FusedScalarArgs& a) {
  const int32_t* starts = a.view.box_starts;
  const int32_t* agents = a.view.box_agents;
  const ForceLaw law = a.law;
  const ForceParams<double> fp = a.fp;
  const double dt = a.dt;
  const double max_disp = a.max_disp;
  const double r2 = a.r2;
  const bool torus = a.torus;
  const double edge = a.edge;

  ParallelForChunks(a.mode, a.num_slots, [&](size_t begin, size_t end) {
    size_t local_evals = 0;
    size_t blocks[27];
    // Per-box candidate block, gathered once and streamed by every resident
    // agent: every agent in a box shares the identical candidate set, so the
    // scattered positions[j] loads happen once per box instead of once per
    // agent, and the per-agent loop runs over one flat contiguous array.
    // Gathering copies bits, so the FP inputs are unchanged. The scratch is
    // capacity-managed uninitialized storage (core/aligned_buffer.h) — a
    // std::vector::resize here would value-initialize every element the
    // gather is about to overwrite on each capacity step.
    AlignedBuffer<int32_t> cand_idx_buf;
    AlignedBuffer<Double3> cand_pos_buf;
    AlignedBuffer<double> cand_diam_buf;
    for (size_t bi = begin; bi < end; ++bi) {
      const size_t b = a.order != nullptr ? a.order[bi] : bi;
      // Resolve the 3x3x3 block once per box and reuse it for every
      // resident agent — the per-query box math and torus wrapping the
      // callback path re-derives per agent.
      const int block_count = a.view.neighbor_slots(
          a.view.self, static_cast<uint32_t>(b), blocks);
      size_t cand_n = 0;
      for (int k = 0; k < block_count; ++k) {
        cand_n += static_cast<size_t>(starts[blocks[k] + 1] -
                                      starts[blocks[k]]);
      }
      int32_t* cand_idx = cand_idx_buf.EnsureCapacity(cand_n);
      Double3* cand_pos = cand_pos_buf.EnsureCapacity(cand_n);
      double* cand_diam = cand_diam_buf.EnsureCapacity(cand_n);
      size_t w = 0;
      for (int k = 0; k < block_count; ++k) {
        const size_t nb = blocks[k];
        const int32_t nb_end = starts[nb + 1];
        for (int32_t u = starts[nb]; u < nb_end; ++u, ++w) {
          const int32_t j = agents[u];
          cand_idx[w] = j;
          cand_pos[w] = a.positions[j];
          cand_diam[w] = a.diameters[j];
        }
      }
      // The per-agent stream over the gathered candidates is the engine's
      // hottest loop; the marker makes biosim-lint reject any dispatch
      // mechanism (dynamic_cast/typeid/std::function/virtual) introduced
      // here in the future.
      BIOSIM_HOT_LOOP_BEGIN();
      const int32_t row_end = starts[b + 1];
      for (int32_t t = starts[b]; t < row_end; ++t) {
        const int32_t i = agents[t];
        const Double3 pi = a.positions[i];
        const double ri = a.diameters[i] / 2.0;
        Double3 force = a.tractor[i];
        if (torus) {
          for (size_t u = 0; u < cand_n; ++u) {
            if (cand_idx[u] == i) {
              continue;
            }
            const Double3 miv = MinImageVector(pi, cand_pos[u], edge);
            const double d2 = miv.SquaredNorm();
            if (d2 <= r2) {
              force += EvaluateForce(law, pi, ri, pi - miv,
                                     cand_diam[u] / 2.0, fp);
              ++local_evals;
            }
          }
        } else {
          for (size_t u = 0; u < cand_n; ++u) {
            if (cand_idx[u] == i) {
              continue;
            }
            const double d2 = SquaredDistance(pi, cand_pos[u]);
            if (d2 <= r2) {
              force += EvaluateForce(law, pi, ri, cand_pos[u],
                                     cand_diam[u] / 2.0, fp);
              ++local_evals;
            }
          }
        }
        a.displacements[i] =
            ComputeDisplacement(force, a.adherences[i], dt, max_disp);
      }
      BIOSIM_HOT_LOOP_END();
    }
    a.evals->fetch_add(local_evals, std::memory_order_relaxed);
  });
}

}  // namespace

void MechanicalForcesOp::ComputeDisplacements(const ResourceManager& rm,
                                              const Environment& env,
                                              const Param& param,
                                              ExecMode mode) {
  // One dynamic_cast per step, not per query: the fused paths consume the
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
  if (param.cpu_simd || param.precision == Precision::kFp32) {
    // No silent precision/summation-order change on a path the parity
    // rows don't cover: vector modes are uniform-grid only.
    throw std::invalid_argument(
        "MechanicalForcesOp: cpu_simd / fp32 precision require the "
        "uniform-grid environment (the vector kernel consumes its CSR "
        "layout)");
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
  const bool torus = param.EffectiveBoundary() == BoundaryMode::kTorus;
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

  std::atomic<size_t> evals{0};
  const bool vector_mode =
      param.cpu_simd || param.precision == Precision::kFp32;

  if (!vector_mode) {
    // Scalar fused pass per window: the shared kernel body writes the final
    // displacement of every row resident in the window's owned boxes. Owned
    // boxes partition the global non-empty box set, so each row is written
    // once, with the same candidate stream for any shard count.
    FusedScalarArgs args;
    args.positions = rm.positions().data();
    args.diameters = rm.diameters().data();
    args.adherences = rm.adherences().data();
    args.tractor = rm.tractor_forces().data();
    args.fp = ForceParams<double>{param.repulsion_coefficient,
                                  param.attraction_coefficient};
    args.law = force_law_;
    args.dt = param.simulation_time_step;
    args.max_disp = param.simulation_max_displacement;
    args.r2 = interaction_radius * interaction_radius;
    args.torus = param.EffectiveBoundary() == BoundaryMode::kTorus;
    args.edge = param.SpaceEdge();
    args.mode = mode;
    args.displacements = displacements_.data();
    args.evals = &evals;
    for (const ShardForceInput& s : shards) {
      args.view = s.view;
      args.num_slots = s.num_slots;
      args.order = s.order;
      RunFusedScalarPass(args);
    }
  } else {
    // Vector pass per shard, one kernel selection for all of them. The
    // kernel writes net *forces* into the displacement buffer for resident
    // rows only; the force->displacement epilogue below runs ONCE, globally,
    // after every shard — elementwise over rows, exactly the unsharded
    // epilogue, so sharding cannot reorder any of its FP work.
    detail::FusedSimdArgs args;
    args.positions = rm.positions().data();
    args.diameters = rm.diameters().data();
    args.tractor = rm.tractor_forces().data();
    args.law = force_law_;
    args.repulsion = param.repulsion_coefficient;
    args.attraction = param.attraction_coefficient;
    args.r2 = interaction_radius * interaction_radius;
    args.torus = param.EffectiveBoundary() == BoundaryMode::kTorus;
    args.edge = param.SpaceEdge();
    args.mode = mode;
    args.out_forces = displacements_.data();
    args.force_evaluations = &evals;
    const detail::FusedSimdKernelFn kernel = detail::SelectFusedSimdKernel(
        param.precision == Precision::kFp32, simd::WidthModeFromEnv());
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
  }

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
