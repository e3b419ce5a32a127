#include "replica.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cell.h"
#include "core/sim_context.h"
#include "physics/mechanics_backend.h"
#include "spatial/uniform_grid.h"

namespace perfbench {

using biosim::ExecMode;
using biosim::PendingDeposit;
using biosim::SimContext;

namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

// Times `fn` into layer `layer` of `t`; `fn` returns the units of work.
template <typename F>
void Timed(StepTrace& t, Layer layer, F&& fn) {
  const auto start = Clock::now();
  const uint64_t units = fn();
  LayerSample& s = t.layers[layer];
  s.ns += NsSince(start);
  s.units += units;
}

// A context for the behaviors pass, as Simulation::RunBehaviors builds it.
// The façade also installs its grid list for name-routed deposits; it is
// private, and the workloads deposit into the default grid only.
SimContext BehaviorContext(biosim::Simulation& sim,
                           std::vector<PendingDeposit>* sink) {
  SimContext ctx(sim.param(), sim.rm(), sim.step());
  ctx.diffusion_grid = sim.diffusion_grid();
  ctx.deposit_sink = sink;
  return ctx;
}

// Runs every behavior of row i; returns 1 when the row had any.
uint64_t RunRow(biosim::ResourceManager& rm, size_t i, SimContext& ctx) {
  if (rm.behaviors_of(i).empty()) {
    return 0;
  }
  biosim::Cell cell(rm, i);
  for (const auto& b : rm.behaviors_of(i)) {
    b->Run(cell, ctx);
  }
  return 1;
}

// The deposit merge goes through a context without a sink: the library's
// direct-apply write site.
SimContext MergeContext(biosim::Simulation& sim) {
  return SimContext(sim.param(), sim.rm(), sim.step());
}

void Apply(SimContext& merge, const PendingDeposit& d) {
  merge.DepositSubstance(d.position, d.amount, d.grid);
}

const char* const kLayerNames[kLayerCount] = {
    "core.behaviors",        "core.deposit_merge", "core.commit",
    "spatial.grid_update",   "core.shard_partition", "core.shard_halo",
    "spatial.shard_grids",   "physics.forces",     "physics.apply",
    "diffusion.step",        "gpu.step"};

}  // namespace

const char* LayerName(int layer) { return kLayerNames[layer]; }

Replica::Replica(biosim::Simulation& sim, biosim::gpu::GpuMechanicalOp* gpu)
    : sim_(sim), gpu_(gpu) {
  const biosim::Param& p = sim.param();
  if (p.zorder_cadence != 0 || p.overlap_ops) {
    throw std::invalid_argument(
        "Replica: z-order sorting and overlap_ops are not replicated");
  }
  if (sim.diffusion_grid_count() > 1) {
    throw std::invalid_argument("Replica: at most one diffusion grid");
  }
  if (p.num_shards > 0) {
    runtime_ = std::make_unique<biosim::ShardRuntime>(p.num_shards,
                                                      p.shard_balance);
  }
}

StepTrace Replica::Step() {
  StepTrace t;
  const auto start = Clock::now();
  auto& rm = sim_.rm();
  biosim::DiffusionGrid* field = sim_.diffusion_grid();
  const uint64_t dropped = field != nullptr ? field->dropped_deposits() : 0;
  if (runtime_) {
    const bool have_agents = !rm.empty();
    if (have_agents) {
      Timed(t, kShardPartition, [&] {
        runtime_->Repartition(rm, sim_.param());
        return runtime_->last_migrations();
      });
      RunBehaviorsSharded(t);
    }
    Timed(t, kCommit, [&] { return rm.CommitStructuralChanges(); });
    RunShardedOps(t);
  } else {
    RunBehaviors(t);
    Timed(t, kCommit, [&] { return rm.CommitStructuralChanges(); });
    RunGridUpdate(t);
    RunMechanics(t);
    RunDiffusion(t);
  }
  sim_.SetStep(sim_.step() + 1);
  t.step_ns = NsSince(start);
  if (field != nullptr) {
    t.dropped_deposits = field->dropped_deposits() - dropped;
  }
  return t;
}

void Replica::RunBehaviors(StepTrace& t) {
  auto& rm = sim_.rm();
  const ExecMode mode = sim_.exec_mode();
  // Chunk-ordered deposit buffers, as in Simulation::RunBehaviors.
  std::mutex mu;
  std::vector<std::pair<size_t, std::vector<PendingDeposit>>> chunks;
  Timed(t, kBehaviors, [&] {
    uint64_t ran = 0;
    biosim::ParallelForChunks(mode, rm.size(), [&](size_t begin, size_t end) {
      std::vector<PendingDeposit> deposits;
      SimContext ctx = BehaviorContext(sim_, &deposits);
      uint64_t local = 0;
      for (size_t i = begin; i < end; ++i) {
        local += RunRow(rm, i, ctx);
      }
      std::lock_guard<std::mutex> lock(mu);
      ran += local;
      if (!deposits.empty()) {
        chunks.emplace_back(begin, std::move(deposits));
      }
    });
    return ran;
  });
  Timed(t, kDepositMerge, [&] {
    std::sort(chunks.begin(), chunks.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    SimContext merge = MergeContext(sim_);
    uint64_t merged = 0;
    for (const auto& chunk : chunks) {
      for (const PendingDeposit& d : chunk.second) {
        Apply(merge, d);
      }
      merged += chunk.second.size();
    }
    return merged;
  });
}

void Replica::RunBehaviorsSharded(StepTrace& t) {
  auto& rm = sim_.rm();
  struct Tagged {
    int32_t row;
    PendingDeposit deposit;
  };
  std::mutex mu;
  std::vector<Tagged> tagged;
  Timed(t, kBehaviors, [&] {
    uint64_t ran = 0;
    biosim::ParallelFor(sim_.exec_mode(), runtime_->shards(), [&](size_t k) {
      std::vector<PendingDeposit> sink;
      SimContext ctx = BehaviorContext(sim_, &sink);
      std::vector<Tagged> local;
      uint64_t local_ran = 0;
      for (int32_t row : runtime_->owned_rows(static_cast<uint32_t>(k))) {
        const size_t mark = sink.size();
        local_ran += RunRow(rm, static_cast<size_t>(row), ctx);
        for (size_t d = mark; d < sink.size(); ++d) {
          local.push_back({row, sink[d]});
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      ran += local_ran;
      tagged.insert(tagged.end(), local.begin(), local.end());
    });
    return ran;
  });
  Timed(t, kDepositMerge, [&] {
    std::stable_sort(tagged.begin(), tagged.end(),
                     [](const Tagged& a, const Tagged& b) {
                       return a.row < b.row;
                     });
    SimContext merge = MergeContext(sim_);
    for (const Tagged& d : tagged) {
      Apply(merge, d.deposit);
    }
    return static_cast<uint64_t>(tagged.size());
  });
}

void Replica::RunShardedOps(StepTrace& t) {
  auto& rm = sim_.rm();
  const ExecMode mode = sim_.exec_mode();
  if (!rm.empty()) {
    Timed(t, kShardPartition, [&] {
      runtime_->Repartition(rm, sim_.param());
      return runtime_->last_migrations();
    });
    const auto& comm = runtime_->communicator();
    const uint64_t messages = comm.messages_sent();
    const uint64_t bytes = comm.bytes_sent();
    Timed(t, kShardHalo, [&] {
      runtime_->ExchangeHalos(rm, mode);
      uint64_t ghosts = 0;
      for (uint64_t g : runtime_->ghosts_received()) {
        ghosts += g;
      }
      return ghosts;
    });
    t.halo_messages = comm.messages_sent() - messages;
    t.halo_bytes = comm.bytes_sent() - bytes;
    Timed(t, kShardGrids, [&] {
      runtime_->UpdateGrids(rm, mode);
      return static_cast<uint64_t>(rm.size());
    });
    auto* cpu =
        dynamic_cast<biosim::CpuMechanicsBackend*>(&sim_.mechanics_backend());
    if (cpu == nullptr) {
      throw std::invalid_argument("Replica: sharding needs the CPU backend");
    }
    biosim::MechanicalForcesOp& op = cpu->mutable_op();
    Timed(t, kForces, [&] {
      const auto& geometry = runtime_->geometry();
      op.ComputeDisplacementsSharded(rm, runtime_->ForceInputs(),
                                     geometry.interaction_radius,
                                     geometry.box_length, sim_.param(), mode);
      return static_cast<uint64_t>(op.last_force_evaluations());
    });
    Timed(t, kApply, [&] {
      op.ApplyDisplacements(rm, sim_.param(), mode);
      return static_cast<uint64_t>(rm.size());
    });
  }
  RunDiffusion(t);
}

void Replica::RunGridUpdate(StepTrace& t) {
  auto& env = sim_.environment();
  auto* grid = dynamic_cast<biosim::UniformGridEnvironment*>(&env);
  biosim::UniformGridEnvironment::UpdateStats before;
  if (grid != nullptr) {
    before = grid->update_stats();
  }
  Timed(t, kGridUpdate, [&] {
    env.Update(sim_.rm(), sim_.param(), sim_.exec_mode());
    if (double_grid_update_) {
      env.Update(sim_.rm(), sim_.param(), sim_.exec_mode());
    }
    return static_cast<uint64_t>(sim_.rm().size());
  });
  if (grid != nullptr) {
    const auto& after = grid->update_stats();
    t.grid_full_rebuilds = after.full_rebuilds - before.full_rebuilds;
    t.grid_incremental_updates =
        after.incremental_updates - before.incremental_updates;
    t.grid_rebinned_agents = after.rebinned_agents - before.rebinned_agents;
    t.grid_total_boxes = grid->total_boxes();
  }
}

void Replica::RunMechanics(StepTrace& t) {
  auto& rm = sim_.rm();
  const ExecMode mode = sim_.exec_mode();
  if (gpu_ != nullptr) {
    const auto& dev = gpu_->device();
    const size_t launches = dev.history().size();
    const auto transfers = dev.transfers();
    Timed(t, kGpuStep, [&] {
      gpu_->Step(rm, sim_.environment(), sim_.param(), mode, &gpu_profile_);
      return static_cast<uint64_t>(rm.size());
    });
    const auto& history = dev.history();
    for (size_t i = launches; i < history.size(); ++i) {
      const auto& k = history[i];
      const bool zorder = k.name.rfind("zorder_sort", 0) == 0;
      (zorder ? t.gpu_zorder_ms : t.gpu_kernels_ms) += k.total_ms;
      t.gpu_dram_bytes += k.DramBytes();
      t.gpu_dram_read_bytes += k.dram_read_bytes;
      t.gpu_l2_read_hit_bytes += k.l2_read_hit_bytes;
      t.gpu_lane_ops += k.lane_ops_sum;
      t.gpu_warp_slots += k.warp_ops_slots;
    }
    t.gpu_h2d_ms = dev.transfers().h2d_ms - transfers.h2d_ms;
    t.gpu_d2h_ms = dev.transfers().d2h_ms - transfers.d2h_ms;
    t.gpu_h2d_bytes = dev.transfers().h2d_bytes - transfers.h2d_bytes;
    t.gpu_d2h_bytes = dev.transfers().d2h_bytes - transfers.d2h_bytes;
    return;
  }
  auto* cpu =
      dynamic_cast<biosim::CpuMechanicsBackend*>(&sim_.mechanics_backend());
  if (cpu == nullptr) {
    throw std::invalid_argument("Replica: unknown mechanics backend");
  }
  biosim::MechanicalForcesOp& op = cpu->mutable_op();
  Timed(t, kForces, [&] {
    op.ComputeDisplacements(rm, sim_.environment(), sim_.param(), mode);
    return static_cast<uint64_t>(op.last_force_evaluations());
  });
  Timed(t, kApply, [&] {
    op.ApplyDisplacements(rm, sim_.param(), mode);
    return static_cast<uint64_t>(rm.size());
  });
}

void Replica::RunDiffusion(StepTrace& t) {
  biosim::DiffusionGrid* grid = sim_.diffusion_grid();
  if (grid == nullptr) {
    return;
  }
  const double dt = sim_.param().simulation_time_step;
  const auto substeps = static_cast<uint64_t>(
      std::max(1.0, std::ceil(dt / grid->MaxStableTimestep())));
  const uint64_t voxel_updates = grid->num_voxels() * substeps;
  Timed(t, kDiffusion, [&] {
    grid->Step(dt, sim_.exec_mode());
    return voxel_updates;
  });
  t.diffusion_bytes_computed = voxel_updates * 2 * sizeof(double);
}

}  // namespace perfbench
