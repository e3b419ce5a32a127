#include "workloads.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "bench/common.h"
#include "core/behaviors/chemotaxis.h"
#include "core/behaviors/grow_divide.h"
#include "core/behaviors/random_walk.h"
#include "core/behaviors/secretion.h"
#include "core/random.h"
#include "spatial/null_environment.h"

namespace perfbench {

using biosim::Double3;
using biosim::Param;
using biosim::Simulation;

namespace {

// Benchmark A's lattice, as bench::SetUpBenchmarkA lays it out: spacing 15
// from the minimum corner, diameter 8, division at 16 µm, growth
// 40000 µm³/h. SetUpBenchmarkA attaches that one growth rate to every cell,
// and an attached behavior cannot be replaced, so BuildTumorGrowth repeats
// its bound and placement to draw a rate per cell.
constexpr double kTumorSpacing = 15.0;
constexpr double kTumorDiameter = 8.0;
constexpr double kTumorDivideAt = 16.0;
constexpr double kTumorGrowthRate = 40000.0;
// Per-cell growth rates are spread by this fraction around the mean so
// divisions do not all land on the same step.
constexpr double kTumorGrowthSpread = 0.2;

// Benchmark B's cells have diameter 10; the grid box is the interaction
// radius.
constexpr double kCloudBoxLength = 10.0;
// Nonzero so the kernel's output moves the state (the paper's frozen cloud
// would leave every StateHash unchanged and check nothing).
constexpr double kCloudMaxDisplacement = 0.1;

WorkloadConfig SparseWalk(bool sharded) {
  WorkloadConfig c;
  c.name = sharded ? "sparse_walk_sharded" : "sparse_walk";
  c.kind = Kind::kSparseWalk;
  c.agents = 131072;
  c.edge = 1536.0;  // 192^3 boxes of 8 µm, under 2% occupied
  c.num_shards = sharded ? 4 : 0;
  c.diffusion_resolution = 32;
  c.warmup_steps = 2;
  c.timed_steps = 30;
  return c;
}

WorkloadConfig TumorGrowth() {
  WorkloadConfig c;
  c.name = "tumor_growth";
  c.kind = Kind::kTumorGrowth;
  c.cells_per_dim = 32;
  c.agents = 32 * 32 * 32;
  c.diffusion_resolution = 128;
  c.warmup_steps = 2;
  c.timed_steps = 16;
  return c;
}

WorkloadConfig GpuCloud() {
  WorkloadConfig c;
  c.name = "gpu_cloud";
  c.kind = Kind::kGpuCloud;
  c.agents = 50000;
  c.density = 27.0;
  c.warmup_steps = 1;
  c.timed_steps = 6;
  return c;
}

void BuildSparseWalk(const WorkloadConfig& cfg, Simulation& sim) {
  Param& p = sim.param();
  p.min_bound = 0.0;
  p.max_bound = cfg.edge;
  p.boundary_mode = biosim::BoundaryMode::kTorus;
  sim.CreateRandomCells(cfg.agents, 8.0);
  auto& rm = sim.rm();
  for (size_t i = 0; i < rm.size(); ++i) {
    rm.AttachBehavior(i, std::make_unique<biosim::RandomWalk>(60.0));
    if (i % 16 == 0) {
      rm.AttachBehavior(i, std::make_unique<biosim::Secretion>(0.5));
    }
  }
  sim.AddDiffusionGrid(std::make_unique<biosim::DiffusionGrid>(
      "oxygen", p.min_bound, p.max_bound, cfg.diffusion_resolution,
      /*diffusion_coefficient=*/100.0, /*decay_constant=*/0.01));
}

void BuildTumorGrowth(const WorkloadConfig& cfg, uint64_t seed,
                      Simulation& sim) {
  Param& p = sim.param();
  const size_t n = cfg.cells_per_dim;
  p.min_bound = 0.0;
  p.max_bound =
      std::max(1000.0, static_cast<double>(n) * kTumorSpacing + 200.0);
  sim.AddDiffusionGrid(std::make_unique<biosim::DiffusionGrid>(
      "oxygen", p.min_bound, p.max_bound, cfg.diffusion_resolution,
      /*diffusion_coefficient=*/2000.0, /*decay_constant=*/0.0));
  sim.diffusion_grid()->Initialize([](const Double3&) { return 1.0; });

  // The growth-rate stream is separate from the simulation's own RNG
  // streams, which are keyed by (seed, uid, step).
  biosim::Random rates(biosim::SplitMix64::Mix(seed ^ 0x7475'6d6f'72ull));
  auto& rm = sim.rm();
  rm.Reserve(n * n * n);
  for (size_t x = 0; x < n; ++x) {
    for (size_t y = 0; y < n; ++y) {
      for (size_t z = 0; z < n; ++z) {
        const Double3 pos{
            p.min_bound + (static_cast<double>(x) + 0.5) * kTumorSpacing,
            p.min_bound + (static_cast<double>(y) + 0.5) * kTumorSpacing,
            p.min_bound + (static_cast<double>(z) + 0.5) * kTumorSpacing};
        const biosim::AgentIndex i = sim.AddCell(pos, kTumorDiameter);
        const double rate =
            kTumorGrowthRate * rates.Uniform(1.0 - kTumorGrowthSpread,
                                             1.0 + kTumorGrowthSpread);
        // GrowDivide runs first, so a mother that Divide shifts past the
        // clamped face secretes from outside the grid in the same step:
        // diffusion.dropped_deposits reports it.
        rm.AttachBehavior(
            i, std::make_unique<biosim::GrowDivide>(kTumorDivideAt, rate));
        rm.AttachBehavior(i, std::make_unique<biosim::Secretion>(-1.0));
        rm.AttachBehavior(i, std::make_unique<biosim::Chemotaxis>(10.0));
      }
    }
  }
}

biosim::gpu::GpuMechanicalOp* BuildGpuCloud(const WorkloadConfig& cfg,
                                            Simulation& sim) {
  sim.SetEnvironment(std::make_unique<biosim::NullEnvironment>());
  auto opts = biosim::gpu::GpuMechanicsOptions::Version(
      2, biosim::gpusim::DeviceSpec::TeslaV100());
  opts.meter_stride = 8;
  opts.fixed_box_length = kCloudBoxLength;
  auto op = std::make_unique<biosim::gpu::GpuMechanicalOp>(opts);
  biosim::gpu::GpuMechanicalOp* handle = op.get();
  sim.SetMechanicsBackend(std::move(op));
  biosim::bench::SetUpBenchmarkB(&sim, cfg.agents, cfg.density);
  sim.param().simulation_max_displacement = kCloudMaxDisplacement;
  return handle;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "sparse_walk", "sparse_walk_sharded", "tumor_growth", "gpu_cloud"};
  return kNames;
}

WorkloadConfig FullSize(const std::string& name) {
  if (name == "sparse_walk") {
    return SparseWalk(false);
  }
  if (name == "sparse_walk_sharded") {
    return SparseWalk(true);
  }
  if (name == "tumor_growth") {
    return TumorGrowth();
  }
  if (name == "gpu_cloud") {
    return GpuCloud();
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

WorkloadConfig SmallSize(const std::string& name) {
  WorkloadConfig c = FullSize(name);
  switch (c.kind) {
    case Kind::kSparseWalk:
      c.agents = 4096;
      c.edge = 480.0;  // the full size's agent density, 60^3 boxes
      c.diffusion_resolution = 8;
      break;
    case Kind::kTumorGrowth:
      c.cells_per_dim = 6;
      c.agents = 6 * 6 * 6;
      c.diffusion_resolution = 16;
      break;
    case Kind::kGpuCloud:
      c.agents = 2000;
      break;
  }
  c.timed_steps = 8;
  return c;
}

Instance Build(const WorkloadConfig& cfg, uint64_t seed, uint32_t threads) {
  Param p;
  p.random_seed = seed;
  p.num_threads = threads;
  p.num_shards = cfg.num_shards;
  Instance inst;
  inst.sim = std::make_unique<Simulation>(p);
  switch (cfg.kind) {
    case Kind::kSparseWalk:
      BuildSparseWalk(cfg, *inst.sim);
      break;
    case Kind::kTumorGrowth:
      BuildTumorGrowth(cfg, seed, *inst.sim);
      break;
    case Kind::kGpuCloud:
      inst.gpu = BuildGpuCloud(cfg, *inst.sim);
      break;
  }
  return inst;
}

}  // namespace perfbench
