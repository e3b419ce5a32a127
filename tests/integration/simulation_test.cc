#include "core/simulation.h"

#include <gtest/gtest.h>

#include "core/behaviors/chemotaxis.h"
#include "core/behaviors/secretion.h"
#include "spatial/kd_tree.h"

namespace biosim {
namespace {

TEST(SimulationTest, DefaultWiring) {
  Param p;
  Simulation sim(p);
  EXPECT_STREQ(sim.environment().name(), "uniform-grid");
  EXPECT_STREQ(sim.mechanics_backend().name(), "cpu");
  EXPECT_EQ(sim.step(), 0u);
  EXPECT_EQ(sim.diffusion_grid(), nullptr);
}

TEST(SimulationTest, AddCellUsesParamDefaults) {
  Param p;
  p.default_adherence = 0.9;
  p.default_density = 1.7;
  Simulation sim(p);
  AgentIndex i = sim.AddCell({10, 20, 30}, 8.0);
  EXPECT_DOUBLE_EQ(sim.rm().adherences()[i], 0.9);
  EXPECT_DOUBLE_EQ(sim.rm().densities()[i], 1.7);
}

TEST(SimulationTest, Create3DCellGridCountsAndLayout) {
  Param p;
  Simulation sim(p);
  sim.Create3DCellGrid(4, 20.0, 10.0, 16.0, 1000.0);
  EXPECT_EQ(sim.rm().size(), 64u);
  // All cells have a GrowDivide behavior.
  for (size_t i = 0; i < sim.rm().size(); ++i) {
    EXPECT_EQ(sim.rm().behaviors_of(i).size(), 1u);
  }
  AABBd b = sim.rm().Bounds();
  EXPECT_DOUBLE_EQ(b.min.x, 10.0);  // (0+0.5)*20
  EXPECT_DOUBLE_EQ(b.max.x, 70.0);  // (3+0.5)*20
}

TEST(SimulationTest, CreateRandomCellsStaysInBounds) {
  Param p;
  p.min_bound = 0;
  p.max_bound = 200;
  Simulation sim(p);
  sim.CreateRandomCells(500, 10.0);
  EXPECT_EQ(sim.rm().size(), 500u);
  for (const auto& pos : sim.rm().positions()) {
    EXPECT_TRUE(sim.rm().Bounds().Contains(pos));
    EXPECT_GE(pos.x, 0.0);
    EXPECT_LT(pos.x, 200.0);
  }
}

TEST(SimulationTest, StepAdvancesAndProfiles) {
  Param p;
  Simulation sim(p);
  sim.CreateRandomCells(100, 10.0);
  sim.Simulate(3);
  EXPECT_EQ(sim.step(), 3u);
  EXPECT_GT(sim.profile().TotalMs("mechanical forces"), 0.0);
  EXPECT_GT(sim.profile().TotalMs("neighborhood update"), 0.0);
  EXPECT_EQ(sim.profile().entries()[0].calls(), 3u);
}

TEST(SimulationTest, OverlappingCellsRelaxApart) {
  Param p;
  p.random_seed = 5;
  Simulation sim(p);
  // Two heavily overlapping cells.
  sim.AddCell({50, 50, 50}, 10.0);
  sim.AddCell({54, 50, 50}, 10.0);
  double d0 = Distance(sim.rm().positions()[0], sim.rm().positions()[1]);
  sim.Simulate(50);
  double d1 = Distance(sim.rm().positions()[0], sim.rm().positions()[1]);
  EXPECT_GT(d1, d0);
  EXPECT_LE(d1, 10.5);  // they stop separating once contact is resolved
}

TEST(SimulationTest, MaxDisplacementZeroFreezesPositions) {
  Param p;
  p.simulation_max_displacement = 0.0;  // benchmark B trick
  Simulation sim(p);
  sim.CreateRandomCells(200, 12.0);
  auto before = sim.rm().positions();
  sim.Simulate(5);
  EXPECT_EQ(sim.rm().positions(), before);
}

TEST(SimulationTest, KdTreeEnvironmentIsDropInReplacement) {
  Param p;
  Simulation sim(p);
  sim.SetEnvironment(std::make_unique<KdTreeEnvironment>());
  sim.CreateRandomCells(200, 10.0);
  sim.Simulate(2);
  EXPECT_EQ(sim.step(), 2u);
  EXPECT_STREQ(sim.environment().name(), "kd-tree");
}

TEST(SimulationTest, SerialAndParallelRunsMatchExactly) {
  auto run = [](ExecMode mode) {
    Param p;
    p.random_seed = 11;
    Simulation sim(p);
    sim.SetExecMode(mode);
    sim.Create3DCellGrid(3, 20.0, 10.0, 11.0, 4000.0);
    sim.Simulate(5);
    return sim.rm().positions();
  };
  auto serial = run(ExecMode::kSerial);
  auto parallel = run(ExecMode::kParallel);
  ASSERT_EQ(serial.size(), parallel.size());
  // Same division decisions and same grid-neighbor sets; only the
  // environment's linked-list order may differ, which reorders FP sums.
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i].x, parallel[i].x, 1e-9);
    EXPECT_NEAR(serial[i].y, parallel[i].y, 1e-9);
    EXPECT_NEAR(serial[i].z, parallel[i].z, 1e-9);
  }
}

TEST(SimulationTest, DiffusionGridIntegration) {
  Param p;
  Simulation sim(p);
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "oxygen", p.min_bound, p.max_bound, 16, 100.0, 0.0));
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "glucose", p.min_bound, p.max_bound, 16, 50.0, 0.0));
  EXPECT_NE(sim.diffusion_grid(), nullptr);
  EXPECT_EQ(sim.diffusion_grid("glucose")->substance_name(), "glucose");
  EXPECT_EQ(sim.diffusion_grid("unknown"), nullptr);

  // A secreting cell raises the local concentration over time.
  AgentIndex i = sim.AddCell({500, 500, 500}, 10.0);
  sim.rm().AttachBehavior(i, std::make_unique<Secretion>(10.0));
  sim.Simulate(10);
  EXPECT_GT(sim.diffusion_grid("oxygen")->TotalAmount(), 0.0);
  EXPECT_GT(sim.profile().TotalMs("diffusion"), 0.0);
}

TEST(SimulationTest, RepeatedRandomFillsDoNotStackCells) {
  // Regression: CreateRandomCells re-seeded its RNG from param.random_seed
  // on every call, so a second fill replayed the first call's positions and
  // stacked each new cell exactly onto an existing one (explosive overlap
  // forces). Each call must draw from a fresh seed-derived stream.
  Param p;
  p.min_bound = 0;
  p.max_bound = 100;
  Simulation sim(p);
  sim.CreateRandomCells(50, 8.0);
  sim.CreateRandomCells(50, 8.0);
  const auto& pos = sim.rm().positions();
  ASSERT_EQ(pos.size(), 100u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_GT(SquaredDistance(pos[i], pos[50 + i]), 0.0)
        << "cell " << 50 + i << " stacked onto cell " << i;
  }
  // Call 0 keeps the historical stream: a one-call sim is unchanged.
  Simulation fresh(p);
  fresh.CreateRandomCells(50, 8.0);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(fresh.rm().positions()[i], pos[i]);
  }
}

TEST(SimulationTest, NamedSecretionRoutesToItsOwnGrid) {
  // Regression: the deposit-merge loop applied every buffered deposit to
  // the *first* grid, so multi-substance models silently cross-fed. Each
  // deposit now carries its target grid through the sink.
  Param p;
  Simulation sim(p);
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "oxygen", p.min_bound, p.max_bound, 16, 0.0, 0.0));
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "glucose", p.min_bound, p.max_bound, 16, 0.0, 0.0));
  AgentIndex i = sim.AddCell({500, 500, 500}, 10.0);
  sim.rm().AttachBehavior(i, std::make_unique<Secretion>("glucose", 10.0));
  AgentIndex j = sim.AddCell({200, 200, 200}, 10.0);
  sim.rm().AttachBehavior(j, std::make_unique<Secretion>(4.0));  // default
  sim.Simulate(5);
  // The named secretion landed only in glucose; the default-grid secretion
  // landed only in oxygen.
  EXPECT_GT(sim.diffusion_grid("glucose")->GetConcentration({500, 500, 500}),
            0.0);
  EXPECT_DOUBLE_EQ(
      sim.diffusion_grid("oxygen")->GetConcentration({500, 500, 500}), 0.0);
  EXPECT_GT(sim.diffusion_grid("oxygen")->GetConcentration({200, 200, 200}),
            0.0);
  EXPECT_DOUBLE_EQ(
      sim.diffusion_grid("glucose")->GetConcentration({200, 200, 200}), 0.0);
  // An unknown substance name is a silent no-op, not a crash.
  sim.rm().AttachBehavior(j, std::make_unique<Secretion>("unknown", 1.0));
  EXPECT_NO_THROW(sim.Simulate(1));
}

TEST(SimulationTest, ChemotaxisPullsCellUpGradient) {
  Param p;
  p.default_adherence = 0.0;
  Simulation sim(p);
  auto grid = std::make_unique<DiffusionGrid>("attractant", 0.0, 1000.0, 20,
                                              0.0, 0.0);
  grid->Initialize([](const Double3& pos) { return pos.x; });  // ramp in +x
  sim.AddDiffusionGrid(std::move(grid));
  AgentIndex i = sim.AddCell({500, 500, 500}, 10.0);
  sim.rm().AttachBehavior(i, std::make_unique<Chemotaxis>(50.0));
  double x0 = sim.rm().positions()[i].x;
  sim.Simulate(20);
  EXPECT_GT(sim.rm().positions()[i].x, x0 + 1.0);
}

}  // namespace
}  // namespace biosim
