#include "core/param.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/simulation.h"
#include "spatial/kd_tree.h"
#include "spatial/null_environment.h"

namespace biosim {
namespace {

TEST(ParamTest, DefaultsAreValid) {
  Param p;
  EXPECT_NO_THROW(p.Validate());
}

TEST(ParamTest, RejectsInvertedBounds) {
  Param p;
  p.min_bound = 10.0;
  p.max_bound = 10.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p.max_bound = 5.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(ParamTest, RejectsNonPositiveTimestep) {
  Param p;
  p.simulation_time_step = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p.simulation_time_step = -0.01;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(ParamTest, RejectsNegativePhysicsCoefficients) {
  Param p;
  p.repulsion_coefficient = -1.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.attraction_coefficient = -0.5;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.simulation_max_displacement = -3.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.default_adherence = -0.1;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.default_density = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.interaction_radius_margin = -1.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(ParamTest, ZeroMaxDisplacementIsValidBenchmarkBMode) {
  Param p;
  p.simulation_max_displacement = 0.0;
  EXPECT_NO_THROW(p.Validate());
}

TEST(ParamTest, ShardingRequiresTheFusedFastPath) {
  // The sharded force pass is the fused kernel over per-shard windows of
  // the grid's CSR: it never reads the installed environment, so a kd-tree
  // or null environment must be rejected, not silently replaced.
  Param p;
  p.num_shards = 2;
  p.max_bound = 240.0;
  EXPECT_NO_THROW(p.Validate());
  auto run_with = [&](std::unique_ptr<Environment> env) {
    Simulation sim(p);
    sim.CreateRandomCells(50, 8.0);
    if (env != nullptr) {
      sim.SetEnvironment(std::move(env));
    }
    sim.Simulate(1);
  };
  EXPECT_NO_THROW(run_with(nullptr));  // the default uniform grid
  EXPECT_THROW(run_with(std::make_unique<KdTreeEnvironment>()),
               std::invalid_argument);
  EXPECT_THROW(run_with(std::make_unique<NullEnvironment>()),
               std::invalid_argument);
}

TEST(ParamTest, SimulationConstructorValidates) {
  Param bad;
  bad.simulation_time_step = -1.0;
  EXPECT_THROW(Simulation sim(bad), std::invalid_argument);
}

}  // namespace
}  // namespace biosim
