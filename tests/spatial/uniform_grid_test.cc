#include "spatial/uniform_grid.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "../test_util.h"

namespace biosim {
namespace {

TEST(UniformGridTest, BoxLengthIsInteractionRadius) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 100.0, 12.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.box_length(), 12.0);
  EXPECT_DOUBLE_EQ(env.interaction_radius(), 12.0);
}

TEST(UniformGridTest, FixedBoxLengthOverrides) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 100.0, 12.0);
  Param param;
  UniformGridEnvironment env(/*fixed_box_length=*/25.0);
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.box_length(), 25.0);
}

TEST(UniformGridTest, EveryAgentIsInItsBoxChain) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 200, 0.0, 50.0, 8.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);

  // Walk every box's run (the host form of Fig. 5's box chain) and check
  // each agent appears exactly once, in the box its position maps to, and
  // that only occupied boxes are stored.
  const CompactGrid& csr = env.csr();
  const GridGeometry& g = env.geometry();
  std::set<int32_t> seen;
  size_t total = 0;
  for (uint32_t s = 0; s < csr.occupied_boxes(); ++s) {
    const Int3 c = csr.SlotCoordinates(s);
    EXPECT_EQ(csr.slot_boxes()[s], g.FlatBoxIndex(c));
    const int32_t begin = csr.starts()[s];
    const int32_t end = csr.starts()[s + 1];
    EXPECT_LT(begin, end) << "slot " << s << " stores an empty box";
    for (int32_t t = begin; t < end; ++t) {
      const int32_t j = csr.agents()[t];
      EXPECT_TRUE(seen.insert(j).second) << "agent " << j << " stored twice";
      EXPECT_EQ(g.FlatBoxIndex(g.BoxCoordinatesOf(rm.positions()[j])),
                g.FlatBoxIndex(c));
      ++total;
    }
  }
  EXPECT_EQ(total, rm.size());
}

TEST(UniformGridTest, ParallelBuildFindsSameSets) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 300, 0.0, 60.0, 10.0);
  Param param;
  UniformGridEnvironment serial, parallel;
  serial.Update(rm, param, ExecMode::kSerial);
  parallel.Update(rm, param, ExecMode::kParallel);
  double r = serial.interaction_radius();
  for (AgentIndex q = 0; q < rm.size(); q += 17) {
    EXPECT_EQ(testutil::CollectNeighbors(serial, rm, q, r),
              testutil::CollectNeighbors(parallel, rm, q, r));
  }
}

TEST(UniformGridTest, MatchesBruteForceOnRandomCloud) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 100.0, 10.0, /*seed=*/99);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  double radius = env.interaction_radius();
  for (AgentIndex q = 0; q < rm.size(); q += 11) {
    EXPECT_EQ(testutil::CollectNeighbors(env, rm, q, radius),
              testutil::BruteForceNeighbors(rm, q, radius))
        << "query " << q;
  }
}

TEST(UniformGridTest, SmallerQueryRadiusFiltersCorrectly) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 300, 0.0, 40.0, 10.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  // Query at half the box length must still be exact.
  for (AgentIndex q = 0; q < rm.size(); q += 23) {
    EXPECT_EQ(testutil::CollectNeighbors(env, rm, q, 5.0),
              testutil::BruteForceNeighbors(rm, q, 5.0));
  }
}

TEST(UniformGridTest, AgentsOnDomainFaces) {
  // Agents exactly on the grid's min/max corners exercise the clamping.
  ResourceManager rm;
  for (double x : {0.0, 100.0}) {
    for (double y : {0.0, 100.0}) {
      for (double z : {0.0, 100.0}) {
        NewAgentSpec s;
        s.position = {x, y, z};
        s.diameter = 10.0;
        rm.AddAgent(std::move(s));
      }
    }
  }
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  for (AgentIndex q = 0; q < rm.size(); ++q) {
    EXPECT_EQ(testutil::CollectNeighbors(env, rm, q, 10.0),
              testutil::BruteForceNeighbors(rm, q, 10.0));
  }
}

TEST(UniformGridTest, DenseClusterInOneBox) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 64, 10.0, 11.0, 10.0);  // all in one box
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  auto n = testutil::CollectNeighbors(env, rm, 0, env.interaction_radius());
  EXPECT_EQ(n.size(), 63u);
}

TEST(UniformGridTest, MeanNeighborCountOnLattice) {
  // 5x5x5 lattice with spacing 10 and diameter 10: interior agents have
  // exactly 6 face neighbors at distance 10 == radius.
  ResourceManager rm;
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) {
      for (int z = 0; z < 5; ++z) {
        NewAgentSpec s;
        s.position = {x * 10.0, y * 10.0, z * 10.0};
        s.diameter = 10.0;
        rm.AddAgent(std::move(s));
      }
    }
  }
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  // Center agent: 6 face neighbors within radius 10 (diagonals are at 14.1).
  AgentIndex center = 2 * 25 + 2 * 5 + 2;
  EXPECT_EQ(
      testutil::CollectNeighbors(env, rm, center, env.interaction_radius())
          .size(),
      6u);
  double mean = env.MeanNeighborCount(rm);
  EXPECT_GT(mean, 4.0);  // boundary agents pull the mean below 6
  EXPECT_LT(mean, 6.0);
}

TEST(UniformGridTest, UpdateAfterGrowthResizesBoxes) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 20, 0.0, 50.0, 8.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.box_length(), 8.0);
  rm.diameters()[3] = 16.0;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.box_length(), 16.0);
}

TEST(UniformGridTest, MeanNeighborCountStrideZeroIsClampedNotInfinite) {
  // Regression: stride 0 used to hang the sampling loop (`q += 0`). It now
  // clamps to 1, i.e. an exact (all-agents) mean.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 40.0, 10.0, /*seed=*/12);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.MeanNeighborCount(rm, 0), env.MeanNeighborCount(rm, 1));
}

TEST(UniformGridTest, OversizedQueryRadiusThrows) {
  // Regression: a radius beyond the box length used to be a debug-only
  // assert — release builds silently dropped neighbors outside the 27
  // surrounding boxes. It is a real error now.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 40.0, 10.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_THROW(env.ForEachNeighborWithinRadius(
                   0, rm, env.box_length() * 1.5, [](AgentIndex, double) {}),
               std::invalid_argument);
  // At or below the box length stays fine (the +epsilon tolerance).
  EXPECT_NO_THROW(env.ForEachNeighborWithinRadius(
      0, rm, env.box_length(), [](AgentIndex, double) {}));
}

TEST(UniformGridTest, UpdateRejectsFixedBoxSmallerThanInteractionRadius) {
  // The same contract enforced at build time: a fixed box edge below the
  // interaction radius would make every force query drop neighbors.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 40.0, /*diameter=*/12.0);
  Param param;
  UniformGridEnvironment env(/*fixed_box_length=*/5.0);
  EXPECT_THROW(env.Update(rm, param, ExecMode::kSerial),
               std::invalid_argument);
}

TEST(UniformGridTest, BoxChainsAreCanonicalAscendingAfterParallelBuild) {
  // The determinism tentpole's spatial half: whatever chunking built the
  // grid, Update leaves every box's run (its chain) sorted by agent index.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 30.0, 10.0, /*seed=*/3);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kParallel);
  const CompactGrid& csr = env.csr();
  for (uint32_t s = 0; s < csr.occupied_boxes(); ++s) {
    for (int32_t t = csr.starts()[s] + 1; t < csr.starts()[s + 1]; ++t) {
      EXPECT_GT(csr.agents()[t], csr.agents()[t - 1])
          << "slot " << s << " run is not ascending";
    }
  }
}

TEST(UniformGridTest, TraversalOrderIsIdenticalSerialVsParallel) {
  // Stronger than equal neighbor *sets*: the *sequence* each query visits
  // must match, because force accumulation order is what determinism
  // rests on (docs/determinism.md).
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 35.0, 10.0, /*seed=*/21);
  Param param;
  UniformGridEnvironment serial, parallel;
  serial.Update(rm, param, ExecMode::kSerial);
  parallel.Update(rm, param, ExecMode::kParallel);
  double r = serial.interaction_radius();
  for (AgentIndex q = 0; q < rm.size(); ++q) {
    std::vector<AgentIndex> order_serial, order_parallel;
    serial.ForEachNeighborWithinRadius(
        q, rm, r, [&](AgentIndex j, double) { order_serial.push_back(j); });
    parallel.ForEachNeighborWithinRadius(
        q, rm, r, [&](AgentIndex j, double) { order_parallel.push_back(j); });
    ASSERT_EQ(order_serial, order_parallel) << "query " << q;
  }
}

TEST(UniformGridTest, MeanAgentsPerBoxDiagnostic) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 1000, 0.0, 100.0, 10.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  // 1000 agents over 10x10x10 boxes: about 1 agent per box.
  EXPECT_GT(env.MeanAgentsPerBox(), 0.9);
  EXPECT_LT(env.MeanAgentsPerBox(), 2.5);
}

}  // namespace
}  // namespace biosim
