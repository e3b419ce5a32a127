// Tests for periodic (torus) boundaries: wrapped grid neighbor search,
// minimum-image distances/forces, and the density edge-effect fix.
#include <gtest/gtest.h>

#include <set>

#include "../test_util.h"
#include "core/simulation.h"
#include "physics/displacement.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/kd_tree.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

Param TorusParam(double edge) {
  Param p;
  p.min_bound = 0.0;
  p.max_bound = edge;
  p.boundary_mode = BoundaryMode::kTorus;
  return p;
}

/// Brute-force torus neighbor reference with minimum-image distances.
std::vector<AgentIndex> BruteForceTorusNeighbors(const ResourceManager& rm,
                                                 AgentIndex query,
                                                 double radius, double edge) {
  std::vector<AgentIndex> out;
  double r2 = radius * radius;
  for (size_t j = 0; j < rm.size(); ++j) {
    if (j != query &&
        MinImageVector(rm.positions()[query], rm.positions()[j], edge)
                .SquaredNorm() <= r2) {
      out.push_back(j);
    }
  }
  return out;
}

TEST(WrapCoordinateTest, WrapsBothDirections) {
  EXPECT_DOUBLE_EQ(WrapCoordinate(105.0, 0.0, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(WrapCoordinate(-3.0, 0.0, 100.0), 97.0);
  EXPECT_DOUBLE_EQ(WrapCoordinate(50.0, 0.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(WrapCoordinate(250.0, 0.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(WrapCoordinate(12.0, 10.0, 100.0), 12.0);
  EXPECT_DOUBLE_EQ(WrapCoordinate(8.0, 10.0, 100.0), 98.0 + 10.0);
}

TEST(MinImageTest, PicksTheNearestImage) {
  double edge = 100.0;
  // Across the face: 2 and 98 are 4 apart through the boundary.
  Double3 d = MinImageVector({2, 50, 50}, {98, 50, 50}, edge);
  EXPECT_DOUBLE_EQ(d.x, 4.0);
  EXPECT_DOUBLE_EQ(d.y, 0.0);
  // Interior pair: plain difference.
  d = MinImageVector({30, 50, 50}, {60, 50, 50}, edge);
  EXPECT_DOUBLE_EQ(d.x, -30.0);
  // Antisymmetry.
  Double3 a = MinImageVector({10, 20, 30}, {90, 80, 70}, edge);
  Double3 b = MinImageVector({90, 80, 70}, {10, 20, 30}, edge);
  EXPECT_EQ(a, -b);
}

TEST(TorusBoundaryTest, ApplyBoundSpaceWraps) {
  Param p = TorusParam(100.0);
  EXPECT_EQ(ApplyBoundSpace({105.0, -3.0, 50.0}, p), (Double3{5.0, 97.0, 50.0}));
}

TEST(TorusGridTest, GridCoversTheDomainExactly) {
  Param p = TorusParam(100.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 100.0, 12.0);
  UniformGridEnvironment env;
  env.Update(rm, p, ExecMode::kSerial);
  EXPECT_TRUE(env.is_torus());
  // 100/12 -> 8 boxes of 12.5 (>= the 12 interaction radius).
  EXPECT_EQ(env.num_boxes_axis().x, 8);
  EXPECT_DOUBLE_EQ(env.box_length(), 12.5);
  EXPECT_GE(env.box_length(), env.interaction_radius());
}

TEST(TorusGridTest, NeighborsAcrossFacesAreFound) {
  Param p = TorusParam(100.0);
  ResourceManager rm;
  NewAgentSpec a, b;
  a.position = {1.0, 50.0, 50.0};
  b.position = {97.0, 50.0, 50.0};  // 4 apart through the face
  a.diameter = b.diameter = 10.0;
  rm.AddAgent(std::move(a));
  rm.AddAgent(std::move(b));
  UniformGridEnvironment env;
  env.Update(rm, p, ExecMode::kSerial);
  auto n = testutil::CollectNeighbors(env, rm, 0, 10.0);
  ASSERT_EQ(n, (std::vector<AgentIndex>{1}));
  // And the reported distance is the minimum-image one.
  env.ForEachNeighborWithinRadius(0, rm, 10.0, [&](AgentIndex, double d2) {
    EXPECT_DOUBLE_EQ(d2, 16.0);
  });
}

TEST(TorusGridTest, MatchesBruteForceOnRandomCloud) {
  Param p = TorusParam(80.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 80.0, 10.0, /*seed=*/17);
  UniformGridEnvironment env;
  env.Update(rm, p, ExecMode::kSerial);
  double r = env.interaction_radius();
  for (AgentIndex q = 0; q < rm.size(); q += 7) {
    EXPECT_EQ(testutil::CollectNeighbors(env, rm, q, r),
              BruteForceTorusNeighbors(rm, q, r, 80.0))
        << "query " << q;
  }
}

TEST(TorusGridTest, TinyDomainFewBoxesNoDoubleVisits) {
  // Edge barely over one box: periodic offsets must not revisit boxes.
  Param p = TorusParam(25.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 40, 0.0, 25.0, 10.0, /*seed=*/3);
  UniformGridEnvironment env;
  env.Update(rm, p, ExecMode::kSerial);
  ASSERT_LT(env.num_boxes_axis().x, 3);
  for (AgentIndex q = 0; q < rm.size(); q += 3) {
    // Exactly the brute-force set, each neighbor exactly once.
    std::vector<AgentIndex> seen;
    env.ForEachNeighborWithinRadius(q, rm, 10.0, [&](AgentIndex j, double) {
      seen.push_back(j);
    });
    std::set<AgentIndex> unique(seen.begin(), seen.end());
    EXPECT_EQ(unique.size(), seen.size()) << "duplicate visits, query " << q;
    std::vector<AgentIndex> sorted(seen.begin(), seen.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, BruteForceTorusNeighbors(rm, q, 10.0, 25.0));
  }
}

TEST(TorusMechanicsTest, ForcesActAcrossFaces) {
  Param p = TorusParam(100.0);
  p.default_adherence = 0.001;
  ResourceManager rm;
  NewAgentSpec a, b;
  a.position = {2.0, 50.0, 50.0};
  b.position = {96.0, 50.0, 50.0};  // overlap of 4 through the face
  a.diameter = b.diameter = 10.0;
  a.adherence = b.adherence = 0.001;
  rm.AddAgent(std::move(a));
  rm.AddAgent(std::move(b));
  UniformGridEnvironment env;
  env.Update(rm, p, ExecMode::kSerial);
  MechanicalForcesOp op;
  op.ComputeDisplacements(rm, env, p, ExecMode::kSerial);
  // Agent 0 sits at x=2 with its partner behind the x=0 face: it must be
  // pushed in +x, the partner in -x (Newton's third law across the wrap).
  EXPECT_GT(op.displacements()[0].x, 0.0);
  EXPECT_NEAR(op.displacements()[0].x, -op.displacements()[1].x, 1e-12);
}

TEST(TorusMechanicsTest, RelaxationWrapsPositions) {
  Param p = TorusParam(60.0);
  p.default_adherence = 0.001;
  Simulation sim(p);
  // Overlapping pair at the face: relaxation pushes one across x=0.
  AgentIndex i = sim.AddCell({1.0, 30.0, 30.0}, 10.0);
  sim.AddCell({7.0, 30.0, 30.0}, 10.0);
  sim.rm().adherences()[0] = 0.001;
  sim.rm().adherences()[1] = 0.001;
  sim.Simulate(120);
  (void)i;
  for (const auto& pos : sim.rm().positions()) {
    EXPECT_GE(pos.x, 0.0);
    EXPECT_LT(pos.x, 60.0);
  }
  // They separated toward the Cortex3D adhesive equilibrium
  // (delta* = 2.5*gamma^2/kappa^2 = 0.625 -> distance 9.375), measured
  // minimum-image.
  double d = MinImageVector(sim.rm().positions()[0], sim.rm().positions()[1],
                            60.0)
                 .Norm();
  EXPECT_GT(d, 9.0);
  EXPECT_LT(d, 9.75);
}

TEST(TorusDensityTest, RemovesTheEdgeEffect) {
  // In a clamped box, boundary agents see fewer neighbors, dragging the
  // measured density below the target; the torus removes that bias.
  size_t agents = 8000;
  double target_n = 27.0;
  double sphere = 4.0 / 3.0 * math::kPi * 1000.0;
  double edge = std::cbrt(static_cast<double>(agents) * sphere / target_n);

  auto measure = [&](BoundaryMode mode) {
    Param p;
    p.min_bound = 0.0;
    p.max_bound = edge;
    p.boundary_mode = mode;
    ResourceManager rm;
    testutil::FillRandomCells(&rm, agents, 0.0, edge, 10.0, /*seed=*/23);
    UniformGridEnvironment env;
    env.Update(rm, p, ExecMode::kSerial);
    return env.MeanNeighborCount(rm, 3);
  };

  double clamped = measure(BoundaryMode::kClamp);
  double torus = measure(BoundaryMode::kTorus);
  EXPECT_LT(clamped, target_n * 0.97);       // visible edge deficit
  EXPECT_NEAR(torus, target_n, target_n * 0.07);  // bias gone
  EXPECT_GT(torus, clamped);
}

TEST(TorusUnsupportedTest, KdTreeAndGpuReject) {
  Param p = TorusParam(100.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 10, 0.0, 100.0, 10.0);
  KdTreeEnvironment kd;
  EXPECT_THROW(kd.Update(rm, p, ExecMode::kSerial), std::invalid_argument);
}

}  // namespace
}  // namespace biosim
