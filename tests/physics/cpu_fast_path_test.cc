// Fused CPU fast-path tests (docs/perf.md): the fused CSR force kernel must
// produce a displacement buffer *bitwise identical* to the generic callback
// path — same neighbor visit order, same FP expressions — along with equal
// force-evaluation counts, at any exec mode, on clamped and torus
// boundaries. Also covers the dispatch rule: ComputeDisplacements takes the
// fast path exactly when the environment is a UniformGridEnvironment, and
// ComputeDisplacementsGeneric is the callback path on any environment.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "../test_util.h"
#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/kd_tree.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

Param BaseParam(double hi, BoundaryMode boundary = BoundaryMode::kClamp) {
  Param p;
  p.min_bound = 0.0;
  p.max_bound = hi;
  p.boundary_mode = boundary;
  return p;
}

void FillClusteredBall(ResourceManager* rm, size_t n, Double3 center,
                       double ball_radius, double diameter, uint64_t seed) {
  Random rng(seed);
  rm->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    NewAgentSpec s;
    s.position = center + rng.UnitVector() * (ball_radius * rng.Uniform());
    s.diameter = diameter;
    rm->AddAgent(std::move(s));
  }
}

/// Run both paths over the same up-to-date grid and require bitwise-equal
/// displacement buffers and equal force-evaluation counts.
void ExpectFusedMatchesGeneric(const ResourceManager& rm, const Param& param,
                               ExecMode mode) {
  UniformGridEnvironment env;
  env.Update(rm, param, mode);

  MechanicalForcesOp generic_op;
  generic_op.ComputeDisplacementsGeneric(rm, env, param, mode);
  EXPECT_FALSE(generic_op.last_used_fast_path());

  MechanicalForcesOp fused_op;
  fused_op.ComputeDisplacements(rm, env, param, mode);
  EXPECT_TRUE(fused_op.last_used_fast_path());

  EXPECT_EQ(generic_op.last_force_evaluations(),
            fused_op.last_force_evaluations());
  ASSERT_EQ(generic_op.displacements().size(), fused_op.displacements().size());
  for (size_t i = 0; i < generic_op.displacements().size(); ++i) {
    // EXPECT_EQ, not EXPECT_NEAR: the contract is bitwise, not approximate.
    EXPECT_EQ(generic_op.displacements()[i], fused_op.displacements()[i])
        << "agent " << i;
  }
}

TEST(CpuFastPathTest, RandomCloudMatchesGenericBitwise) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 80.0, 10.0, /*seed=*/7);
  ExpectFusedMatchesGeneric(rm, BaseParam(80.0), ExecMode::kSerial);
  ExpectFusedMatchesGeneric(rm, BaseParam(80.0), ExecMode::kParallel);
}

TEST(CpuFastPathTest, ClusteredBallMatchesGenericBitwise) {
  ResourceManager rm;
  FillClusteredBall(&rm, 400, {70.0, 70.0, 70.0}, 30.0, 10.0, /*seed=*/19);
  ExpectFusedMatchesGeneric(rm, BaseParam(200.0), ExecMode::kSerial);
  ExpectFusedMatchesGeneric(rm, BaseParam(200.0), ExecMode::kParallel);
}

TEST(CpuFastPathTest, TorusMatchesGenericBitwise) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 300, 0.0, 100.0, 12.0, /*seed=*/23);
  Param p = BaseParam(100.0, BoundaryMode::kTorus);
  ExpectFusedMatchesGeneric(rm, p, ExecMode::kSerial);
  ExpectFusedMatchesGeneric(rm, p, ExecMode::kParallel);
}

TEST(CpuFastPathTest, DegenerateTorusGridMatchesGenericBitwise) {
  // 100/40 -> 2 boxes per axis: the reduced periodic offset ranges.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 150, 0.0, 100.0, 40.0, /*seed=*/29);
  ExpectFusedMatchesGeneric(rm, BaseParam(100.0, BoundaryMode::kTorus),
                            ExecMode::kSerial);
}

TEST(CpuFastPathTest, ShuffledRowsMatchGenericBitwise) {
  // Row order is an input to both paths equally: a shuffled (division-aged)
  // layout must not break the equivalence.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 80.0, 10.0, /*seed=*/31);
  testutil::ShuffleAgents(&rm, /*seed=*/5);
  ExpectFusedMatchesGeneric(rm, BaseParam(80.0), ExecMode::kSerial);
}

TEST(CpuFastPathTest, EmptyPopulationIsHandled) {
  ResourceManager rm;
  UniformGridEnvironment env;
  Param p = BaseParam(100.0);
  env.Update(rm, p, ExecMode::kSerial);
  MechanicalForcesOp op;
  op.ComputeDisplacements(rm, env, p, ExecMode::kSerial);
  EXPECT_TRUE(op.last_used_fast_path());
  EXPECT_EQ(op.last_force_evaluations(), 0u);
  EXPECT_TRUE(op.displacements().empty());
}

TEST(CpuFastPathTest, KdTreeFallsBackToGenericPath) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 50.0, 10.0);
  KdTreeEnvironment env;
  Param p = BaseParam(50.0);
  env.Update(rm, p, ExecMode::kSerial);
  MechanicalForcesOp op;
  op.ComputeDisplacements(rm, env, p, ExecMode::kSerial);
  EXPECT_FALSE(op.last_used_fast_path());
  EXPECT_GT(op.last_force_evaluations(), 0u);
}

TEST(CpuFastPathTest, GenericEntryTakesTheCallbackPathOnTheGrid) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 50.0, 10.0);
  UniformGridEnvironment env;
  Param p = BaseParam(50.0);
  env.Update(rm, p, ExecMode::kSerial);
  MechanicalForcesOp op;
  op.ComputeDisplacementsGeneric(rm, env, p, ExecMode::kSerial);
  EXPECT_FALSE(op.last_used_fast_path());
  EXPECT_GT(op.last_force_evaluations(), 0u);
}

TEST(CpuFastPathTest, OversizedRadiusIsRejectedBeforeAnyPathRuns) {
  // A fixed box length below the interaction radius violates the 27-box
  // scheme both paths rely on; the grid rejects it at Update, so neither
  // force path can ever see an inconsistent grid (the fused kernel keeps a
  // defense-in-depth recheck of the same contract).
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 50.0, 10.0);
  UniformGridEnvironment env(/*fixed_box_length=*/5.0);
  EXPECT_THROW(env.Update(rm, BaseParam(50.0), ExecMode::kSerial),
               std::invalid_argument);
}

}  // namespace
}  // namespace biosim
