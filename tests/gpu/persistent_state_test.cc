// Tests for the persistent-device-state mode: agent state stays resident on
// the GPU across steps; transfers happen only at upload/sync points.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "../test_util.h"
#include "gpu/gpu_mechanical_op.h"
#include "gpusim/profiler.h"
#include "spatial/null_environment.h"

namespace biosim::gpu {
namespace {

GpuMechanicsOptions PersistentOpts(int version = 1) {
  GpuMechanicsOptions o = GpuMechanicsOptions::Version(version);
  o.zorder_sort = false;
  o.persistent_device_state = true;
  return o;
}

TEST(PersistentStateTest, IncompatibleWithPerStepSort) {
  GpuMechanicsOptions o = GpuMechanicsOptions::Version(2);  // sorts
  o.persistent_device_state = true;
  EXPECT_THROW(GpuMechanicalOp op(o), std::invalid_argument);
}

TEST(PersistentStateTest, MultiStepTrajectoryMatchesNonPersistent) {
  struct Case {
    BoundaryMode boundary;
    size_t agents;
    double lo;
    double hi;
    int steps;
  };
  const Case cases[] = {
      // Well inside the clamped cube.
      {BoundaryMode::kClamp, 400, 100.0, 180.0, 5},
      // Open space, straddling the max face: agents beyond it must stay
      // where the forces put them, not snap back onto the face.
      {BoundaryMode::kOpen, 200, 960.0, 1040.0, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("agents in [" + std::to_string(c.lo) + ", " +
                 std::to_string(c.hi) + "]^3");
    Param param;
    param.boundary_mode = c.boundary;
    ResourceManager a, b;
    testutil::FillRandomCells(&a, c.agents, c.lo, c.hi, 10.0, /*seed=*/51);
    testutil::FillRandomCells(&b, c.agents, c.lo, c.hi, 10.0, /*seed=*/51);

    GpuMechanicalOp normal(GpuMechanicsOptions::Version(1));
    GpuMechanicalOp persistent(PersistentOpts(1));
    NullEnvironment env;

    for (int step = 0; step < c.steps; ++step) {
      env.Update(a, param, ExecMode::kSerial);
      normal.Step(a, env, param, ExecMode::kSerial, nullptr);
      env.Update(b, param, ExecMode::kSerial);
      persistent.Step(b, env, param, ExecMode::kSerial, nullptr);
    }
    persistent.SyncToHost(b);

    for (size_t i = 0; i < a.size(); ++i) {
      // The persistent path keeps positions in FP32 on the device across
      // steps (the non-persistent path re-rounds from FP64 each upload),
      // so allow single-precision accumulation noise.
      ASSERT_NEAR(a.positions()[i].x, b.positions()[i].x, 1e-2) << i;
      ASSERT_NEAR(a.positions()[i].y, b.positions()[i].y, 1e-2) << i;
      ASSERT_NEAR(a.positions()[i].z, b.positions()[i].z, 1e-2) << i;
    }
  }
}

TEST(PersistentStateTest, TransfersOnlyOnFirstStep) {
  Param param;
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 100.0, 180.0, 10.0);
  GpuMechanicalOp op(PersistentOpts());
  NullEnvironment env;

  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  uint64_t h2d_after_first = op.device().transfers().h2d_bytes;
  uint64_t d2h_after_first = op.device().transfers().d2h_bytes;
  EXPECT_GT(h2d_after_first, 0u);
  EXPECT_EQ(d2h_after_first, 0u);  // nothing comes back per step

  for (int step = 0; step < 4; ++step) {
    env.Update(rm, param, ExecMode::kSerial);
    op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  }
  EXPECT_EQ(op.device().transfers().h2d_bytes, h2d_after_first);

  op.SyncToHost(rm);
  EXPECT_GT(op.device().transfers().d2h_bytes, 0u);
}

TEST(PersistentStateTest, AppliesDisplacementsOnDevice) {
  Param param;
  ResourceManager rm;
  // Two overlapping cells away from the walls.
  NewAgentSpec a, b;
  a.position = {500, 500, 500};
  b.position = {506, 500, 500};
  a.diameter = b.diameter = 10.0;
  a.adherence = b.adherence = 0.001;
  rm.AddAgent(std::move(a));
  rm.AddAgent(std::move(b));

  GpuMechanicalOp op(PersistentOpts());
  NullEnvironment env;
  Double3 host_before = rm.positions()[0];
  for (int step = 0; step < 3; ++step) {
    env.Update(rm, param, ExecMode::kSerial);
    op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  }
  // Host mirror is stale until synced.
  EXPECT_EQ(rm.positions()[0], host_before);
  op.SyncToHost(rm);
  EXPECT_LT(rm.positions()[0].x, host_before.x);  // pushed apart
  gpusim::ProfileReport report(op.device());
  EXPECT_NE(report.Find("apply_displacement"), nullptr);
}

TEST(PersistentStateTest, PopulationChangeTriggersReupload) {
  Param param;
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 300, 100.0, 180.0, 10.0);
  GpuMechanicalOp op(PersistentOpts());
  NullEnvironment env;

  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  uint64_t h2d1 = op.device().transfers().h2d_bytes;

  // Structural change: a new agent appears.
  NewAgentSpec s;
  s.position = {150, 150, 150};
  s.diameter = 10.0;
  rm.AddAgent(std::move(s));
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  EXPECT_GT(op.device().transfers().h2d_bytes, h2d1);  // re-uploaded
}

TEST(PersistentStateTest, BoundSpaceEnforcedOnDevice) {
  Param param;
  param.min_bound = 0.0;
  param.max_bound = 100.0;
  ResourceManager rm;
  // Cell overlapping another, pressed against the wall.
  NewAgentSpec a, b;
  a.position = {1.0, 50, 50};
  b.position = {6.0, 50, 50};
  a.diameter = b.diameter = 10.0;
  a.adherence = b.adherence = 0.001;
  rm.AddAgent(std::move(a));
  rm.AddAgent(std::move(b));
  GpuMechanicalOp op(PersistentOpts());
  NullEnvironment env;
  for (int step = 0; step < 10; ++step) {
    env.Update(rm, param, ExecMode::kSerial);
    op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  }
  op.SyncToHost(rm);
  EXPECT_GE(rm.positions()[0].x, 0.0);
}

TEST(PersistentStateTest, SyncIsNoopForNonPersistentOp) {
  Param param;
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 100.0, 150.0, 10.0);
  GpuMechanicsOptions o = GpuMechanicsOptions::Version(1);
  GpuMechanicalOp op(o);
  uint64_t d2h_before = op.device().transfers().d2h_bytes;
  op.SyncToHost(rm);
  EXPECT_EQ(op.device().transfers().d2h_bytes, d2h_before);
}

}  // namespace
}  // namespace biosim::gpu
