// Property battery for grid reuse across steps (docs/perf.md "One host
// grid"): the uniform grid keeps its box->slot map between Updates and
// clears only the entries the previous build occupied, and reconfigures its
// window only when the lattice moves. After every Update, a grid reused
// this way must be byte-identical — slots, CSR runs and the box->slot map
// of every lattice box — to a fresh grid built from the same population.
// Anything less would break the bitwise determinism contract, because the
// fused force kernel streams the CSR runs directly.
//
// Each scenario steps a population under a different motion regime (the
// regimes the old patch path special-cased: drift, teleports, growth,
// removal, mass motion) and compares the reused grid against a fresh
// reference after every step. Every Update is a full build, which the
// stats counters confirm.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "spatial/uniform_grid.h"

#include "../test_util.h"

namespace biosim {
namespace {

/// Assert every queryable structure of `reused` equals `ref` bit for bit.
/// gtest prints vector diffs, so the raw arrays are compared directly.
void ExpectGridsIdentical(const UniformGridEnvironment& reused,
                          const UniformGridEnvironment& ref,
                          const char* where) {
  ASSERT_EQ(reused.total_boxes(), ref.total_boxes()) << where;
  EXPECT_EQ(reused.box_length(), ref.box_length()) << where;
  EXPECT_EQ(reused.grid_min().x, ref.grid_min().x) << where;
  EXPECT_EQ(reused.grid_min().y, ref.grid_min().y) << where;
  EXPECT_EQ(reused.grid_min().z, ref.grid_min().z) << where;
  EXPECT_EQ(reused.is_torus(), ref.is_torus()) << where;
  // The CSR is what the fused kernel consumes.
  EXPECT_EQ(reused.csr().slot_boxes(), ref.csr().slot_boxes()) << where;
  EXPECT_EQ(reused.csr().starts(), ref.csr().starts()) << where;
  EXPECT_EQ(reused.csr().agents(), ref.csr().agents()) << where;
  // The map must hold no stale entry from an earlier step.
  const GridGeometry& g = ref.geometry();
  for (size_t b = 0; b < ref.total_boxes(); ++b) {
    const Int3 c = g.BoxCoordinatesOfIndex(b);
    ASSERT_EQ(reused.csr().SlotOf(c), ref.csr().SlotOf(c))
        << where << " box " << b;
  }
}

/// Step `rm` `steps` times through `move`, updating `reused` in place and
/// building a fresh environment as reference after each move. `move(step)`
/// mutates positions (or the population) arbitrarily.
template <typename MoveFn>
void RunMotionProperty(ResourceManager& rm, const Param& param,
                       UniformGridEnvironment& reused, uint64_t steps,
                       MoveFn move) {
  reused.Update(rm, param, ExecMode::kSerial);
  for (uint64_t s = 0; s < steps; ++s) {
    move(s);
    reused.Update(rm, param, ExecMode::kParallel);
    UniformGridEnvironment ref;
    ref.Update(rm, param, ExecMode::kSerial);
    std::string where = "step " + std::to_string(s);
    ExpectGridsIdentical(reused, ref, where.c_str());
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

/// Every Update is a full build; nothing is patched.
void ExpectOnlyFullBuilds(const UniformGridEnvironment& env,
                          uint64_t updates) {
  EXPECT_EQ(env.update_stats().full_rebuilds, updates);
  EXPECT_EQ(env.update_stats().incremental_updates, 0u);
  EXPECT_EQ(env.update_stats().rebinned_agents, 0u);
}

Param TorusParam(double edge) {
  Param p;
  p.boundary_mode = BoundaryMode::kTorus;
  p.min_bound = 0.0;
  p.max_bound = edge;
  return p;
}

TEST(IncrementalGridTest, TorusRandomWalkMatchesFullRebuildEveryStep) {
  // The steady workload: periodic space, fixed geometry, a slow drift that
  // moves a few percent of agents to another box per step.
  Param param = TorusParam(96.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 96.0, 8.0, /*seed=*/7);
  UniformGridEnvironment reused;
  Random rng(11);
  RunMotionProperty(rm, param, reused, 12, [&](uint64_t) {
    for (auto& p : rm.positions()) {
      for (double* c : {&p.x, &p.y, &p.z}) {
        *c += rng.Uniform(-1.5, 1.5);
        // Torus wrap, exactly as displacement does it.
        if (*c < 0.0) *c += 96.0;
        if (*c >= 96.0) *c -= 96.0;
      }
    }
  });
  ExpectOnlyFullBuilds(reused, 13);
}

TEST(IncrementalGridTest, BoundedCloudWithCornerSentinelsMatchesFullRebuild) {
  // Non-torus grids derive grid_min from rm.Bounds(), so the window is
  // kept only while the bounding box is bit-stable. Eight stationary
  // sentinel agents pin the corners; everyone else jitters inside.
  Param param;  // open boundary
  ResourceManager rm;
  for (double x : {0.0, 80.0}) {
    for (double y : {0.0, 80.0}) {
      for (double z : {0.0, 80.0}) {
        NewAgentSpec s;
        s.position = {x, y, z};
        s.diameter = 8.0;
        rm.AddAgent(std::move(s));
      }
    }
  }
  testutil::FillRandomCells(&rm, 300, 4.0, 76.0, 8.0, /*seed=*/13);
  UniformGridEnvironment reused;
  Random rng(5);
  RunMotionProperty(rm, param, reused, 10, [&](uint64_t) {
    auto& pos = rm.positions();
    for (size_t i = 8; i < pos.size(); ++i) {  // sentinels stay put
      for (double* c : {&pos[i].x, &pos[i].y, &pos[i].z}) {
        *c = std::min(79.0, std::max(1.0, *c + rng.Uniform(-2.0, 2.0)));
      }
    }
  });
  ExpectOnlyFullBuilds(reused, 11);
}

TEST(IncrementalGridTest, ClusteredHoppingMatchesFullRebuild) {
  // Two dense clusters and a trickle of agents teleporting between them:
  // boxes gaining and losing several agents at once, far apart in the flat
  // box order, and boxes emptied whose map entries must be cleared.
  Param param = TorusParam(128.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 150, 10.0, 20.0, 8.0, /*seed=*/3);
  testutil::FillRandomCells(&rm, 150, 100.0, 110.0, 8.0, /*seed=*/4);
  UniformGridEnvironment reused;
  Random rng(17);
  RunMotionProperty(rm, param, reused, 10, [&](uint64_t s) {
    auto& pos = rm.positions();
    // Five hoppers per step swap clusters; everyone else is stationary
    // (in-box moves and no-op boxes must both be handled).
    for (int k = 0; k < 5; ++k) {
      size_t i = rng.UniformInt(pos.size());
      double shift = pos[i].x < 64.0 ? 90.0 : -90.0;
      pos[i].x += shift;
    }
    (void)s;
  });
  ExpectOnlyFullBuilds(reused, 11);
}

TEST(IncrementalGridTest, DegenerateSingleBoxDomainIsHandled) {
  // Everything lives in one box (domain smaller than the interaction
  // radius): a zero-bit box key, so the build skips the sort.
  Param param = TorusParam(16.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 24, 0.0, 16.0, 8.0, /*seed=*/9);
  UniformGridEnvironment reused;
  Random rng(23);
  RunMotionProperty(rm, param, reused, 6, [&](uint64_t) {
    for (auto& p : rm.positions()) {
      p.x += rng.Uniform(-1.0, 1.0);
      if (p.x < 0.0) p.x += 16.0;
      if (p.x >= 16.0) p.x -= 16.0;
    }
  });
  ExpectOnlyFullBuilds(reused, 7);
}

TEST(IncrementalGridTest, PopulationGrowthForcesFullRebuild) {
  // A division (deferred insertion committed between steps) changes the
  // agent count; the reused grid must still produce the reference
  // structures.
  Param param = TorusParam(64.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 64.0, 8.0, /*seed=*/21);
  UniformGridEnvironment reused;
  Random rng(29);
  RunMotionProperty(rm, param, reused, 6, [&](uint64_t s) {
    if (s == 2 || s == 4) {
      NewAgentSpec spec;
      spec.position = rng.UniformInCube(0.0, 64.0);
      spec.diameter = 8.0;
      rm.PushDeferredAgent(/*mother=*/0, std::move(spec));
      rm.CommitStructuralChanges();
    } else {
      rm.positions()[s].x = 32.0;  // keep some motion in the quiet steps
    }
  });
  ExpectOnlyFullBuilds(reused, 7);
}

TEST(IncrementalGridTest, RemovalForcesFullRebuild) {
  // Swap-with-last removal renumbers rows; the rebuilt runs must follow.
  Param param = TorusParam(64.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 64.0, 8.0, /*seed=*/31);
  UniformGridEnvironment reused;
  RunMotionProperty(rm, param, reused, 4, [&](uint64_t s) {
    if (s == 1) {
      rm.PushDeferredRemoval(7);
      rm.PushDeferredRemoval(42);
      rm.CommitStructuralChanges();
    }
  });
  ExpectOnlyFullBuilds(reused, 5);
}

TEST(IncrementalGridTest, MovingOpenDomainReconfiguresCleanly) {
  // Without a torus or fixed bounds the lattice follows rm.Bounds(): as the
  // cloud spreads and then contracts, the window is reconfigured every step
  // — growing, then shrinking — and each step must clear the previous
  // build's map entries under the previous layout.
  Param param;  // open boundary
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 200, 20.0, 60.0, 8.0, /*seed=*/47);
  UniformGridEnvironment reused;
  RunMotionProperty(rm, param, reused, 8, [&](uint64_t s) {
    const double scale = s < 4 ? 1.3 : 0.7;
    for (auto& p : rm.positions()) {
      for (double* c : {&p.x, &p.y, &p.z}) {
        *c = 40.0 + (*c - 40.0) * scale;
      }
    }
  });
  ExpectOnlyFullBuilds(reused, 9);
}

TEST(IncrementalGridTest, MassMotionFallsBackToFullRebuild) {
  // Every agent crosses a box face: every occupied box of the last step is
  // cleared and a new set is filled.
  Param param = TorusParam(64.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 200, 0.0, 64.0, 8.0, /*seed=*/37);
  UniformGridEnvironment reused;
  RunMotionProperty(rm, param, reused, 2, [&](uint64_t) {
    for (auto& p : rm.positions()) {  // everyone shifts one full box
      p.x += 8.0;
      if (p.x >= 64.0) p.x -= 64.0;
    }
  });
  ExpectOnlyFullBuilds(reused, 3);
}

TEST(IncrementalGridTest, StationaryPopulationRebuildsIdentically) {
  Param param = TorusParam(64.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 64.0, 8.0, /*seed=*/41);
  UniformGridEnvironment reused;
  RunMotionProperty(rm, param, reused, 3, [&](uint64_t) {});
  ExpectOnlyFullBuilds(reused, 4);
}

TEST(IncrementalGridTest, DisablingTheKnobAlwaysRebuilds) {
  // Param::incremental_grid is a no-op: off and on both build from scratch.
  Param param = TorusParam(64.0);
  param.incremental_grid = false;
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 64.0, 8.0, /*seed=*/43);
  UniformGridEnvironment off;
  RunMotionProperty(rm, param, off, 3, [&](uint64_t) {});
  ExpectOnlyFullBuilds(off, 4);
  param.incremental_grid = true;
  UniformGridEnvironment on;
  on.Update(rm, param, ExecMode::kParallel);
  ExpectGridsIdentical(on, off, "knob on");
}

TEST(IncrementalGridTest, CsrAgentCountGuardThrowsPastInt32) {
  // The CSR offsets are int32 (shared with the GPU layout); they would
  // wrap silently past 2^31-1 agents. The guard is static so it is testable
  // without allocating 16 GiB of agents.
  EXPECT_NO_THROW(CompactGrid::CheckCsrAgentCount(0));
  EXPECT_NO_THROW(CompactGrid::CheckCsrAgentCount(1u << 20));
  EXPECT_NO_THROW(
      CompactGrid::CheckCsrAgentCount(static_cast<size_t>(INT32_MAX)));
  EXPECT_THROW(
      CompactGrid::CheckCsrAgentCount(static_cast<size_t>(INT32_MAX) + 1),
      std::length_error);
  EXPECT_THROW(CompactGrid::CheckCsrAgentCount(size_t{1} << 40),
               std::length_error);
}

}  // namespace
}  // namespace biosim
