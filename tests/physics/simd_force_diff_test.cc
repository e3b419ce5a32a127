// Differential battery for the fused force kernel
// (physics/simd_force_kernel.h) against the generic callback pass
// (MechanicalForcesOp::ComputeDisplacementsGeneric), across seeded
// populations chosen to exercise every branch of the sweep — clustered
// (dense boxes), uniform (sparse), torus wrap-around, coincident centers,
// tractor forces with adherence, every candidate count around the vector
// tail, both force laws. The contracts under test (docs/determinism.md):
//
//   * the kernel's displacements equal the callback pass's *bit for bit*
//     (signed zeros included), and so does the force-evaluation count, at
//     BIOSIM_SIMD=scalar and native, serial and parallel;
//   * the kernel refuses unknown BIOSIM_SIMD values instead of silently
//     falling back.
//
// The new cases each fail if one of the kernel's three bitwise choices is
// undone: d² in Real3::Dot's order (every case), the sum starting at
// the tractor force (TractorForcesAndAdherence), and the contact math on
// the callback's operands (TorusPairWhoseShiftedSeparationDiffers,
// ZeroForceHitsAddPositiveZero). CandidateCountsAroundTheVectorTail covers
// the scalar tail that replaced the padded lanes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "physics/displacement.h"
#include "physics/force_law.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/kd_tree.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

struct PathResult {
  std::vector<Double3> displacements;
  size_t force_evals = 0;
  bool used_fast_path = false;
};

enum class Path { kGeneric, kFused };

PathResult RunPath(const ResourceManager& rm, const Param& param, Path path,
                   ExecMode mode = ExecMode::kSerial,
                   ForceLaw law = ForceLaw::kCortex3D) {
  UniformGridEnvironment env;
  env.Update(rm, param, mode);
  MechanicalForcesOp op(law);
  if (path == Path::kGeneric) {
    op.ComputeDisplacementsGeneric(rm, env, param, mode);
  } else {
    op.ComputeDisplacements(rm, env, param, mode);
  }
  return {op.displacements(), op.last_force_evaluations(),
          op.last_used_fast_path()};
}

/// Row of the first component whose bits differ (so +0.0 and -0.0 differ),
/// or -1 when the buffers are bitwise equal; -2 on a size mismatch.
long FirstBitDifference(const std::vector<Double3>& a,
                        const std::vector<Double3>& b) {
  if (a.size() != b.size()) {
    return -2;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t k = 0; k < 3; ++k) {
      if (std::bit_cast<uint64_t>(a[i][k]) !=
          std::bit_cast<uint64_t>(b[i][k])) {
        return static_cast<long>(i);
      }
    }
  }
  return -1;
}

double MaxAbsComponentDiff(const std::vector<Double3>& a,
                           const std::vector<Double3>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i].x - b[i].x));
    max_diff = std::max(max_diff, std::fabs(a[i].y - b[i].y));
    max_diff = std::max(max_diff, std::fabs(a[i].z - b[i].z));
  }
  return max_diff;
}

void AddAgent(ResourceManager* rm, const Double3& pos, double diameter,
              const Double3& tractor = {}, double adherence = 0.0) {
  NewAgentSpec spec;
  spec.position = pos;
  spec.diameter = diameter;
  spec.adherence = adherence;
  spec.tractor_force = tractor;
  rm->AddAgent(std::move(spec));
}

/// Dense ball (bench-style): box occupancy from packed core to empty
/// corners, mixed diameters. With `tractors`, each agent also gets a random
/// tractor force and adherence of the pair forces' magnitude.
void FillClusteredBall(ResourceManager* rm, size_t n, uint64_t seed,
                       bool tractors = false) {
  const double ball_radius = 8.0 * std::cbrt(static_cast<double>(n) / 16.0);
  const Double3 center{ball_radius + 10, ball_radius + 10, ball_radius + 10};
  Random rng(seed);
  rm->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double r = ball_radius * std::cbrt(rng.Uniform());
    const Double3 pos = center + rng.UnitVector() * r;
    const double diameter = rng.Uniform(4.0, 8.0);
    if (tractors) {
      AddAgent(rm, pos, diameter, rng.UnitVector() * rng.Uniform(0.0, 20.0),
               rng.Uniform(0.0, 5.0));
    } else {
      AddAgent(rm, pos, diameter);
    }
  }
}

void FillUniformCube(ResourceManager* rm, size_t n, double edge,
                     uint64_t seed) {
  Random rng(seed);
  rm->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AddAgent(rm, rng.UniformInCube(0.0, edge), 8.0);
  }
}

class SimdForceDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The width override would silently change which kernel these tests
    // exercise; pin it to the default and restore after.
    const char* prev = std::getenv("BIOSIM_SIMD");
    had_env_ = prev != nullptr;
    if (had_env_) {
      env_value_ = prev;
    }
    unsetenv("BIOSIM_SIMD");
  }
  void TearDown() override {
    if (had_env_) {
      setenv("BIOSIM_SIMD", env_value_.c_str(), 1);
    } else {
      unsetenv("BIOSIM_SIMD");
    }
  }

  /// The core differential: the kernel at both widths and both execution
  /// modes is bitwise the callback pass.
  void CheckAllPaths(const ResourceManager& rm, const Param& param,
                     ForceLaw law = ForceLaw::kCortex3D) {
    const PathResult generic =
        RunPath(rm, param, Path::kGeneric, ExecMode::kSerial, law);
    EXPECT_FALSE(generic.used_fast_path);

    for (const char* width : {"scalar", "native"}) {
      setenv("BIOSIM_SIMD", width, 1);
      for (ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
        const PathResult fused = RunPath(rm, param, Path::kFused, mode, law);
        const char* mode_name =
            mode == ExecMode::kSerial ? "serial" : "parallel";
        EXPECT_TRUE(fused.used_fast_path);
        EXPECT_EQ(fused.force_evals, generic.force_evals)
            << "BIOSIM_SIMD=" << width << " " << mode_name;
        EXPECT_EQ(FirstBitDifference(generic.displacements,
                                     fused.displacements),
                  -1)
            << "BIOSIM_SIMD=" << width << " " << mode_name;
      }
    }
    unsetenv("BIOSIM_SIMD");
  }

 private:
  bool had_env_ = false;
  std::string env_value_;
};

TEST_F(SimdForceDiffTest, ClusteredBallAllPathsAgree) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    ResourceManager rm;
    FillClusteredBall(&rm, 2000, seed);
    Param param;
    param.boundary_mode = BoundaryMode::kOpen;
    CheckAllPaths(rm, param);
  }
}

TEST_F(SimdForceDiffTest, UniformCubeAllPathsAgree) {
  ResourceManager rm;
  FillUniformCube(&rm, 1500, 120.0, 21);
  Param param;
  param.max_bound = 120.0;
  CheckAllPaths(rm, param);
}

TEST_F(SimdForceDiffTest, TorusWrapAllPathsAgree) {
  // Agents straddling every face, so minimum-image separations cross
  // the boundary in all three components.
  ResourceManager rm;
  Random rng(31);
  const double edge = 64.0;
  for (size_t i = 0; i < 800; ++i) {
    Double3 p = rng.UniformInCube(0.0, edge);
    // Pull a third of them onto the faces.
    if (i % 3 == 0) {
      const double face = rng.Uniform() < 0.5 ? 0.5 : edge - 0.5;
      if (i % 9 < 3) {
        p.x = face;
      } else if (i % 9 < 6) {
        p.y = face;
      } else {
        p.z = face;
      }
    }
    AddAgent(&rm, p, 8.0);
  }
  Param param;
  param.max_bound = edge;
  param.boundary_mode = BoundaryMode::kTorus;
  CheckAllPaths(rm, param);
}

TEST_F(SimdForceDiffTest, HertzLawAllPathsAgree) {
  ResourceManager rm;
  FillClusteredBall(&rm, 1000, 41);
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;
  CheckAllPaths(rm, param, ForceLaw::kHertz);
}

TEST_F(SimdForceDiffTest, DegeneratePopulations) {
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;

  {
    // Empty world: no evaluations, no crash, empty buffer.
    ResourceManager rm;
    const PathResult fused = RunPath(rm, param, Path::kFused);
    EXPECT_EQ(fused.force_evals, 0u);
    EXPECT_TRUE(fused.displacements.empty());
  }
  {
    // Single agent: its self-slot must not count as an evaluation.
    ResourceManager rm;
    AddAgent(&rm, {50, 50, 50}, 8.0);
    const PathResult r = RunPath(rm, param, Path::kFused);
    EXPECT_EQ(r.force_evals, 0u);
    ASSERT_EQ(r.displacements.size(), 1u);
    EXPECT_EQ(r.displacements[0].x, 0.0);
    EXPECT_EQ(r.displacements[0].y, 0.0);
    EXPECT_EQ(r.displacements[0].z, 0.0);
  }
  {
    // Exactly coincident centers: direction undefined, force defined as
    // zero (physics/interaction_force.h) — but the pair still counts as
    // two evaluations, one per agent, in every mode.
    ResourceManager rm;
    AddAgent(&rm, {50, 50, 50}, 8.0);
    AddAgent(&rm, {50, 50, 50}, 8.0);
    CheckAllPaths(rm, param);
    const PathResult r = RunPath(rm, param, Path::kFused);
    EXPECT_EQ(r.force_evals, 2u);
    EXPECT_EQ(MaxAbsComponentDiff(r.displacements,
                                  std::vector<Double3>{Double3{}, Double3{}}),
              0.0);
  }
  {
    // Touching-but-not-overlapping and far-apart pairs: hit counting at
    // the radius boundary must agree across paths.
    ResourceManager rm;
    AddAgent(&rm, {20, 20, 20}, 8.0);
    AddAgent(&rm, {28, 20, 20}, 8.0);   // distance == interaction radius
    AddAgent(&rm, {100, 100, 100}, 8.0);  // isolated
    CheckAllPaths(rm, param);
  }
}

TEST_F(SimdForceDiffTest, TorusPairWhoseShiftedSeparationDiffers) {
  // The callback shifts the neighbor to pj = pi - miv and the force law
  // takes d = pi - pj; near a face, pi - (pi - miv) rounds away from miv.
  // Find such a pair across the x face of a 64-edge torus, then require
  // the kernel to reproduce the callback's bits, which it only does on the
  // callback's operands.
  const double edge = 64.0;
  Double3 pi;
  Double3 pj;
  bool found = false;
  for (int k = 0; k < 1000 && !found; ++k) {
    pi = {edge - 0.3 - 1e-3 * k / 7.0, 32.0, 32.0};
    pj = {0.2 + 1e-3 * k / 3.0, 32.0, 32.0};
    const Double3 miv = MinImageVector(pi, pj, edge);
    found = pi.x - (pi.x - miv.x) != miv.x;
  }
  ASSERT_TRUE(found);
  ResourceManager rm;
  AddAgent(&rm, pi, 8.0);
  AddAgent(&rm, pj, 8.0);
  Param param;
  param.max_bound = edge;
  param.boundary_mode = BoundaryMode::kTorus;
  CheckAllPaths(rm, param);
  CheckAllPaths(rm, param, ForceLaw::kHertz);
}

TEST_F(SimdForceDiffTest, TractorForcesAndAdherence) {
  // Each agent's sum starts at its tractor force and adds the pair forces
  // in candidate order, as the callback's `force +=` does; summing the
  // pairs first and adding the tractor last rounds differently. Nonzero
  // adherence keeps the displacement gate live on both sides of it.
  for (uint64_t seed : {71u, 72u}) {
    ResourceManager rm;
    FillClusteredBall(&rm, 1500, seed, /*tractors=*/true);
    Param param;
    param.boundary_mode = BoundaryMode::kOpen;
    CheckAllPaths(rm, param);
  }
}

TEST_F(SimdForceDiffTest, ZeroForceHitsAddPositiveZero) {
  // A hit whose dist² <= 0 (coincident distinct centers) or delta <= 0
  // (within the interaction radius, not touching) adds +0.0, as the
  // callback adds a zero vector: a -0.0 tractor component becomes +0.0,
  // which the displacement keeps once the y component breaks adherence.
  const Double3 tractor{-0.0, 2.0, -0.0};
  ResourceManager rm;
  AddAgent(&rm, {50, 50, 50}, 8.0, tractor);
  AddAgent(&rm, {50, 50, 50}, 8.0, tractor);
  // Radius 8 (largest diameter) but radii 1 + 1 at distance 5.
  AddAgent(&rm, {100, 100, 100}, 2.0, tractor);
  AddAgent(&rm, {105, 100, 100}, 2.0, tractor);
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;
  CheckAllPaths(rm, param);
  const PathResult fused = RunPath(rm, param, Path::kFused);
  EXPECT_EQ(fused.force_evals, 4u);
  for (const Double3& d : fused.displacements) {
    EXPECT_FALSE(std::signbit(d.x));
    EXPECT_FALSE(std::signbit(d.z));
    EXPECT_GT(d.y, 0.0);
  }
}

TEST_F(SimdForceDiffTest, CandidateCountsAroundTheVectorTail) {
  // Isolated clusters of 1 .. 2W+2 overlapping agents, each inside one
  // box: every resident sees 0 .. 2W+1 other candidates, so the sweep runs
  // no whole lane group, whole groups only, and every tail length.
  constexpr int kW = simd::kNativeLanes<double>;
  ResourceManager rm;
  Random rng(81);
  for (int size = 1; size <= 2 * kW + 2; ++size) {
    const Double3 center{20.0 + 40.0 * size, 20.0, 20.0};
    for (int a = 0; a < size; ++a) {
      AddAgent(&rm, center + rng.UnitVector() * rng.Uniform(0.0, 1.5),
               rng.Uniform(6.0, 8.0), rng.UnitVector() * rng.Uniform(0.0, 3.0));
    }
  }
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;
  CheckAllPaths(rm, param);
}

TEST_F(SimdForceDiffTest, ResultsAreBitwiseIndependentOfVectorWidth) {
  // The W-independence claim (physics/simd_force_kernel.h): the forced
  // W=1 kernel and the native-width kernel must produce identical bits,
  // not merely close ones — d² per candidate is one fixed expression
  // regardless of grouping, and accumulation runs in candidate order.
  ResourceManager rm;
  FillClusteredBall(&rm, 1200, 51);
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;

  setenv("BIOSIM_SIMD", "scalar", 1);
  const PathResult w1 = RunPath(rm, param, Path::kFused);
  setenv("BIOSIM_SIMD", "native", 1);
  const PathResult native = RunPath(rm, param, Path::kFused);

  EXPECT_EQ(FirstBitDifference(w1.displacements, native.displacements), -1);
  EXPECT_EQ(w1.force_evals, native.force_evals);
}

TEST_F(SimdForceDiffTest, UnknownWidthOverrideThrows) {
  ResourceManager rm;
  AddAgent(&rm, {50, 50, 50}, 8.0);
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;
  setenv("BIOSIM_SIMD", "avx512", 1);
  EXPECT_THROW(RunPath(rm, param, Path::kFused), std::invalid_argument);
  // The generic callback pass never consults the override; a bad value
  // must not break it.
  EXPECT_NO_THROW(RunPath(rm, param, Path::kGeneric));
}

TEST_F(SimdForceDiffTest, VectorModesRequireTheUniformGrid) {
  ResourceManager rm;
  AddAgent(&rm, {50, 50, 50}, 8.0);
  Param param;
  KdTreeEnvironment kd;
  kd.Update(rm, param, ExecMode::kSerial);
  MechanicalForcesOp op;
  // Any other environment falls back to the generic path silently — that
  // contract predates the fused kernel and must not change.
  EXPECT_NO_THROW(op.ComputeDisplacements(rm, kd, param, ExecMode::kSerial));
  EXPECT_FALSE(op.last_used_fast_path());
}

TEST_F(SimdForceDiffTest, ReusedOpOnShrinkingPopulationMatchesFreshOp) {
  // Stale-scratch regression: the kernel's gather buffers are
  // capacity-managed and deliberately uninitialized
  // (core/aligned_buffer.h), so a second pass over a *smaller*
  // population re-reads scratch that still holds the first population's
  // bytes beyond the new prefix. Any read past the freshly gathered
  // region shows up as a difference against a never-used op.
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;

  ResourceManager big;
  FillClusteredBall(&big, 3000, 61);
  ResourceManager small;
  FillClusteredBall(&small, 200, 62);

  UniformGridEnvironment env;
  MechanicalForcesOp reused;
  env.Update(big, param, ExecMode::kSerial);
  reused.ComputeDisplacements(big, env, param, ExecMode::kSerial);
  env.Update(small, param, ExecMode::kSerial);
  reused.ComputeDisplacements(small, env, param, ExecMode::kSerial);

  MechanicalForcesOp fresh;
  fresh.ComputeDisplacements(small, env, param, ExecMode::kSerial);

  EXPECT_EQ(FirstBitDifference(reused.displacements(), fresh.displacements()),
            -1);
  EXPECT_EQ(reused.last_force_evaluations(), fresh.last_force_evaluations());
}

}  // namespace
}  // namespace biosim
