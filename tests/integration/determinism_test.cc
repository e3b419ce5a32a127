// The determinism tentpole (docs/determinism.md): the same seeded scenario
// must produce bitwise-identical per-step state hashes at any worker count
// and across repeated runs. The scenario deliberately exercises every
// order-sensitive subsystem at once — growth + division (deferred
// structural changes), the parallel uniform-grid build (ascending box
// runs), force accumulation, and substance deposits from behaviors
// (chunk-ordered deposit sink) on a diffusing field.
//
// The CLI contract rides along: `biosim_run --verify-determinism` exits 0
// on a deterministic config and prints the final state hash, which the CI
// thread sweep compares across BIOSIM_THREADS values.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "app/runner.h"
#include "core/behaviors/secretion.h"
#include "core/simulation.h"
#include "diffusion/diffusion_grid.h"

#ifndef BIOSIM_RUN_BIN
#error "BIOSIM_RUN_BIN must point at the biosim_run binary"
#endif

namespace biosim {
namespace {

/// Hash after construction and after each of `steps` steps, for one run of
/// the full-pipeline scenario at the given worker count. `zorder_cadence`,
/// `cpu_simd`, `fp32` and `num_shards` plumb through the performance knobs
/// (docs/perf.md); `reference` swaps in the generic callback backend.
std::vector<uint64_t> HashTrajectory(uint32_t num_threads, uint64_t steps,
                                     uint64_t seed = 42,
                                     uint32_t zorder_cadence = 0,
                                     bool reference = false,
                                     bool cpu_simd = false, bool fp32 = false,
                                     uint32_t num_shards = 0) {
  Param p;
  p.random_seed = seed;
  p.num_threads = num_threads;
  p.zorder_cadence = zorder_cadence;
  p.cpu_simd = cpu_simd;
  p.precision = fp32 ? Precision::kFp32 : Precision::kFp64;
  p.num_shards = num_shards;
  p.max_bound = 120.0;
  Simulation sim(p);
  if (reference) {
    sim.SetMechanicsBackend(std::make_unique<ReferenceMechanicsBackend>());
  }
  // Benchmark-A lattice: diameter 8 with threshold 16 so cells roughly
  // double in volume before dividing (several divisions over the run).
  sim.Create3DCellGrid(3, 20.0, 8.0, 16.0, /*growth_rate=*/120000.0);
  auto grid = std::make_unique<DiffusionGrid>("oxygen", 0.0, 120.0, 12, 80.0,
                                              /*decay_constant=*/0.01);
  grid->Initialize([](const Double3&) { return 1.0; });
  sim.AddDiffusionGrid(std::move(grid));
  // Mixed secretion/consumption so the deposit order actually matters:
  // re-ordered FP additions into a shared voxel would change the hash.
  for (AgentIndex i = 0; i < sim.rm().size(); ++i) {
    sim.rm().AttachBehavior(
        i, std::make_unique<Secretion>(i % 2 == 0 ? -0.4 : 0.7));
  }

  std::vector<uint64_t> hashes;
  hashes.push_back(sim.StateHash());
  for (uint64_t s = 0; s < steps; ++s) {
    sim.Simulate(1);
    hashes.push_back(sim.StateHash());
  }
  return hashes;
}

TEST(DeterminismTest, SameSeedThreadSweepIsBitwiseIdentical) {
  auto reference = HashTrajectory(1, 10);
  EXPECT_EQ(HashTrajectory(2, 10), reference);
  EXPECT_EQ(HashTrajectory(8, 10), reference);
}

TEST(DeterminismTest, FastPathWithZOrderSortThreadSweepIsBitwiseIdentical) {
  // The fused CSR kernel plus periodic Z-order row permutation — the full
  // perf configuration (docs/perf.md) — owes the same thread-count
  // invariance as the baseline pipeline: the permutation is a pure function
  // of positions and the fused traversal fixes each agent's FP order.
  auto reference = HashTrajectory(1, 10, 42, /*zorder_cadence=*/2);
  EXPECT_EQ(HashTrajectory(2, 10, 42, 2), reference);
  EXPECT_EQ(HashTrajectory(8, 10, 42, 2), reference);
}

TEST(DeterminismTest, FusedPathMatchesCallbackPathBitwise) {
  // Cross-path equality over the full pipeline, divisions included: the
  // generic callback reference must not change a single state hash (the
  // parity harness proves the same on the benchmark-B scenario).
  EXPECT_EQ(HashTrajectory(8, 10, 42, 0, /*reference=*/false),
            HashTrajectory(8, 10, 42, 0, /*reference=*/true));
}

TEST(DeterminismTest, SimdPathThreadSweepIsBitwiseSelfConsistent) {
  // The vectorized kernel owes a *tolerance* against the scalar reference
  // (FMA-contracted distances; docs/determinism.md), but against itself it
  // owes the full contract: per-agent candidate-order accumulation makes
  // the trajectory bitwise independent of the worker count and the run.
  auto reference = HashTrajectory(1, 10, 42, 0, false, /*cpu_simd=*/true);
  EXPECT_EQ(HashTrajectory(2, 10, 42, 0, false, true), reference);
  EXPECT_EQ(HashTrajectory(8, 10, 42, 0, false, true), reference);
  EXPECT_EQ(HashTrajectory(8, 10, 42, 0, false, true), reference);
}

TEST(DeterminismTest, Fp32PathThreadSweepIsBitwiseSelfConsistent) {
  // Same self-consistency for the FP32 compute mode (the paper's
  // Improvement I on the host): narrowed arithmetic, unchanged ordering.
  auto reference =
      HashTrajectory(1, 10, 42, 0, false, /*cpu_simd=*/true, /*fp32=*/true);
  EXPECT_EQ(HashTrajectory(2, 10, 42, 0, false, true, true), reference);
  EXPECT_EQ(HashTrajectory(8, 10, 42, 0, false, true, true), reference);
}

TEST(DeterminismTest, SchedulerKnobsAreBitwiseNeutral) {
  // The step's only scheduling branch is the spatial + forces phase:
  // sharded or not, with divisions and row-ordered deposits in play, it
  // must not change a single per-step hash at any worker count.
  auto baseline = HashTrajectory(8, 10, 42, 0, false, false, false,
                                 /*num_shards=*/0);
  for (uint32_t threads : {1u, 8u}) {
    EXPECT_EQ(HashTrajectory(threads, 10, 42, 0, false, false, false, 2),
              baseline)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, RunToRunRepeatIsBitwiseIdentical) {
  // Same thread count twice: catches scheduling-dependent nondeterminism
  // that a thread sweep alone could miss.
  EXPECT_EQ(HashTrajectory(8, 10), HashTrajectory(8, 10));
}

TEST(DeterminismTest, HashDetectsSeedAndStepChanges) {
  // The sweep above is only meaningful if the hash is sensitive: different
  // seeds (division axes) and different step counts must not collide.
  auto a = HashTrajectory(1, 6, /*seed=*/1);
  auto b = HashTrajectory(1, 6, /*seed=*/2);
  EXPECT_NE(a.back(), b.back());
  EXPECT_NE(a[5], a[6]);  // one more step changes the state
}

TEST(VerifyDeterminismTest, DefaultConfigPassesWithForcedSerialRun) {
  app::RunConfig cfg;
  cfg.steps = 5;
  cfg.cells_per_dim = 3;
  cfg.num_threads = 8;
  app::DeterminismReport r = app::VerifyDeterminism(cfg);
  EXPECT_TRUE(r.deterministic);
  // Two runs at 8 workers plus the forced single-thread run.
  EXPECT_EQ(r.runs, 3);
  EXPECT_NE(r.final_hash, 0u);
}

TEST(VerifyDeterminismTest, FinalHashIndependentOfConfiguredThreads) {
  app::RunConfig cfg;
  cfg.steps = 4;
  cfg.cells_per_dim = 3;
  cfg.num_threads = 2;
  uint64_t h2 = app::VerifyDeterminism(cfg).final_hash;
  cfg.num_threads = 8;
  uint64_t h8 = app::VerifyDeterminism(cfg).final_hash;
  EXPECT_EQ(h2, h8);
}

int RunBiosim(const std::string& args, std::string* stdout_text = nullptr) {
  std::string out_path =
      biosim::testutil::TestPath("determinism_cli.out");
  std::string cmd = std::string(BIOSIM_RUN_BIN) + " " + args + " > " +
                    out_path + " 2>/dev/null";
  int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1) << "failed to spawn " << cmd;
  EXPECT_TRUE(WIFEXITED(status)) << "abnormal termination of " << cmd;
  if (stdout_text != nullptr) {
    std::FILE* f = std::fopen(out_path.c_str(), "rb");
    if (f == nullptr) {
      ADD_FAILURE() << "cannot read " << out_path;
      return -1;
    }
    char buf[4096];
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    *stdout_text = buf;
  }
  std::remove(out_path.c_str());
  return status == -1 ? -1 : WEXITSTATUS(status);
}

TEST(VerifyDeterminismCliTest, ExitsZeroAndPrintsTheFinalHash) {
  std::string out;
  int code = RunBiosim("--steps 3 --verify-determinism", &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("determinism: OK"), std::string::npos) << out;
  EXPECT_NE(out.find("final state hash"), std::string::npos) << out;
}

TEST(VerifyDeterminismCliTest, ThreadsFlagDoesNotChangeTheHash) {
  // The CI sweep's contract in miniature: the printed final hash must be
  // identical across worker counts. (The run *count* legitimately differs:
  // --threads 1 skips the forced extra single-thread run.)
  auto hash_of = [](const std::string& out) {
    size_t at = out.find("final state hash ");
    return at == std::string::npos ? std::string()
                                   : out.substr(at, std::string::npos);
  };
  std::string out1;
  std::string out8;
  EXPECT_EQ(RunBiosim("--steps 3 --threads 1 --verify-determinism", &out1), 0);
  EXPECT_EQ(RunBiosim("--steps 3 --threads 8 --verify-determinism", &out8), 0);
  ASSERT_NE(hash_of(out1), "") << out1;
  EXPECT_EQ(hash_of(out1), hash_of(out8)) << out1 << out8;
}

}  // namespace
}  // namespace biosim
