// Tests of the benchmark itself: its statistics, and that the traced
// replica is the pipeline it claims to time.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "replica.h"
#include "runner.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // the helpers must sort
  return v;
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  const Tail t = TailPercentile(OneTo(100));
  EXPECT_TRUE(t.ok);
  EXPECT_DOUBLE_EQ(t.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);

  const Tail few = TailPercentile(OneTo(24));
  EXPECT_TRUE(few.ok);
  EXPECT_DOUBLE_EQ(few.value, 14.0);
  EXPECT_NEAR(few.percentile, 100.0 * 14.0 / 24.0, 1e-12);

  const Tail eleven = TailPercentile(OneTo(11));
  EXPECT_TRUE(eleven.ok);
  EXPECT_DOUBLE_EQ(eleven.value, 1.0);
}

TEST(Stats, TailNeedsMoreThanTenSamples) {
  const Tail t = TailPercentile(OneTo(10));
  EXPECT_FALSE(t.ok);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_FALSE(TailPercentile({}).ok);
}

TEST(Stats, MedianAndNsPerUnit) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(NsPerUnit(1000.0, 8), 125.0);
  EXPECT_DOUBLE_EQ(NsPerUnit(1000.0, 0), 0.0);
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, ReplicaHashEqualsFacadeEveryStep) {
  const WorkloadConfig cfg = SmallSize(GetParam());
  const FacadeEpisode facade = RunFacade(cfg, 5, 2, /*record_hashes=*/true);
  ASSERT_EQ(facade.hashes.size(), cfg.warmup_steps + cfg.timed_steps);
  const ReplicaEpisode traced = RunReplica(cfg, 5, 2);
  EXPECT_EQ(traced.hashes, facade.hashes);
  EXPECT_TRUE(facade.positions_ok);
  EXPECT_TRUE(traced.positions_ok);
  // At one worker too: the pipeline is thread-count independent.
  EXPECT_EQ(RunReplica(cfg, 5, 1).hashes, facade.hashes);
}

INSTANTIATE_TEST_SUITE_P(Small, EveryWorkload,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& info) { return info.param; });

TEST(Workloads, SparsePairHashesAgreeEveryStep) {
  const FacadeEpisode unsharded =
      RunFacade(SmallSize("sparse_walk"), 9, 2, true);
  const FacadeEpisode sharded =
      RunFacade(SmallSize("sparse_walk_sharded"), 9, 2, true);
  EXPECT_EQ(unsharded.hashes, sharded.hashes);
}

TEST(Workloads, SeedDeterminesInputs) {
  const WorkloadConfig cfg = SmallSize("tumor_growth");
  EXPECT_EQ(RunFacade(cfg, 3, 2, false).final_hash,
            RunFacade(cfg, 3, 2, false).final_hash);
  EXPECT_NE(RunFacade(cfg, 3, 2, false).final_hash,
            RunFacade(cfg, 4, 2, false).final_hash);
}

TEST(Workloads, DroppedDepositsCountedOverTimedStepsInBothModes) {
  const WorkloadConfig cfg = SmallSize("tumor_growth");
  const FacadeEpisode facade = RunFacade(cfg, 5, 2, false);
  const ReplicaEpisode traced = RunReplica(cfg, 5, 2);
  uint64_t dropped = 0;
  for (const StepTrace& s : traced.steps) {
    dropped += s.dropped_deposits;
  }
  EXPECT_EQ(facade.dropped_deposits, dropped);
  // The same steps run as warm-up count nothing.
  WorkloadConfig all_warmup = cfg;
  all_warmup.warmup_steps += all_warmup.timed_steps;
  all_warmup.timed_steps = 0;
  EXPECT_EQ(RunFacade(all_warmup, 5, 2, false).dropped_deposits, 0u);
}

TEST(Workloads, GpuOutputReachesHostState) {
  const FacadeEpisode e = RunFacade(SmallSize("gpu_cloud"), 2, 2, false);
  EXPECT_NE(e.initial_positions, e.final_positions);
  EXPECT_GT(e.gpu_sim_ms, 0.0);
}

// Grid-update time and hashes of one replica episode, with the layer's
// entry point called once or twice per step.
struct GridRun {
  double grid_ns = 0.0;
  std::vector<uint64_t> hashes;
};

GridRun RunGrid(const WorkloadConfig& cfg, bool doubled) {
  Instance inst = Build(cfg, 11, 2);
  // Full rebuilds on every call, so the second call costs what the first
  // does; results are byte-identical to the incremental path.
  inst.sim->param().incremental_grid = false;
  Replica replica(*inst.sim, nullptr);
  replica.set_double_grid_update(doubled);
  GridRun r;
  for (uint64_t s = 0; s < cfg.warmup_steps + cfg.timed_steps; ++s) {
    r.grid_ns += replica.Step().layers[kGridUpdate].ns;
    r.hashes.push_back(inst.sim->StateHash());
  }
  return r;
}

TEST(Replica, DoubledGridUpdateShowsInItsLayer) {
  const WorkloadConfig cfg = SmallSize("sparse_walk");
  const FacadeEpisode facade = RunFacade(cfg, 11, 2, true);
  double single = 1e300;
  double doubled = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const GridRun once = RunGrid(cfg, false);
    const GridRun twice = RunGrid(cfg, true);
    EXPECT_EQ(once.hashes, facade.hashes);
    EXPECT_EQ(twice.hashes, facade.hashes);
    single = std::min(single, once.grid_ns);
    doubled = std::min(doubled, twice.grid_ns);
  }
  EXPECT_GT(doubled, 1.4 * single);
}

}  // namespace
}  // namespace perfbench
