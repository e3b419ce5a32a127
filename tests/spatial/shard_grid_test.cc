// Shard windows of the compacted grid (spatial/compact_grid.h): a shard's
// CSR over its owned planes +-1 must present, for every owned box, exactly
// the candidate runs the global uniform grid presents — same rows, same
// ascending order, same canonical 27-block enumeration — while storing only
// occupied boxes.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "spatial/grid_geometry.h"
#include "spatial/compact_grid.h"
#include "spatial/shard_partition.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

ResourceManager MakePopulation(size_t n, double lo, double hi, uint64_t seed,
                               double diameter = 8.0) {
  ResourceManager rm;
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    NewAgentSpec spec;
    spec.position = rng.UniformInCube(lo, hi);
    spec.diameter = diameter;
    rm.AddAgent(std::move(spec));
  }
  return rm;
}

TEST(ShardGridTest, SingleShardReproducesTheGlobalCsrRuns) {
  Param p;
  p.max_bound = 200.0;
  auto rm = MakePopulation(300, 0.0, 200.0, 42);

  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();

  CompactGrid sg;
  sg.Configure(g, 0, g.num_boxes_axis.z, /*halo=*/1);
  std::vector<int32_t> members(rm.size());
  std::iota(members.begin(), members.end(), 0);
  sg.Build(members.data(), members.size(), rm.positions().data(),
           ExecMode::kSerial);

  // Every agent present exactly once, in a box-run that matches the global
  // grid's run for the same box.
  EXPECT_EQ(sg.agents().size(), rm.size());
  ASSERT_EQ(sg.owned_slots(), sg.occupied_boxes());
  for (uint32_t slot = 0; slot < sg.owned_slots(); ++slot) {
    const int32_t begin = sg.starts()[slot];
    const int32_t end = sg.starts()[slot + 1];
    ASSERT_LT(begin, end);
    // Rows ascending within the run.
    for (int32_t i = begin + 1; i < end; ++i) {
      EXPECT_LT(sg.agents()[i - 1], sg.agents()[i]);
    }
    // The global grid bins the first resident into the same box as the rest.
    const auto c = g.BoxCoordinatesOf(
        rm.positions()[static_cast<size_t>(sg.agents()[begin])]);
    const auto run = grid.csr().RunOf(c);
    ASSERT_EQ(static_cast<int32_t>(run.size()), end - begin)
        << "run length mismatch";
    for (int32_t i = 0; i < end - begin; ++i) {
      EXPECT_EQ(run[static_cast<size_t>(i)], sg.agents()[begin + i]);
    }
  }
}

TEST(ShardGridTest, NeighborSlotsEnumerateCanonicalOrderSkippingEmpties) {
  Param p;
  p.max_bound = 120.0;
  auto rm = MakePopulation(80, 0.0, 120.0, 7);

  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();

  CompactGrid sg;
  sg.Configure(g, 0, g.num_boxes_axis.z, /*halo=*/1);
  std::vector<int32_t> members(rm.size());
  std::iota(members.begin(), members.end(), 0);
  sg.Build(members.data(), members.size(), rm.positions().data(),
           ExecMode::kSerial);

  CsrGridView view = sg.View();
  for (uint32_t slot = 0; slot < sg.owned_slots(); ++slot) {
    size_t shard_slots[27];
    const int shard_count = view.neighbor_slots(view.self, slot, shard_slots);

    // Global enumeration of the same box, filtered to non-empty boxes, must
    // match the shard's slot sequence element-wise (mapped through the
    // shard's runs).
    const auto c = g.BoxCoordinatesOf(
        rm.positions()[static_cast<size_t>(sg.agents()[sg.starts()[slot]])]);
    size_t global_boxes[27];
    const int global_count = g.NeighborBoxesOf(c, global_boxes);
    int matched = 0;
    for (int b = 0; b < global_count; ++b) {
      const auto run =
          grid.csr().RunOf(g.BoxCoordinatesOfIndex(global_boxes[b]));
      if (run.empty()) {
        continue;  // empty in the global grid -> shard has no slot for it
      }
      ASSERT_LT(matched, shard_count);
      const size_t s2 = shard_slots[matched++];
      // Same resident run.
      const int32_t sb = sg.starts()[s2];
      const int32_t se = sg.starts()[s2 + 1];
      ASSERT_EQ(static_cast<size_t>(se - sb), run.size());
      for (size_t i = 0; i < run.size(); ++i) {
        EXPECT_EQ(sg.agents()[static_cast<size_t>(sb) + i], run[i]);
      }
    }
    EXPECT_EQ(matched, shard_count);
  }
}

TEST(ShardGridTest, PartitionedShardsCoverEveryGlobalRunExactlyOnce) {
  Param p;
  p.max_bound = 160.0;
  p.boundary_mode = BoundaryMode::kTorus;
  auto rm = MakePopulation(240, 0.0, 160.0, 99);

  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();
  const int32_t planes = g.num_boxes_axis.z;

  for (uint32_t shards : {2u, 3u, 4u}) {
    auto part = ShardPartition::Split(shards, planes, ShardBalance::kStatic,
                                      {});
    // Owner-assigned members plus one-plane halos, as the runtime builds.
    std::vector<std::vector<int32_t>> members(shards);
    for (size_t i = 0; i < rm.size(); ++i) {
      const auto c = g.BoxCoordinatesOf(rm.positions()[i]);
      for (uint32_t k = 0; k < shards; ++k) {
        const int32_t lo = part.first_plane(k) - 1;
        const int32_t hi = part.end_plane(k);  // inclusive halo above
        const int32_t z = c.z;
        const bool in_window =
            (z >= lo && z <= hi) ||
            // torus wrap of the window edges
            (lo < 0 && z == planes + lo) || (hi >= planes && z == hi - planes);
        if (in_window) {
          members[k].push_back(static_cast<int32_t>(i));
        }
      }
    }

    size_t rows_covered = 0;
    for (uint32_t k = 0; k < shards; ++k) {
      CompactGrid sg;
      sg.Configure(g, part.first_plane(k), part.end_plane(k), /*halo=*/1);
      sg.Build(members[k].data(), members[k].size(), rm.positions().data(),
               ExecMode::kSerial);
      for (uint32_t slot = 0; slot < sg.owned_slots(); ++slot) {
        rows_covered += static_cast<size_t>(sg.starts()[slot + 1] -
                                            sg.starts()[slot]);
      }
    }
    // The owned boxes of all shards partition the population: every row in
    // exactly one owned run.
    EXPECT_EQ(rows_covered, rm.size()) << "shards=" << shards;
  }
}

TEST(ShardGridTest, MemberOutsideWindowThrows) {
  Param p;
  p.max_bound = 120.0;
  auto rm = MakePopulation(50, 0.0, 120.0, 3);

  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();
  if (g.num_boxes_axis.z < 4) {
    GTEST_SKIP() << "domain too flat to have an out-of-window plane";
  }
  CompactGrid sg;
  sg.Configure(g, 0, 1, /*halo=*/1);  // window = planes {0, 1}
  // Find a row binned far outside the window.
  int32_t outside = -1;
  for (size_t i = 0; i < rm.size(); ++i) {
    if (g.BoxCoordinatesOf(rm.positions()[i]).z >= 3) {
      outside = static_cast<int32_t>(i);
      break;
    }
  }
  ASSERT_GE(outside, 0);
  std::vector<int32_t> members{outside};
  EXPECT_THROW(sg.Build(members.data(), members.size(), rm.positions().data(),
                        ExecMode::kSerial),
               std::logic_error);
}

TEST(ShardGridTest, UpdateIsIdempotentAcrossRebuilds) {
  Param p;
  p.max_bound = 120.0;
  auto rm = MakePopulation(100, 0.0, 120.0, 5);
  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();

  CompactGrid sg;
  sg.Configure(g, 0, g.num_boxes_axis.z, /*halo=*/1);
  std::vector<int32_t> members(rm.size());
  std::iota(members.begin(), members.end(), 0);
  sg.Build(members.data(), members.size(), rm.positions().data(),
           ExecMode::kSerial);
  const auto starts = sg.starts();
  const auto agents = sg.agents();
  const auto boxes = sg.slot_boxes();
  const size_t owned = sg.owned_slots();
  sg.Build(members.data(), members.size(), rm.positions().data(),
           ExecMode::kSerial);
  EXPECT_EQ(sg.starts(), starts);
  EXPECT_EQ(sg.agents(), agents);
  EXPECT_EQ(sg.slot_boxes(), boxes);
  EXPECT_EQ(sg.owned_slots(), owned);
}

TEST(ShardGridTest, CsrAgentCountGuardThrowsPastInt32) {
  // A shard's starts/agents are int32 like the global grid's: the shared
  // builder checks the member count before it reads a single row, so the
  // guard is testable on a shard window without allocating 2^31 members.
  Param p;
  p.max_bound = 120.0;
  auto rm = MakePopulation(50, 0.0, 120.0, 3);
  const GridGeometry g = GridGeometry::Derive(rm, p);
  CompactGrid sg;
  sg.Configure(g, 0, 1, /*halo=*/1);
  EXPECT_THROW(sg.Build(nullptr, static_cast<size_t>(INT32_MAX) + 1, nullptr,
                        ExecMode::kSerial),
               std::length_error);
  EXPECT_THROW(CompactGrid::CheckCsrAgentCount(size_t{1} << 40),
               std::length_error);
  // The grid is still usable after the rejected build.
  std::vector<int32_t> members;
  for (size_t i = 0; i < rm.size(); ++i) {
    if (g.BoxCoordinatesOf(rm.positions()[i]).z <= 1) {
      members.push_back(static_cast<int32_t>(i));
    }
  }
  sg.Build(members.data(), members.size(), rm.positions().data(),
           ExecMode::kSerial);
  EXPECT_EQ(sg.agents().size(), members.size());
}

TEST(ShardGridTest, OwnedSlotsAreThePrefixOfOwnedPlanes) {
  // Window planes are numbered owned planes first, so the force pass's
  // traversal range [0, owned_slots()) holds exactly the occupied boxes of
  // the owned planes, and the halo boxes follow.
  Param p;
  p.max_bound = 160.0;
  p.boundary_mode = BoundaryMode::kTorus;
  auto rm = MakePopulation(400, 0.0, 160.0, 11);
  const GridGeometry g = GridGeometry::Derive(rm, p);
  CompactGrid sg;
  sg.Configure(g, 3, 7, /*halo=*/1);
  std::vector<int32_t> members;
  for (size_t i = 0; i < rm.size(); ++i) {
    const int32_t z = g.BoxCoordinatesOf(rm.positions()[i]).z;
    if (z >= 2 && z <= 7) {
      members.push_back(static_cast<int32_t>(i));
    }
  }
  sg.Build(members.data(), members.size(), rm.positions().data(),
           ExecMode::kSerial);
  ASSERT_LT(sg.owned_slots(), sg.occupied_boxes());
  for (uint32_t s = 0; s < sg.occupied_boxes(); ++s) {
    const int32_t z = sg.SlotCoordinates(s).z;
    EXPECT_EQ(s < sg.owned_slots(), z >= 3 && z < 7) << "slot " << s;
  }
}

TEST(ShardPartitionTest, StaticSplitCoversAllPlanesContiguously) {
  auto part = ShardPartition::Split(4, 10, ShardBalance::kStatic, {});
  EXPECT_EQ(part.plane_begin.front(), 0);
  EXPECT_EQ(part.plane_begin.back(), 10);
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_LT(part.first_plane(k), part.end_plane(k));  // >= 1 plane each
    for (int32_t z = part.first_plane(k); z < part.end_plane(k); ++z) {
      EXPECT_EQ(part.OwnerOfPlane(z), static_cast<int32_t>(k));
    }
  }
}

TEST(ShardPartitionTest, AdaptiveSplitFollowsTheLoadHistogram) {
  // All the load in the last two planes: the first shards should take most
  // of the empty planes, the loaded planes should split across shards.
  std::vector<uint64_t> load(10, 0);
  load[8] = 500;
  load[9] = 500;
  auto part = ShardPartition::Split(2, 10, ShardBalance::kAdaptive, load);
  // Shard 0 keeps taking planes until it holds ~half the load -> it must
  // own plane 8 (load 500 = half) and stop there.
  EXPECT_EQ(part.end_plane(0), 9);
  EXPECT_EQ(part.first_plane(1), 9);
}

TEST(ShardPartitionTest, RejectsMoreShardsThanPlanes) {
  try {
    ShardPartition::Split(8, 3, ShardBalance::kStatic, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("8 shards exceed the 3 z-planes"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ShardPartition::Split(0, 3, ShardBalance::kStatic, {}),
               std::invalid_argument);
}

TEST(ShardPartitionTest, AdaptiveAlwaysGivesEveryShardAPlane) {
  // Degenerate: every agent in plane 0. Adaptive must still hand planes
  // 1..3 out so each shard owns >= 1 plane.
  std::vector<uint64_t> load(4, 0);
  load[0] = 1000;
  auto part = ShardPartition::Split(4, 4, ShardBalance::kAdaptive, load);
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_GE(part.end_plane(k) - part.first_plane(k), 1);
  }
}

}  // namespace
}  // namespace biosim
