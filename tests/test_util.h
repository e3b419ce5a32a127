// Shared helpers for the test suite.
#ifndef BIOSIM_TESTS_TEST_UTIL_H_
#define BIOSIM_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "core/resource_manager.h"

namespace biosim::testutil {

/// A directory no other test shares: ::testing::TempDir() plus the running
/// test's full name and the process id, created on first use. ctest runs
/// every discovered test in its own process, so tests that wrote fixed file
/// names into TempDir() overwrote each other's files under `ctest -j`.
inline std::string UniqueTestDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr
                         ? std::string("no_test")
                         : std::string(info->test_suite_name()) + "." +
                               info->name();
  // Parameterized names carry '/'.
  std::replace(name.begin(), name.end(), '/', '_');
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("biosim_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir.string() + "/";
}

/// Path of `name` inside UniqueTestDir().
inline std::string TestPath(const std::string& name) {
  return UniqueTestDir() + name;
}

/// Populate `rm` with `n` cells of the given diameter at uniform random
/// positions inside [lo, hi)^3.
inline void FillRandomCells(ResourceManager* rm, size_t n, double lo,
                            double hi, double diameter, uint64_t seed = 42) {
  Random rng(seed);
  rm->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    NewAgentSpec s;
    s.position = rng.UniformInCube(lo, hi);
    s.diameter = diameter;
    rm->AddAgent(std::move(s));
  }
}

/// Populate `rm` with a jittered cubic lattice of cells in x-major creation
/// order — the initial layout of the paper's benchmark A. Consecutive rows
/// are spatial neighbors, so warp accesses coalesce (the layout FP32's 2x
/// depends on).
inline void FillLatticeCells(ResourceManager* rm, size_t per_dim,
                             double spacing, double diameter,
                             double jitter = 0.0, uint64_t seed = 42) {
  Random rng(seed);
  rm->Reserve(per_dim * per_dim * per_dim);
  for (size_t x = 0; x < per_dim; ++x) {
    for (size_t y = 0; y < per_dim; ++y) {
      for (size_t z = 0; z < per_dim; ++z) {
        NewAgentSpec s;
        s.position = {(x + 0.5) * spacing + rng.Uniform(-jitter, jitter),
                      (y + 0.5) * spacing + rng.Uniform(-jitter, jitter),
                      (z + 0.5) * spacing + rng.Uniform(-jitter, jitter)};
        s.diameter = diameter;
        rm->AddAgent(std::move(s));
      }
    }
  }
}

/// Randomly permute the rows of `rm` — the memory layout benchmark A decays
/// into after many division steps (daughters append at the end), which is
/// what Improvement II's Z-order sort repairs.
inline void ShuffleAgents(ResourceManager* rm, uint64_t seed = 99) {
  Random rng(seed);
  std::vector<AgentIndex> perm(rm->size());
  for (size_t i = 0; i < perm.size(); ++i) {
    perm[i] = i;
  }
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.UniformInt(i)]);
  }
  rm->ApplyPermutation(perm);
}

/// O(n^2) reference neighbor search: sorted indices of all agents within
/// `radius` of `query` (exclusive).
inline std::vector<AgentIndex> BruteForceNeighbors(const ResourceManager& rm,
                                                   AgentIndex query,
                                                   double radius) {
  std::vector<AgentIndex> out;
  const auto& pos = rm.positions();
  double r2 = radius * radius;
  for (size_t j = 0; j < rm.size(); ++j) {
    if (j != query && SquaredDistance(pos[query], pos[j]) <= r2) {
      out.push_back(j);
    }
  }
  return out;
}

/// Collect an environment's neighbor set for `query`, sorted.
template <typename Env>
std::vector<AgentIndex> CollectNeighbors(const Env& env,
                                         const ResourceManager& rm,
                                         AgentIndex query, double radius) {
  std::vector<AgentIndex> out;
  env.ForEachNeighborWithinRadius(query, rm, radius,
                                  [&](AgentIndex j, double) { out.push_back(j); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace biosim::testutil

#endif  // BIOSIM_TESTS_TEST_UTIL_H_
