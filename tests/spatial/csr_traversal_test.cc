// CSR traversal property tests (docs/perf.md): the compacted CSR of the
// uniform grid must be structurally exact, and its neighbor traversal must
// visit *exactly* the reference (neighbor, d²) sequence — same order, same
// indices, equal distances — on random, clustered, torus-wrapped, and
// degenerate (1–2 boxes per axis) inputs. The reference is built here from
// scratch: every box's chain is its agents in ascending index (Fig. 5's
// chains after canonical sorting), and the 27-box block is walked in the
// lattice's canonical NeighborBoxesOf order. This is the contract the fused
// force kernel's bitwise equality rests on.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "physics/displacement.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

using Visit = std::pair<AgentIndex, double>;

/// Reference box chains: flat box -> agents ascending, from the lattice
/// alone (no grid structure involved).
std::map<size_t, std::vector<int32_t>> ReferenceChains(
    const GridGeometry& g, const ResourceManager& rm) {
  std::map<size_t, std::vector<int32_t>> chains;
  for (size_t i = 0; i < rm.size(); ++i) {
    chains[g.FlatBoxIndex(g.BoxCoordinatesOf(rm.positions()[i]))].push_back(
        static_cast<int32_t>(i));
  }
  return chains;
}

std::vector<Visit> CollectChain(
    const GridGeometry& g, const std::map<size_t, std::vector<int32_t>>& chains,
    const ResourceManager& rm, AgentIndex q, double radius) {
  std::vector<Visit> out;
  const auto& pos = rm.positions();
  size_t blocks[27];
  const int count = g.NeighborBoxesOf(g.BoxCoordinatesOf(pos[q]), blocks);
  for (int k = 0; k < count; ++k) {
    auto it = chains.find(blocks[k]);
    if (it == chains.end()) {
      continue;
    }
    for (int32_t j : it->second) {
      if (static_cast<AgentIndex>(j) == q) {
        continue;
      }
      const double d2 =
          g.torus ? MinImageVector(pos[q], pos[j], g.edge).SquaredNorm()
                  : SquaredDistance(pos[q], pos[j]);
      if (d2 <= radius * radius) {
        out.emplace_back(j, d2);
      }
    }
  }
  return out;
}

std::vector<Visit> CollectCsr(const UniformGridEnvironment& env,
                              const ResourceManager& rm, AgentIndex q,
                              double radius) {
  std::vector<Visit> out;
  env.ForEachNeighborWithinRadius(
      q, rm, radius, [&](AgentIndex j, double d2) { out.emplace_back(j, d2); });
  return out;
}

/// The property: for every agent, the grid's traversal produces the
/// reference visit sequence (order, indices, and d² values all equal).
void ExpectIdenticalSequences(const UniformGridEnvironment& env,
                              const ResourceManager& rm) {
  const double radius = env.interaction_radius();
  const auto chains = ReferenceChains(env.geometry(), rm);
  for (AgentIndex q = 0; q < rm.size(); ++q) {
    std::vector<Visit> chain =
        CollectChain(env.geometry(), chains, rm, q, radius);
    std::vector<Visit> csr = CollectCsr(env, rm, q, radius);
    ASSERT_EQ(chain.size(), csr.size()) << "agent " << q;
    for (size_t k = 0; k < chain.size(); ++k) {
      EXPECT_EQ(chain[k].first, csr[k].first) << "agent " << q << " visit " << k;
      EXPECT_EQ(chain[k].second, csr[k].second)
          << "agent " << q << " visit " << k;
    }
  }
}

/// CSR structural invariants: one slot per occupied box in ascending box
/// order, a valid exclusive prefix sum, and each run equal to the box's
/// reference chain — so every agent appears exactly once.
void ExpectValidCsr(const UniformGridEnvironment& env,
                    const ResourceManager& rm) {
  const CompactGrid& csr = env.csr();
  const auto chains = ReferenceChains(env.geometry(), rm);
  const auto& starts = csr.starts();
  const auto& agents = csr.agents();
  ASSERT_EQ(csr.occupied_boxes(), chains.size());
  ASSERT_EQ(env.occupied_boxes(), chains.size());
  ASSERT_EQ(starts.size(), chains.size() + 1);
  ASSERT_EQ(agents.size(), rm.size());
  EXPECT_EQ(starts.front(), 0);
  EXPECT_EQ(static_cast<size_t>(starts.back()), rm.size());
  size_t s = 0;
  for (const auto& [box, chain] : chains) {
    ASSERT_EQ(csr.slot_boxes()[s], box) << "slot " << s;
    ASSERT_EQ(csr.SlotOf(env.geometry().BoxCoordinatesOfIndex(box)),
              static_cast<int32_t>(s));
    const std::vector<int32_t> run(agents.begin() + starts[s],
                                   agents.begin() + starts[s + 1]);
    EXPECT_EQ(run, chain) << "box " << box;
    ++s;
  }
}

Param ClampParam(double hi) {
  Param p;
  p.min_bound = 0.0;
  p.max_bound = hi;
  return p;
}

Param TorusParam(double edge) {
  Param p = ClampParam(edge);
  p.boundary_mode = BoundaryMode::kTorus;
  return p;
}

TEST(CsrTraversalTest, RandomUniformMatchesChain) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 100.0, 10.0, /*seed=*/7);
  UniformGridEnvironment env;
  env.Update(rm, ClampParam(100.0), ExecMode::kSerial);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, ClusteredBallMatchesChain) {
  // Dense ball in a mostly empty domain: occupancy ranges from packed core
  // boxes to empty corners, so CSR rows of very different lengths meet the
  // clamped boundary blocks.
  ResourceManager rm;
  Random rng(21);
  const size_t n = 300;
  rm.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    NewAgentSpec s;
    s.position = Double3{60.0, 60.0, 60.0} + rng.UnitVector() * (25.0 * rng.Uniform());
    s.diameter = 10.0;
    rm.AddAgent(std::move(s));
  }
  UniformGridEnvironment env;
  env.Update(rm, ClampParam(200.0), ExecMode::kSerial);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, TorusWrapMatchesChain) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 250, 0.0, 100.0, 12.0, /*seed=*/13);
  UniformGridEnvironment env;
  env.Update(rm, TorusParam(100.0), ExecMode::kSerial);
  ASSERT_TRUE(env.is_torus());
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, DegenerateTwoBoxTorusAxesMatchChain) {
  // 100/40 -> 2 boxes per axis: the periodic offset range collapses to
  // {-1, 0} so boxes are not visited twice. The traversals must agree on
  // that reduction.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 120, 0.0, 100.0, 40.0, /*seed=*/3);
  UniformGridEnvironment env;
  env.Update(rm, TorusParam(100.0), ExecMode::kSerial);
  ASSERT_EQ(env.num_boxes_axis().x, 2);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, DegenerateSingleBoxTorusAxesMatchChain) {
  // 100/60 -> 1 box per axis: the only box is its own neighborhood exactly
  // once (offset range {0}).
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 60, 0.0, 100.0, 60.0, /*seed=*/5);
  UniformGridEnvironment env;
  env.Update(rm, TorusParam(100.0), ExecMode::kSerial);
  ASSERT_EQ(env.num_boxes_axis().x, 1);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, SmallClampedDomainMatchesChain) {
  // Non-periodic degenerate shape: 1-2 boxes per axis with clamped faces.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 80, 0.0, 50.0, 30.0, /*seed=*/11);
  UniformGridEnvironment env;
  env.Update(rm, ClampParam(50.0), ExecMode::kSerial);
  ASSERT_LE(env.num_boxes_axis().x, 2);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, VerySparseLatticeMatchesChain) {
  // A dense cluster straddling the faces of a huge torus: fewer than one
  // word of boxes in 16 holds an agent, so lookups go through the word
  // mask and each box's own row is read from its adjacent slots — with
  // boxes on both sides of the wrap, where the row's neighbours are not
  // adjacent in box order.
  ResourceManager rm;
  Random rng(31);
  for (size_t i = 0; i < 300; ++i) {
    NewAgentSpec s;
    Double3 p = rng.UniformInCube(-30.0, 30.0);
    for (double* c : {&p.x, &p.y, &p.z}) {
      if (*c < 0.0) *c += 1536.0;
    }
    s.position = p;
    s.diameter = 8.0;
    rm.AddAgent(std::move(s));
  }
  UniformGridEnvironment env;
  env.Update(rm, TorusParam(1536.0), ExecMode::kSerial);
  ASSERT_EQ(env.num_boxes_axis().x, 192);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, ParallelBuildProducesIdenticalCsr) {
  // The CSR arrays are part of the determinism contract: serial and
  // parallel builds must flatten to byte-identical layouts.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 100.0, 10.0, /*seed=*/17);
  UniformGridEnvironment serial_env;
  serial_env.Update(rm, ClampParam(100.0), ExecMode::kSerial);
  UniformGridEnvironment parallel_env;
  parallel_env.Update(rm, ClampParam(100.0), ExecMode::kParallel);
  EXPECT_EQ(serial_env.csr().starts(), parallel_env.csr().starts());
  EXPECT_EQ(serial_env.csr().agents(), parallel_env.csr().agents());
  EXPECT_EQ(serial_env.csr().slot_boxes(), parallel_env.csr().slot_boxes());
}

TEST(CsrTraversalTest, ChunkedRadixBuildMatchesReferenceAtEveryThreadCount) {
  // Large enough for the builder to cut the radix sort and the slot fill
  // into several chunks: the stable sort has one output, so every worker
  // count must give the same bytes as the reference chains.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 40000, 0.0, 400.0, 8.0, /*seed=*/29);
  const Param param = TorusParam(400.0);
  UniformGridEnvironment serial_env;
  serial_env.Update(rm, param, ExecMode::kSerial);
  ExpectValidCsr(serial_env, rm);
  const uint32_t restore = HardwareThreads();
  for (uint32_t threads : {2u, 3u, 4u}) {
    SetNumThreads(threads);
    UniformGridEnvironment env;
    env.Update(rm, param, ExecMode::kParallel);
    EXPECT_EQ(env.csr().slot_boxes(), serial_env.csr().slot_boxes())
        << threads << " threads";
    EXPECT_EQ(env.csr().starts(), serial_env.csr().starts())
        << threads << " threads";
    EXPECT_EQ(env.csr().agents(), serial_env.csr().agents())
        << threads << " threads";
  }
  SetNumThreads(restore);
}

TEST(CsrTraversalTest, EmptyPopulationHasEmptyCsr) {
  ResourceManager rm;
  UniformGridEnvironment env;
  env.Update(rm, ClampParam(100.0), ExecMode::kSerial);
  EXPECT_EQ(env.csr().agents().size(), 0u);
  EXPECT_EQ(env.occupied_boxes(), 0u);
  EXPECT_EQ(env.csr().starts(), std::vector<int32_t>{0});
}

}  // namespace
}  // namespace biosim
