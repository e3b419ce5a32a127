// Steady-state pipeline benchmark: a slow-moving random-walk population on
// a torus whose grid geometry never changes, while the box count dwarfs the
// agent count — the regime where a grid that scales with boxes instead of
// agents dominates the step.
//
// `--json PATH` writes the BENCH_cpu.json "steady" record CI gates on, from
// two runs of the same seeded agents —
//   full      the bench lattice
//   lattice8  cube edge doubled: 8x the grid boxes
// with each run's wall time and its grid + mechanics time (the
// "neighborhood update" and "mechanical forces" ops), each the best of
// kPairs runs taken in interleaved full/lattice8 pairs. `lattice8_ratio` is
// the median over the pairs of lattice8's grid + mechanics time over full's
// in the same pair: a slow phase of a shared host hits both runs of a pair
// alike, and the median drops the pairs it splits. The compacted grid costs
// O(agents + occupied boxes), so the ratio stays near 1. Every repeat of a
// run owes its first run's final StateHash; the run exits 2 otherwise, so
// the CI perf job doubles as a correctness gate. `--agents N` / `--steps N` resize the scenario
// (defaults: 32768 agents, 30 timed steps).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/behaviors/random_walk.h"
#include "core/behaviors/secretion.h"
#include "core/param.h"
#include "core/profiler.h"
#include "core/simulation.h"
#include "core/timer.h"
#include "diffusion/diffusion_grid.h"
#include "obs/json.h"
#include "obs/report.h"
#include "spatial/uniform_grid.h"

namespace {

using namespace biosim;
namespace json = biosim::obs::json;

// Cube edge 1536 with diameter-8 agents: box length 8, 192^3 = 7M boxes for
// 32k agents — the low-density regime where any per-box work is almost
// entirely wasted. Walk speed 60 with dt 0.01 moves an agent 0.6 um/step,
// so ~10% of agents cross a box face per step.
constexpr double kEdge = 1536.0;
constexpr double kDiameter = 8.0;
constexpr double kWalkSpeed = 60.0;
constexpr double kSecretionRate = 0.5;
constexpr size_t kSecretionStride = 16;
constexpr uint64_t kWarmupSteps = 2;
constexpr int kPairs = 9;

std::unique_ptr<Simulation> BuildSteady(size_t agents, double edge = kEdge) {
  Param param;
  param.boundary_mode = BoundaryMode::kTorus;
  param.min_bound = 0.0;
  param.max_bound = edge;
  param.random_seed = 42;
  auto sim = std::make_unique<Simulation>(param);
  sim->CreateRandomCells(agents, kDiameter);
  sim->AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "oxygen", 0.0, edge, /*resolution=*/32, /*diffusion=*/50.0,
      /*decay=*/0.01));
  for (size_t i = 0; i < agents; ++i) {
    sim->rm().AttachBehavior(i, std::make_unique<RandomWalk>(kWalkSpeed));
    if (i % kSecretionStride == 0) {
      sim->rm().AttachBehavior(
          i, std::make_unique<Secretion>("oxygen", kSecretionRate));
    }
  }
  return sim;
}

struct SteadyResult {
  double wall_ms = 0.0;
  /// "neighborhood update" + "mechanical forces" over the timed steps.
  double grid_mechanics_ms = 0.0;
  uint64_t final_hash = 0;
  size_t occupied_boxes = 0;
  size_t total_boxes = 0;
};

double GridMechanicsMs(const OpProfile& profile) {
  double ms = 0.0;
  for (const char* op : {"neighborhood update", "mechanical forces"}) {
    if (const auto* e = profile.Find(op)) {
      ms += e->total_ms();
    }
  }
  return ms;
}

SteadyResult RunSteady(size_t agents, uint64_t steps, double edge = kEdge) {
  auto sim = BuildSteady(agents, edge);
  sim->Simulate(kWarmupSteps);  // first grid build + buffer growth
  const double before = GridMechanicsMs(sim->profile());
  Timer t;
  sim->Simulate(steps);
  SteadyResult r;
  r.wall_ms = t.ElapsedMs();
  r.grid_mechanics_ms = GridMechanicsMs(sim->profile()) - before;
  r.final_hash = sim->StateHash();
  if (std::getenv("STEADY_PROFILE") != nullptr) {
    std::fprintf(stderr, "--- edge=%g ---\n%s\n", edge,
                 sim->profile().ToString().c_str());
  }
  if (const auto* ug =
          dynamic_cast<const UniformGridEnvironment*>(&sim->environment())) {
    r.occupied_boxes = ug->occupied_boxes();
    r.total_boxes = ug->total_boxes();
  }
  return r;
}

// Micro view: one grid Update over an unchanged steady population, on the
// bench lattice and on the 8x lattice.
void GridUpdateThroughput(benchmark::State& state, double edge) {
  auto sim = BuildSteady(8192, edge);
  const Param param = sim->param();
  UniformGridEnvironment env;
  env.Update(sim->rm(), param, ExecMode::kSerial);
  for (auto _ : state) {
    env.Update(sim->rm(), param, ExecMode::kSerial);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}

void BM_GridUpdate(benchmark::State& state) {
  GridUpdateThroughput(state, kEdge);
}
BENCHMARK(BM_GridUpdate);

void BM_GridUpdateLattice8(benchmark::State& state) {
  GridUpdateThroughput(state, 2.0 * kEdge);
}
BENCHMARK(BM_GridUpdateLattice8);

json::Value RunRecord(const SteadyResult& r) {
  json::Value v = json::Value::MakeObject();
  v.Set("wall_ms", r.wall_ms);
  v.Set("grid_mechanics_ms", r.grid_mechanics_ms);
  v.Set("occupied_boxes", r.occupied_boxes);
  v.Set("total_boxes", r.total_boxes);
  return v;
}

/// Keep the faster of two runs' timings; returns whether the repeat ended
/// on the same state hash (it is the same seeded run).
bool KeepBest(SteadyResult* best, const SteadyResult& r) {
  best->wall_ms = std::min(best->wall_ms, r.wall_ms);
  best->grid_mechanics_ms =
      std::min(best->grid_mechanics_ms, r.grid_mechanics_ms);
  return r.final_hash == best->final_hash;
}

/// lattice8's grid + mechanics time over full's, within one pair.
double PairRatio(const SteadyResult& full, const SteadyResult& lattice8) {
  return full.grid_mechanics_ms > 0.0
             ? lattice8.grid_mechanics_ms / full.grid_mechanics_ms
             : 0.0;
}

int WriteBenchJson(const std::string& path, size_t agents, uint64_t steps) {
  SteadyResult full = RunSteady(agents, steps);
  SteadyResult lattice8 = RunSteady(agents, steps, 2.0 * kEdge);
  std::vector<double> ratios{PairRatio(full, lattice8)};
  bool hash_parity = true;
  for (int pair = 1; pair < kPairs; ++pair) {
    const SteadyResult f = RunSteady(agents, steps);
    const SteadyResult l = RunSteady(agents, steps, 2.0 * kEdge);
    ratios.push_back(PairRatio(f, l));
    hash_parity &= KeepBest(&full, f);
    hash_parity &= KeepBest(&lattice8, l);
  }
  std::sort(ratios.begin(), ratios.end());
  const double lattice8_ratio = ratios[ratios.size() / 2];

  json::Value doc = biosim::obs::MakeRunReport("bench_micro_steady");
  doc.Set("bench", "bench_micro_steady");
  doc.Set("schema", 2);
  json::Value sc = json::Value::MakeObject();
  sc.Set("workload",
         "steady random-walk torus cloud, full stepped pipeline");
  sc.Set("agents", agents);
  sc.Set("steps", steps);
  sc.Set("edge", kEdge);
  sc.Set("diameter", kDiameter);
  sc.Set("walk_speed", kWalkSpeed);
  doc.Set("scenario", std::move(sc));
  doc.Set("full", RunRecord(full));
  doc.Set("lattice8", RunRecord(lattice8));
  doc.Set("lattice8_ratio", lattice8_ratio);
  doc.Set("hash_parity", hash_parity);

  if (!biosim::obs::WriteReportFile(doc, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf(
      "wrote %s: full %.2f ms (grid+mechanics %.2f ms), 8x lattice "
      "grid+mechanics %.2f ms (ratio %.3f), hash parity %s\n",
      path.c_str(), full.wall_ms, full.grid_mechanics_ms,
      lattice8.grid_mechanics_ms, lattice8_ratio, hash_parity ? "OK" : "FAIL");
  if (!hash_parity) {
    std::fprintf(stderr,
                 "error: steady invariant broken (a repeat's final hash "
                 "differs from its first run's %016llx / %016llx)\n",
                 static_cast<unsigned long long>(full.final_hash),
                 static_cast<unsigned long long>(lattice8.final_hash));
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our flags before google-benchmark sees (and rejects) them.
  std::string json_path;
  size_t agents = 32768;
  uint64_t steps = 30;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
      agents = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  // The JSON mode is a standalone measurement; skip the google-benchmark
  // suite so CI's perf job stays fast.
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  if (!json_path.empty()) {
    return WriteBenchJson(json_path, agents, steps);
  }
  return 0;
}
