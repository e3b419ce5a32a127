#include "runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/state_hash.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

bool PositionsInCube(const biosim::Simulation& sim) {
  const double lo = sim.param().min_bound;
  const double hi = sim.param().max_bound;
  for (const biosim::Double3& p : sim.rm().positions()) {
    for (double c : {p.x, p.y, p.z}) {
      if (!std::isfinite(c) || c < lo || c > hi) {
        return false;
      }
    }
  }
  return true;
}

uint64_t PositionFingerprint(const biosim::Simulation& sim) {
  const auto& rm = sim.rm();
  std::vector<std::pair<biosim::AgentUid, biosim::Double3>> rows;
  rows.reserve(rm.size());
  for (size_t i = 0; i < rm.size(); ++i) {
    rows.emplace_back(rm.uids()[i], rm.positions()[i]);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  uint64_t h = biosim::kFnv1aOffset;
  for (const auto& [uid, pos] : rows) {
    h = biosim::HashBytes(&uid, sizeof(uid), h);
    h = biosim::HashBytes(&pos, sizeof(pos), h);
  }
  return h;
}

FacadeEpisode RunFacade(const WorkloadConfig& cfg, uint64_t seed,
                        uint32_t threads, bool record_hashes) {
  FacadeEpisode e;
  const auto start = Clock::now();
  double hash_ms = 0.0;
  auto record = [&](const biosim::Simulation& sim) {
    if (record_hashes) {
      const auto t = Clock::now();
      e.hashes.push_back(sim.StateHash());
      hash_ms += MsSince(t);
    }
  };
  Instance inst = Build(cfg, seed, threads);
  biosim::Simulation& sim = *inst.sim;
  {
    const auto t = Clock::now();
    e.initial_positions = PositionFingerprint(sim);
    hash_ms += MsSince(t);
  }
  for (uint64_t s = 0; s < cfg.warmup_steps; ++s) {
    sim.Simulate(1);
    record(sim);
  }
  e.setup_s = (MsSince(start) - hash_ms) / 1000.0;

  const double gpu_before = inst.gpu != nullptr ? inst.gpu->SimulatedMs() : 0;
  const biosim::DiffusionGrid* field = sim.diffusion_grid();
  const uint64_t dropped_before =
      field != nullptr ? field->dropped_deposits() : 0;
  for (uint64_t s = 0; s < cfg.timed_steps; ++s) {
    e.agents.push_back(sim.rm().size());
    const auto t = Clock::now();
    sim.Simulate(1);
    e.step_ms.push_back(MsSince(t));
    record(sim);
  }
  if (inst.gpu != nullptr) {
    e.gpu_sim_ms = inst.gpu->SimulatedMs() - gpu_before;
  }
  e.final_hash = sim.StateHash();
  e.final_agents = sim.rm().size();
  e.final_positions = PositionFingerprint(sim);
  e.positions_ok = PositionsInCube(sim);
  if (field != nullptr) {
    e.dropped_deposits = field->dropped_deposits() - dropped_before;
  }
  return e;
}

ReplicaEpisode RunReplica(const WorkloadConfig& cfg, uint64_t seed,
                          uint32_t threads) {
  ReplicaEpisode e;
  Instance inst = Build(cfg, seed, threads);
  Replica replica(*inst.sim, inst.gpu);
  for (uint64_t s = 0; s < cfg.warmup_steps + cfg.timed_steps; ++s) {
    StepTrace t = replica.Step();
    e.hashes.push_back(inst.sim->StateHash());
    if (s >= cfg.warmup_steps) {
      e.steps.push_back(t);
    }
  }
  e.positions_ok = PositionsInCube(*inst.sim);
  return e;
}

}  // namespace perfbench
