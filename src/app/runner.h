// Configured-run driver: build a Simulation from a RunConfig, run it,
// produce the requested outputs. The biosim_run tool is a thin main()
// around this so the behavior is unit-testable.
#ifndef BIOSIM_APP_RUNNER_H_
#define BIOSIM_APP_RUNNER_H_

#include <memory>
#include <string>

#include "app/config.h"
#include "core/simulation.h"

namespace biosim::app {

/// Construct the configured simulation (population + backend), not yet run.
std::unique_ptr<Simulation> BuildSimulation(const RunConfig& cfg);

struct RunSummary {
  size_t initial_agents = 0;
  size_t final_agents = 0;
  double wall_ms = 0.0;
  /// Simulated device time if the backend is the GPU offload, else 0.
  double gpu_simulated_ms = 0.0;
  std::string profile;  // OpProfile::ToString()
  /// GPU sanitizer results (cfg.sanitize only): total hazard count and the
  /// compute-sanitizer-style text report.
  uint64_t sanitizer_hazards = 0;
  std::string sanitizer_report;
  /// The versioned machine-readable run report (obs/report.h), serialized.
  /// Always populated; also written to cfg.report_path when set, and printed
  /// verbatim by `biosim_run --json`.
  std::string report_json;
  /// Span count / drop count of the trace session (cfg.trace_path only).
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;
};

/// Build, simulate cfg.steps, write the configured outputs. Throws on
/// config errors; returns the summary on success.
RunSummary ExecuteRun(const RunConfig& cfg);

/// Result of a determinism self-check (docs/determinism.md).
struct DeterminismReport {
  /// All compared runs produced identical per-step state hashes.
  bool deterministic = false;
  /// First step whose hashes diverged (only valid when !deterministic).
  uint64_t first_divergent_step = 0;
  /// Final state hash of the reference run.
  uint64_t final_hash = 0;
  /// Simulated device time of the reference run if the backend is the GPU
  /// offload, else 0.
  double simulated_ms = 0.0;
  /// Number of runs compared (>= 2; includes a forced single-thread run
  /// when the configured thread count is not 1).
  int runs = 0;
};

/// Run cfg's scenario multiple times from scratch — twice at the configured
/// thread count, plus once single-threaded — hashing the full state after
/// every step, and compare the hash sequences bitwise. Outputs configured in
/// cfg are NOT written (the check is side-effect free).
DeterminismReport VerifyDeterminism(const RunConfig& cfg);

}  // namespace biosim::app

#endif  // BIOSIM_APP_RUNNER_H_
