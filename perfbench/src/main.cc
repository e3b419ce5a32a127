// perfbench: the repo benchmark's measuring program (perfbench/run.py
// builds and drives it).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--record PATH] [--expect-hash HEX]
//   perfbench --list-metrics
//
// --trace 0 times façade episodes (Simulate(1) per step) for S seconds and
// reports the end-to-end metrics. --trace 1 runs untraced façade episodes,
// then the traced replica at T workers and at one worker, and reports the
// per-layer metrics. Both check the outputs; the last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "host.h"
#include "obs/json.h"
#include "report.h"
#include "runner.h"
#include "stats.h"
#include "workloads.h"

namespace {

using perfbench::FacadeEpisode;
using perfbench::Metric;
using perfbench::ReplicaEpisode;
using perfbench::WorkloadConfig;
namespace json = biosim::obs::json;
using Clock = std::chrono::steady_clock;

// Enough episodes for a median set-up time.
constexpr size_t kMinEpisodes = 3;
// Set-up is short and an episode samples it once; this many set-ups alone
// follow each episode, so the median of setup_s draws on more samples
// spread over the run's phases of host load.
constexpr size_t kExtraSetups = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string record;
  std::string expect_hash;
  bool list_metrics = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--record PATH] [--expect-hash HEX] "
               "| --list-metrics\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (flag == "--record") {
      a.record = value();
    } else if (flag == "--expect-hash") {
      a.expect_hash = value();
    } else if (flag == "--list-metrics") {
      a.list_metrics = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.list_metrics && !have_workload) {
    Usage("--workload is required");
  }
  if (a.trace != 0 && a.trace != 1) {
    Usage("--trace must be 0 or 1");
  }
  if (!(a.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return a;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Named pass/fail output checks; error_rate = failed / attempted.
class Checks {
 public:
  void Add(const std::string& name, bool ok) { list_.emplace_back(name, ok); }
  size_t attempted() const { return list_.size(); }
  double error_rate() const {
    return static_cast<double>(failed()) /
           static_cast<double>(std::max<size_t>(1, attempted()));
  }
  size_t failed() const {
    size_t n = 0;
    for (const auto& c : list_) {
      n += c.second ? 0 : 1;
    }
    return n;
  }
  json::Value ToJson() const {
    json::Value arr = json::Value::MakeArray();
    for (const auto& [name, ok] : list_) {
      json::Value c = json::Value::MakeObject();
      c.Set("check", name);
      c.Set("ok", ok);
      arr.Append(std::move(c));
    }
    return arr;
  }

 private:
  std::vector<std::pair<std::string, bool>> list_;
};

struct Outcome {
  std::vector<Metric> metrics;
  /// Printed and recorded beside `metrics`, but not in the result line.
  std::vector<Metric> reported;
  json::Value details = json::Value::MakeObject();
};

// The checks every façade episode owes: positions, the pinned final hash,
// agreement with the run's first episode, and (GPU) a visible kernel output.
void CheckFacade(const Args& args, const WorkloadConfig& cfg,
                 const FacadeEpisode& e, const FacadeEpisode& first,
                 Checks& checks) {
  checks.Add("positions_finite_in_cube", e.positions_ok);
  if (!args.expect_hash.empty()) {
    checks.Add("final_hash_pinned", Hex(e.final_hash) == args.expect_hash);
  }
  if (&e != &first) {
    checks.Add("episodes_agree", e.final_hash == first.final_hash);
  }
  if (cfg.kind == perfbench::Kind::kGpuCloud) {
    checks.Add("gpu_output_reached_state",
               e.final_positions != e.initial_positions);
  }
}

Outcome RunUntraced(const Args& args, const WorkloadConfig& cfg,
                    uint32_t threads, Checks& checks) {
  Outcome out;
  const bool sparse = cfg.kind == perfbench::Kind::kSparseWalk;
  std::vector<FacadeEpisode> eps;
  std::vector<double> setups;
  WorkloadConfig setup_only = cfg;
  setup_only.timed_steps = 0;
  double rss = 0.0;
  const auto start = Clock::now();
  while (eps.size() < kMinEpisodes || SecondsSince(start) < args.seconds) {
    eps.push_back(perfbench::RunFacade(cfg, args.seed, threads,
                                       /*record_hashes=*/sparse &&
                                           eps.empty()));
    CheckFacade(args, cfg, eps.back(), eps.front(), checks);
    if (eps.size() == 1) {
      // The footprint of one run in a fresh process. Later episodes reuse
      // a heap the allocator has already grown, and their high-water mark
      // varies by tens of MiB from run to run.
      rss = perfbench::PeakRssMiB();
    }
    setups.push_back(eps.back().setup_s);
    for (size_t k = 0; k < kExtraSetups; ++k) {
      setups.push_back(
          perfbench::RunFacade(setup_only, args.seed, threads, false).setup_s);
    }
  }
  out.metrics = perfbench::EndToEndMetrics(eps, setups, rss);

  if (sparse) {
    // sparse_walk and sparse_walk_sharded owe the same StateHash at every
    // step: run the other one of the pair once and compare.
    WorkloadConfig other = cfg;
    other.num_shards = cfg.num_shards == 0 ? 4 : 0;
    const FacadeEpisode companion =
        perfbench::RunFacade(other, args.seed, threads, true);
    checks.Add("sharded_equals_unsharded_every_step",
               companion.hashes == eps.front().hashes);
  }

  std::vector<double> steps;
  uint64_t dropped = 0;
  double gpu_ms = 0.0;
  for (const auto& e : eps) {
    steps.insert(steps.end(), e.step_ms.begin(), e.step_ms.end());
    dropped += e.dropped_deposits;
    gpu_ms += e.gpu_sim_ms;
  }
  // Reported, not gated: the tail of a short step measures the host's
  // preemptions more than the program (perfbench/spec.json).
  const perfbench::Tail tail = perfbench::TailPercentile(steps);
  out.reported.push_back({"step_ms_tail", tail.value, "ms"});
  out.details.Set("episodes", static_cast<uint64_t>(eps.size()));
  out.details.Set("setup_samples", static_cast<uint64_t>(setups.size()));
  json::Value per_episode = json::Value::MakeArray();
  for (const auto& e : eps) {
    per_episode.Append(perfbench::Median(e.step_ms));
  }
  out.details.Set("episode_step_ms_p50", std::move(per_episode));
  out.details.Set("timed_steps", static_cast<uint64_t>(steps.size()));
  out.details.Set("step_ms_tail", tail.value);
  out.details.Set("step_ms_tail_percentile", tail.percentile);
  out.details.Set("step_ms_tail_samples", static_cast<uint64_t>(tail.samples));
  out.details.Set("final_hash", Hex(eps.front().final_hash));
  out.details.Set("initial_agents", static_cast<uint64_t>(cfg.agents));
  out.details.Set("final_agents", eps.front().final_agents);
  // Over each episode's timed steps, as the traced run counts it.
  out.details.Set("diffusion.dropped_deposits",
                  static_cast<double>(dropped) / static_cast<double>(eps.size()));
  if (cfg.kind == perfbench::Kind::kGpuCloud) {
    // Modeled by gpusim, never comparable with host time.
    const double modeled = gpu_ms / static_cast<double>(steps.size());
    out.reported.push_back({"gpu_sim_ms_per_step", modeled, "ms_modeled"});
    out.details.Set("gpu_sim_ms_per_step_modeled", modeled);
  }
  return out;
}

Outcome RunTraced(const Args& args, const WorkloadConfig& cfg,
                  uint32_t threads, Checks& checks) {
  Outcome out;
  const auto start = Clock::now();
  // Untraced and traced episodes at `threads` workers alternate for two
  // thirds of the time, so both sample the same phases of host load; then
  // one traced episode runs at a single worker.
  std::vector<FacadeEpisode> untraced;
  std::vector<ReplicaEpisode> traced;
  auto check_replica = [&](const ReplicaEpisode& e) {
    checks.Add("replica_equals_facade_every_step",
               e.hashes == untraced.front().hashes);
    checks.Add("positions_finite_in_cube", e.positions_ok);
  };
  while (traced.empty() || SecondsSince(start) < 2.0 * args.seconds / 3.0) {
    untraced.push_back(perfbench::RunFacade(cfg, args.seed, threads, true));
    CheckFacade(args, cfg, untraced.back(), untraced.front(), checks);
    traced.push_back(perfbench::RunReplica(cfg, args.seed, threads));
    check_replica(traced.back());
  }
  std::vector<ReplicaEpisode> traced_t1;
  traced_t1.push_back(perfbench::RunReplica(cfg, args.seed, 1));
  check_replica(traced_t1.back());

  out.metrics = perfbench::LayerMetrics(traced, traced_t1, untraced);
  out.details.Set("untraced_episodes", static_cast<uint64_t>(untraced.size()));
  out.details.Set("traced_episodes", static_cast<uint64_t>(traced.size()));
  out.details.Set("final_hash", Hex(untraced.front().final_hash));
  return out;
}

json::Value MetricsJson(const std::vector<Metric>& metrics) {
  json::Value m = json::Value::MakeObject();
  for (const Metric& x : metrics) {
    json::Value v = json::Value::MakeObject();
    v.Set("value", x.value);
    v.Set("unit", x.unit);
    m.Set(x.name, std::move(v));
  }
  return m;
}

json::Value Result(const Checks& checks, const std::vector<Metric>& metrics) {
  json::Value r = json::Value::MakeObject();
  r.Set("correct", checks.failed() == 0);
  r.Set("attempted", static_cast<uint64_t>(checks.attempted()));
  r.Set("failed", static_cast<uint64_t>(checks.failed()));
  r.Set("metrics", MetricsJson(metrics));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.list_metrics) {
    for (const Metric& m : perfbench::EndToEndMetrics({}, {}, 0.0)) {
      std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    for (const Metric& m : perfbench::LayerMetrics({}, {}, {})) {
      std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    return 0;
  }
  const uint32_t threads = perfbench::DefaultWorkers();
  const perfbench::HostKey host = perfbench::CurrentHost(threads);

  Checks checks;
  Outcome outcome;
  int status = 0;
  try {
    const WorkloadConfig cfg = perfbench::FullSize(args.workload);
    outcome = args.trace == 1 ? RunTraced(args, cfg, threads, checks)
                              : RunUntraced(args, cfg, threads, checks);
  } catch (const std::exception& e) {
    // A run that throws fails every check it owed, at least one.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    Checks failed;
    for (size_t i = 0; i < std::max<size_t>(1, checks.attempted()); ++i) {
      failed.Add("run_completed", false);
    }
    checks = failed;
    status = 1;
  }

  for (const auto* list : {&outcome.metrics, &outcome.reported}) {
    for (const Metric& m : *list) {
      std::printf("%-44s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("%-44s %18.6f fraction\n", "error_rate", checks.error_rate());
  std::printf("checks: %zu attempted, %zu failed\n", checks.attempted(),
              checks.failed());

  if (!args.record.empty()) {
    json::Value rec = json::Value::MakeObject();
    rec.Set("workload", args.workload);
    rec.Set("seed", args.seed);
    rec.Set("trace", args.trace);
    rec.Set("seconds", args.seconds);
    json::Value key = json::Value::MakeObject();
    key.Set("worker_threads", host.worker_threads);
    key.Set("hardware_threads", host.hardware_threads);
    key.Set("cpu_model", host.cpu_model);
    key.Set("compiler", host.compiler);
    key.Set("build_type", host.build_type);
    rec.Set("key", std::move(key));
    rec.Set("error_rate", checks.error_rate());
    rec.Set("checks", checks.ToJson());
    rec.Set("details", outcome.details);
    rec.Set("result", Result(checks, outcome.metrics));
    rec.Set("reported", MetricsJson(outcome.reported));
    std::ofstream f(args.record);
    f << rec.Dump(2) << "\n";
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.record.c_str());
    }
  }
  std::printf("%s\n", Result(checks, outcome.metrics).Dump().c_str());
  return status;
}
