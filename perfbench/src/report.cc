#include "report.h"

#include <string>

#include "stats.h"

namespace perfbench {

namespace {

std::vector<double> AllSteps(const std::vector<FacadeEpisode>& eps) {
  std::vector<double> ms;
  for (const auto& e : eps) {
    ms.insert(ms.end(), e.step_ms.begin(), e.step_ms.end());
  }
  return ms;
}

std::vector<const StepTrace*> AllSteps(const std::vector<ReplicaEpisode>& eps) {
  std::vector<const StepTrace*> steps;
  for (const auto& e : eps) {
    for (const auto& s : e.steps) {
      steps.push_back(&s);
    }
  }
  return steps;
}

double LayerMedianMs(const std::vector<const StepTrace*>& steps, int layer) {
  std::vector<double> ms;
  for (const StepTrace* s : steps) {
    ms.push_back(s->layers[layer].ns / 1e6);
  }
  return Median(ms);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

std::vector<Metric> EndToEndMetrics(const std::vector<FacadeEpisode>& eps,
                                    const std::vector<double>& setup_s,
                                    double peak_rss_mib) {
  double agent_steps = 0.0;
  double total_ms = 0.0;
  for (const auto& e : eps) {
    for (size_t i = 0; i < e.step_ms.size(); ++i) {
      agent_steps += static_cast<double>(e.agents[i]);
      total_ms += e.step_ms[i];
    }
  }
  const std::vector<double> steps = AllSteps(eps);
  return {
      {"agent_steps_per_s", Ratio(agent_steps, total_ms / 1000.0),
       "agent-steps/s"},
      {"step_ms_p50", Median(steps), "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mib, "MiB"},
  };
}

std::vector<Metric> LayerMetrics(const std::vector<ReplicaEpisode>& traced,
                                 const std::vector<ReplicaEpisode>& traced_t1,
                                 const std::vector<FacadeEpisode>& untraced) {
  const auto steps = AllSteps(traced);
  const auto steps_t1 = AllSteps(traced_t1);
  const double n_steps = static_cast<double>(steps.size());
  const double n_episodes = static_cast<double>(traced.size());
  std::vector<Metric> out;

  double step_ns = 0.0;
  std::vector<double> step_ms;
  for (const StepTrace* s : steps) {
    step_ns += s->step_ns;
    step_ms.push_back(s->step_ns / 1e6);
  }
  for (int l = 0; l < kLayerCount; ++l) {
    double ns = 0.0;
    uint64_t units = 0;
    for (const StepTrace* s : steps) {
      ns += s->layers[l].ns;
      units += s->layers[l].units;
    }
    const std::string name = LayerName(l);
    const double wall = LayerMedianMs(steps, l);
    out.push_back({name + ".wall_ms", wall, "ms"});
    out.push_back({name + ".share", Ratio(ns, step_ns), "fraction"});
    out.push_back({name + ".units", Ratio(static_cast<double>(units), n_steps),
                   "count"});
    out.push_back({name + ".ns_per_unit", NsPerUnit(ns, units), "ns"});
    out.push_back({name + ".speedup_t1",
                   Ratio(LayerMedianMs(steps_t1, l), wall), "ratio"});
  }

  // Counters: grid outcomes over one episode's timed steps; halo, diffusion
  // and gpusim figures per step.
  uint64_t full = 0, incremental = 0, rebinned = 0, boxes = 0;
  uint64_t messages = 0, bytes = 0, diffusion_bytes = 0, dropped = 0;
  double zorder = 0, h2d = 0, kernels = 0, d2h = 0;
  uint64_t dram = 0, dram_read = 0, l2_hit = 0, lane_ops = 0, warp_slots = 0;
  uint64_t h2d_bytes = 0, d2h_bytes = 0;
  for (const StepTrace* s : steps) {
    full += s->grid_full_rebuilds;
    incremental += s->grid_incremental_updates;
    rebinned += s->grid_rebinned_agents;
    boxes = s->grid_total_boxes;
    messages += s->halo_messages;
    bytes += s->halo_bytes;
    diffusion_bytes += s->diffusion_bytes_computed;
    dropped += s->dropped_deposits;
    zorder += s->gpu_zorder_ms;
    h2d += s->gpu_h2d_ms;
    kernels += s->gpu_kernels_ms;
    d2h += s->gpu_d2h_ms;
    dram += s->gpu_dram_bytes;
    dram_read += s->gpu_dram_read_bytes;
    l2_hit += s->gpu_l2_read_hit_bytes;
    lane_ops += s->gpu_lane_ops;
    warp_slots += s->gpu_warp_slots;
    h2d_bytes += s->gpu_h2d_bytes;
    d2h_bytes += s->gpu_d2h_bytes;
  }
  auto per_episode = [&](uint64_t v) {
    return Ratio(static_cast<double>(v), n_episodes);
  };
  auto per_step = [&](double v) { return Ratio(v, n_steps); };
  auto u = [](uint64_t v) { return static_cast<double>(v); };
  out.push_back({"spatial.grid_update.full_rebuilds", per_episode(full),
                 "count"});
  out.push_back({"spatial.grid_update.incremental_updates",
                 per_episode(incremental), "count"});
  out.push_back({"spatial.grid_update.rebinned_agents", per_episode(rebinned),
                 "count"});
  out.push_back({"spatial.grid_update.total_boxes", u(boxes), "count"});
  out.push_back({"spatial.grid_update.incremental_hit_rate",
                 Ratio(u(incremental), u(incremental + full)), "fraction"});
  out.push_back({"core.shard_halo.messages", per_step(u(messages)), "count"});
  out.push_back({"core.shard_halo.bytes", per_step(u(bytes)), "bytes"});
  out.push_back({"diffusion.step.bytes_computed", per_step(u(diffusion_bytes)),
                 "bytes_computed"});
  out.push_back({"diffusion.dropped_deposits", per_episode(dropped), "count"});
  out.push_back({"gpusim.zorder.ms", per_step(zorder), "ms_modeled"});
  out.push_back({"gpusim.h2d.ms", per_step(h2d), "ms_modeled"});
  out.push_back({"gpusim.kernels.ms", per_step(kernels), "ms_modeled"});
  out.push_back({"gpusim.d2h.ms", per_step(d2h), "ms_modeled"});
  out.push_back({"gpusim.ms_per_step", per_step(zorder + h2d + kernels + d2h),
                 "ms_modeled"});
  out.push_back({"gpusim.dram_bytes", per_step(u(dram)), "bytes_modeled"});
  out.push_back({"gpusim.l2_read_hit_fraction",
                 Ratio(u(l2_hit), u(l2_hit + dram_read)), "frac_modeled"});
  out.push_back({"gpusim.simd_efficiency", Ratio(u(lane_ops), u(warp_slots)),
                 "frac_modeled"});
  out.push_back({"gpusim.h2d_bytes", per_step(u(h2d_bytes)), "bytes_modeled"});
  out.push_back({"gpusim.d2h_bytes", per_step(u(d2h_bytes)), "bytes_modeled"});

  const double traced_p50 = Median(step_ms);
  const double untraced_p50 = Median(AllSteps(untraced));
  out.push_back({"obs.step_ms_p50_traced", traced_p50, "ms"});
  out.push_back({"obs.step_ms_p50_untraced", untraced_p50, "ms"});
  out.push_back({"obs.trace_overhead",
                 untraced_p50 == 0.0 ? 0.0 : traced_p50 / untraced_p50 - 1.0,
                 "fraction"});
  return out;
}

}  // namespace perfbench
