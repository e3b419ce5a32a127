#include "app/config.h"

#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

namespace biosim::app {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

[[noreturn]] void Fail(size_t line, const std::string& what) {
  throw std::runtime_error("config line " + std::to_string(line) + ": " +
                           what);
}

}  // namespace

double ToDouble(const std::string& v) {
  char* end = nullptr;
  double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    throw std::invalid_argument("expected a number, got '" + v + "'");
  }
  return d;
}

uint64_t ToU64(const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  // 2^64 is exactly representable; anything at or past it would overflow
  // the cast below.
  if (end == v.c_str() || *end != '\0' ||
      !(d >= 0.0 && d < 18446744073709551616.0) ||
      d != static_cast<double>(static_cast<uint64_t>(d))) {
    throw std::invalid_argument("expected a non-negative integer, got '" + v +
                                "'");
  }
  return static_cast<uint64_t>(d);
}

uint32_t ToU32(const std::string& v) {
  const uint64_t u = ToU64(v);
  if (u > std::numeric_limits<uint32_t>::max()) {
    throw std::invalid_argument("expected an integer <= 4294967295, got '" +
                                v + "'");
  }
  return static_cast<uint32_t>(u);
}

bool ToBool(const std::string& v) {
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw std::invalid_argument("expected a boolean (true/false), got '" + v +
                              "'");
}

void RunConfig::Validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("config: " + what);
  };
  if (model_type != "cell_division" && model_type != "random_cloud") {
    fail("model type must be cell_division or random_cloud, got '" +
         model_type + "'");
  }
  if (boundary != "clamp" && boundary != "torus" && boundary != "open") {
    fail("boundary must be clamp, torus or open, got '" + boundary + "'");
  }
  if (boundary == "torus" && backend_type == "gpu") {
    fail("torus boundaries are CPU-only (the GPU kernels implement the "
         "paper's clamped space)");
  }
  if (backend_type != "cpu" && backend_type != "gpu") {
    fail("backend type must be cpu or gpu, got '" + backend_type + "'");
  }
  if (zorder_every > 0 && backend_type == "gpu") {
    fail("zorder_every is a CPU-path knob (GPU versions 2+ already Z-order "
         "sort on the device)");
  }
  if (substance_resolution == 1) {
    fail("substance_resolution must be 0 (no substance) or >= 2");
  }
  if (substance_diffusion < 0.0 || substance_decay < 0.0) {
    fail("substance_diffusion and substance_decay must be non-negative");
  }
  if (secretion_rate != 0.0 && substance_resolution == 0) {
    fail("secretion_rate needs a substance grid (set substance_resolution)");
  }
  if (shard_balance != "static" && shard_balance != "adaptive") {
    fail("shard_balance must be static or adaptive, got '" + shard_balance +
         "'");
  }
  if (shards > 0 && backend_type == "gpu") {
    fail("shards is a CPU-pipeline knob (the GPU backend owns the whole "
         "domain)");
  }
  if (precision != "fp64" && precision != "fp32") {
    fail("precision must be fp64 or fp32, got '" + precision + "'");
  }
  if (precision == "fp32" && backend_type == "gpu") {
    fail("precision is a CPU force-kernel knob (the GPU ladder has its own "
         "FP32 versions)");
  }
  if (gpu_device != "1080ti" && gpu_device != "v100") {
    fail("gpu device must be 1080ti or v100, got '" + gpu_device + "'");
  }
  if (gpu_version < 0 || gpu_version > 4) {
    fail("gpu version must be in 0..4");
  }
  if (meter_stride < 1) {
    fail("meter_stride must be >= 1");
  }
  if (sanitize && backend_type != "gpu") {
    fail("sanitize requires backend type gpu (the sanitizer observes the "
         "simulated device)");
  }
  if (racy_grid_build && backend_type != "gpu") {
    fail("racy_grid_build requires backend type gpu (it swaps a device "
         "kernel)");
  }
  if (!(timestep > 0.0)) {
    fail("timestep must be positive");
  }
  if (!(max_bound > 0.0)) {
    fail("max_bound must be positive");
  }
  if (!(diameter > 0.0) || !(divide_threshold > 0.0)) {
    fail("diameters must be positive");
  }
  if (!(density > 0.0)) {
    fail("density must be positive");
  }
  if (cells_per_dim == 0 && model_type == "cell_division") {
    fail("cells_per_dim must be >= 1");
  }
  if (metrics_every == 0) {
    fail("metrics_every must be >= 1");
  }
  if (flight_recorder_depth == 0) {
    fail("flight_recorder_depth must be >= 1");
  }
  if (progress_seconds < 0.0) {
    fail("progress must be >= 0 seconds");
  }
}

RunConfig ParseConfigString(const std::string& text) {
  RunConfig cfg;

  // section -> key -> setter
  using Setter = std::function<void(const std::string&)>;
  std::map<std::string, std::map<std::string, Setter>> schema;
  schema["simulation"] = {
      {"steps", [&](const std::string& v) { cfg.steps = ToU64(v); }},
      {"seed", [&](const std::string& v) { cfg.seed = ToU64(v); }},
      {"max_bound",
       [&](const std::string& v) { cfg.max_bound = ToDouble(v); }},
      {"timestep",
       [&](const std::string& v) { cfg.timestep = ToDouble(v); }},
      {"max_displacement",
       [&](const std::string& v) {
         cfg.max_displacement = ToDouble(v);
       }},
      {"boundary",
       [&](const std::string& v) { cfg.boundary = v; }},
      {"threads",
       [&](const std::string& v) {
         cfg.num_threads = ToU32(v);
       }},
      {"precision",
       [&](const std::string& v) { cfg.precision = v; }},
      {"zorder_every",
       [&](const std::string& v) {
         cfg.zorder_every = ToU64(v);
       }},
      {"shards",
       [&](const std::string& v) {
         cfg.shards = ToU32(v);
       }},
      {"shard_balance",
       [&](const std::string& v) { cfg.shard_balance = v; }},
  };
  schema["model"] = {
      {"type", [&](const std::string& v) { cfg.model_type = v; }},
      {"cells_per_dim",
       [&](const std::string& v) {
         cfg.cells_per_dim = static_cast<size_t>(ToU64(v));
       }},
      {"agents",
       [&](const std::string& v) {
         cfg.agents = static_cast<size_t>(ToU64(v));
       }},
      {"density",
       [&](const std::string& v) { cfg.density = ToDouble(v); }},
      {"diameter",
       [&](const std::string& v) { cfg.diameter = ToDouble(v); }},
      {"divide_threshold",
       [&](const std::string& v) {
         cfg.divide_threshold = ToDouble(v);
       }},
      {"growth_rate",
       [&](const std::string& v) {
         cfg.growth_rate = ToDouble(v);
       }},
      {"substance_resolution",
       [&](const std::string& v) {
         cfg.substance_resolution = static_cast<size_t>(ToU64(v));
       }},
      {"substance_diffusion",
       [&](const std::string& v) {
         cfg.substance_diffusion = ToDouble(v);
       }},
      {"substance_decay",
       [&](const std::string& v) {
         cfg.substance_decay = ToDouble(v);
       }},
      {"secretion_rate",
       [&](const std::string& v) {
         cfg.secretion_rate = ToDouble(v);
       }},
  };
  schema["backend"] = {
      {"type", [&](const std::string& v) { cfg.backend_type = v; }},
      {"gpu_version",
       [&](const std::string& v) {
         cfg.gpu_version = static_cast<int>(ToU64(v));
       }},
      {"gpu_device", [&](const std::string& v) { cfg.gpu_device = v; }},
      {"meter_stride",
       [&](const std::string& v) {
         cfg.meter_stride = static_cast<int>(ToU64(v));
       }},
      {"sanitize",
       [&](const std::string& v) { cfg.sanitize = ToBool(v); }},
      {"racy_grid_build",
       [&](const std::string& v) {
         cfg.racy_grid_build = ToBool(v);
       }},
  };
  schema["output"] = {
      {"timeseries",
       [&](const std::string& v) { cfg.timeseries_path = v; }},
      {"vtk", [&](const std::string& v) { cfg.vtk_path = v; }},
      {"csv", [&](const std::string& v) { cfg.csv_path = v; }},
      {"checkpoint",
       [&](const std::string& v) { cfg.checkpoint_path = v; }},
      {"trace", [&](const std::string& v) { cfg.trace_path = v; }},
      {"metrics", [&](const std::string& v) { cfg.metrics_path = v; }},
      {"metrics_every",
       [&](const std::string& v) { cfg.metrics_every = ToU64(v); }},
      {"report", [&](const std::string& v) { cfg.report_path = v; }},
      {"perf_counters",
       [&](const std::string& v) {
         cfg.perf_counters = ToBool(v);
       }},
      {"flight_recorder",
       [&](const std::string& v) { cfg.flight_recorder_path = v; }},
      {"flight_recorder_depth",
       [&](const std::string& v) {
         cfg.flight_recorder_depth = ToU64(v);
       }},
      {"progress",
       [&](const std::string& v) {
         cfg.progress_seconds = ToDouble(v);
       }},
  };

  std::istringstream in(text);
  std::string raw;
  std::string section;
  size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = Trim(raw);
    // Strip trailing comments.
    size_t comment = line.find_first_of(";#");
    if (comment != std::string::npos) {
      line = Trim(line.substr(0, comment));
    }
    if (line.empty()) {
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']') {
        Fail(line_no, "unterminated section header");
      }
      section = Trim(line.substr(1, line.size() - 2));
      if (schema.find(section) == schema.end()) {
        Fail(line_no, "unknown section [" + section + "]");
      }
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      Fail(line_no, "expected key = value");
    }
    if (section.empty()) {
      Fail(line_no, "key outside any section");
    }
    std::string key = Trim(line.substr(0, eq));
    std::string value = Trim(line.substr(eq + 1));
    auto& keys = schema[section];
    auto it = keys.find(key);
    if (it == keys.end()) {
      Fail(line_no, "unknown key '" + key + "' in [" + section + "]");
    }
    try {
      it->second(value);
    } catch (const std::invalid_argument& e) {
      Fail(line_no, e.what());
    }
  }

  cfg.Validate();
  return cfg;
}

RunConfig ParseConfigFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open config file: " + path);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseConfigString(ss.str());
}

}  // namespace biosim::app
