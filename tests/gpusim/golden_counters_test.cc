// Golden-counter regression harness: pins the exact KernelStats integer
// counters the simulator produces for the paper's four kernel generations
// (v0..v3) on a fixed-seed 4k-agent workload.
//
// The source paper's argument rests on counter fidelity — DRAM bytes, L2
// hits, transactions, FLOPs and atomic conflicts are what every figure is
// derived from — so any change to the metered path (coalescer, cache
// simulation, warp accounting) must reproduce these numbers *byte-
// identically*. The goldens in golden_counters.json were recorded before
// the batched access-stream refactor and assert that the refactor (and any
// future one) is counter-exact. The same bytes must come out at 1, 2 and 4
// host workers: the device runs independent launches block-parallel.
//
// Updating the goldens (only when the *model* intentionally changes — never
// to paper over an accidental diff):
//
//   BIOSIM_UPDATE_GOLDENS=1 ./build/tests/gpusim_tests \
//       --gtest_filter=GoldenCountersTest.SerialModeMatchesGoldens
//
// then re-run the suite without the env var and commit the JSON with an
// explanation of why the counters legitimately moved.
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/thread_pool.h"
#include "gpu/gpu_mechanical_op.h"
#include "gpusim/profiler.h"
#include "spatial/null_environment.h"

namespace biosim::gpu {
namespace {

constexpr const char* kGoldenRelPath = "/tests/gpusim/golden_counters.json";
constexpr int kVersions = 4;

/// Counters of one kernel (or the transfer pseudo-kernel), by name. All
/// integers: these must match the goldens exactly, bit for bit.
using CounterMap = std::map<std::string, uint64_t>;
/// kernel name -> counters.
using KernelMap = std::map<std::string, CounterMap>;
/// "v0".."v3" -> kernels.
using GoldenMap = std::map<std::string, KernelMap>;

/// GTX 1080 Ti with the L2 shrunk so the 4k-agent working set exceeds it —
/// the benchmark-A regime (262k+ agents vs 2.75 MB) at a size the suite can
/// meter exactly (stride 1) in milliseconds.
gpusim::DeviceSpec GoldenSpec() {
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::GTX1080Ti();
  spec.l2_capacity_bytes = 64 * 1024;
  spec.l1_capacity_bytes = 16 * 1024;
  return spec;
}

CounterMap Counters(const gpusim::AggregatedKernel& k) {
  return CounterMap{
      {"launches", k.launches},
      {"total_threads", k.total_threads},
      {"fp32_flops", k.fp32_flops},
      {"fp64_flops", k.fp64_flops},
      {"read_transactions", k.read_transactions},
      {"write_transactions", k.write_transactions},
      {"dram_read_bytes", k.dram_read_bytes},
      {"dram_write_bytes", k.dram_write_bytes},
      {"l2_read_hit_bytes", k.l2_read_hit_bytes},
      {"l2_write_hit_bytes", k.l2_write_hit_bytes},
      {"l1_read_hit_bytes", k.l1_read_hit_bytes},
      {"l1_write_hit_bytes", k.l1_write_hit_bytes},
      {"requested_read_bytes", k.requested_read_bytes},
      {"requested_write_bytes", k.requested_write_bytes},
      {"shared_bytes", k.shared_bytes},
      {"atomic_ops", k.atomic_ops},
      {"atomic_serialized", k.atomic_serialized},
      {"lane_ops_sum", k.lane_ops_sum},
      {"warp_ops_slots", k.warp_ops_slots},
      {"max_lane_mem_ops", k.max_lane_mem_ops},
  };
}

/// One step of the version-v pipeline on the fixed-seed 4k-agent workload
/// (16^3 jittered lattice, shuffled into the aged-population layout), with
/// exact metering unless `stride` says otherwise. Returns every launched
/// kernel's aggregated counters plus the host<->device transfer totals.
KernelMap RunVersion(int v, int stride = 1) {
  ResourceManager rm;
  testutil::FillLatticeCells(&rm, 16, 10.0, 10.0, /*jitter=*/1.5,
                             /*seed=*/42);
  testutil::ShuffleAgents(&rm, /*seed=*/99);

  Param param;
  GpuMechanicsOptions opts = GpuMechanicsOptions::Version(v, GoldenSpec());
  opts.meter_stride = stride;
  GpuMechanicalOp op(opts);
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);

  KernelMap out;
  gpusim::ProfileReport report(op.device());
  for (const auto& k : report.kernels()) {
    out[k.name] = Counters(k);
  }
  const gpusim::TransferStats& t = op.device().transfers();
  out["_transfers"] = CounterMap{
      {"h2d_bytes", t.h2d_bytes},
      {"d2h_bytes", t.d2h_bytes},
      {"h2d_count", t.h2d_count},
      {"d2h_count", t.d2h_count},
  };
  return out;
}

/// Versions 0..versions-1 on `workers` host workers: the device runs the
/// blocks of independent launches on that many chunks per wave.
GoldenMap RunAllVersions(uint32_t workers, int stride = 1,
                         int versions = kVersions) {
  const uint32_t restore = HardwareThreads();
  SetNumThreads(workers);
  GoldenMap all;
  for (int v = 0; v < versions; ++v) {
    all["v" + std::to_string(v)] = RunVersion(v, stride);
  }
  SetNumThreads(restore);
  return all;
}

std::string GoldenPath() {
  return std::string(BIOSIM_SOURCE_DIR) + kGoldenRelPath;
}

// --- minimal JSON (de)serialization for the fixed 3-level schema ----------

void WriteGoldens(const GoldenMap& all, const std::string& path) {
  std::ofstream f(path);
  f << "{\n";
  f << "  \"_workload\": \"16^3 lattice spacing 10 diam 10 jitter 1.5 seed "
       "42, shuffled seed 99, 1 step, meter stride 1, L2 64KiB L1 16KiB\",\n";
  size_t vi = 0;
  for (const auto& [version, kernels] : all) {
    f << "  \"" << version << "\": {\n";
    size_t ki = 0;
    for (const auto& [kernel, counters] : kernels) {
      f << "    \"" << kernel << "\": {";
      size_t ci = 0;
      for (const auto& [name, value] : counters) {
        f << "\"" << name << "\": " << value;
        if (++ci < counters.size()) {
          f << ", ";
        }
      }
      f << (++ki < kernels.size() ? "},\n" : "}\n");
    }
    f << (++vi < all.size() ? "  },\n" : "  }\n");
  }
  f << "}\n";
}

/// Parser for the subset written above: nested string-keyed objects whose
/// leaves are unsigned integers; string values (the _workload note) are
/// skipped. Hard-fails the test on malformed input.
class GoldenParser {
 public:
  explicit GoldenParser(std::string text) : text_(std::move(text)) {}

  GoldenMap Parse() {
    GoldenMap all;
    Expect('{');
    while (PeekNonSpace() != '}') {
      std::string version = ParseString();
      Expect(':');
      if (PeekNonSpace() == '"') {
        ParseString();  // metadata note
      } else {
        all[version] = ParseKernels();
      }
      if (PeekNonSpace() == ',') {
        Expect(',');
      }
    }
    Expect('}');
    return all;
  }

 private:
  KernelMap ParseKernels() {
    KernelMap kernels;
    Expect('{');
    while (PeekNonSpace() != '}') {
      std::string kernel = ParseString();
      Expect(':');
      kernels[kernel] = ParseCounters();
      if (PeekNonSpace() == ',') {
        Expect(',');
      }
    }
    Expect('}');
    return kernels;
  }

  CounterMap ParseCounters() {
    CounterMap counters;
    Expect('{');
    while (PeekNonSpace() != '}') {
      std::string name = ParseString();
      Expect(':');
      counters[name] = ParseUint();
      if (PeekNonSpace() == ',') {
        Expect(',');
      }
    }
    Expect('}');
    return counters;
  }

  char PeekNonSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    EXPECT_LT(pos_, text_.size()) << "unexpected end of golden JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void Expect(char c) {
    char got = PeekNonSpace();
    ASSERT_EQ(got, c) << "golden JSON parse error at offset " << pos_;
    ++pos_;
  }

  std::string ParseString() {
    Expect('"');
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      s += text_[pos_++];
    }
    Expect('"');
    return s;
  }

  uint64_t ParseUint() {
    PeekNonSpace();
    uint64_t v = 0;
    bool any = false;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      v = v * 10 + static_cast<uint64_t>(text_[pos_++] - '0');
      any = true;
    }
    EXPECT_TRUE(any) << "expected integer at offset " << pos_;
    return v;
  }

  std::string text_;
  size_t pos_ = 0;
};

GoldenMap LoadGoldens() {
  std::ifstream f(GoldenPath());
  EXPECT_TRUE(f.good()) << "missing golden file " << GoldenPath()
                        << " — record it with BIOSIM_UPDATE_GOLDENS=1";
  std::stringstream ss;
  ss << f.rdbuf();
  return GoldenParser(ss.str()).Parse();
}

/// Byte-identical comparison with a readable per-counter diff.
void ExpectMatchesGoldens(const GoldenMap& got, const GoldenMap& want,
                          const char* mode) {
  ASSERT_EQ(want.size(), static_cast<size_t>(kVersions))
      << "golden file does not cover v0..v3";
  for (const auto& [version, want_kernels] : want) {
    auto vit = got.find(version);
    ASSERT_NE(vit, got.end()) << mode << ": missing version " << version;
    const KernelMap& got_kernels = vit->second;
    EXPECT_EQ(got_kernels.size(), want_kernels.size())
        << mode << " " << version << ": kernel set changed";
    for (const auto& [kernel, want_counters] : want_kernels) {
      auto kit = got_kernels.find(kernel);
      ASSERT_NE(kit, got_kernels.end())
          << mode << " " << version << ": kernel '" << kernel
          << "' no longer launched";
      for (const auto& [name, want_value] : want_counters) {
        auto cit = kit->second.find(name);
        ASSERT_NE(cit, kit->second.end())
            << mode << " " << version << " " << kernel
            << ": counter '" << name << "' missing";
        EXPECT_EQ(cit->second, want_value)
            << mode << " " << version << " kernel '" << kernel
            << "' counter '" << name << "' drifted from the golden";
      }
    }
  }
}

TEST(GoldenCountersTest, SerialModeMatchesGoldens) {
  // One worker: every launch runs on one chunk, in block order.
  GoldenMap got = RunAllVersions(1);
  if (std::getenv("BIOSIM_UPDATE_GOLDENS") != nullptr) {
    WriteGoldens(got, GoldenPath());
    GTEST_SKIP() << "goldens re-recorded at " << GoldenPath();
  }
  ExpectMatchesGoldens(got, LoadGoldens(), "1 worker");
}

TEST(GoldenCountersTest, ParallelBlockModeMatchesGoldens) {
  // Block-parallel execution must be *counter-invisible*: chunks whose
  // lines replay through the caches in block order reproduce the one-chunk
  // counters byte-identically, whatever the worker count.
  if (std::getenv("BIOSIM_UPDATE_GOLDENS") != nullptr) {
    GTEST_SKIP() << "goldens are recorded at one worker";
  }
  ExpectMatchesGoldens(RunAllVersions(2), LoadGoldens(), "2 workers");
  ExpectMatchesGoldens(RunAllVersions(4), LoadGoldens(), "4 workers");
}

TEST(GoldenCountersTest, ParallelAndSerialModesAgreeExactly) {
  // Worker-count comparison that holds even while goldens are being
  // re-recorded: the counters never depend on the host's workers.
  GoldenMap one = RunAllVersions(1);
  GoldenMap four = RunAllVersions(4);
  EXPECT_EQ(one == four, true)
      << "block-parallel metering diverged from one-chunk metering";
}

TEST(GoldenCountersTest, SampledCountersMatchAtEveryWorkerCount) {
  // Stride 8, v0..v4: sampling is block-local, so the sampled counters are
  // as worker-count-free as the exact ones — v4's two barrier phases per
  // block included.
  GoldenMap one = RunAllVersions(1, /*stride=*/8, /*versions=*/5);
  EXPECT_EQ(RunAllVersions(2, 8, 5) == one, true) << "2 workers";
  EXPECT_EQ(RunAllVersions(4, 8, 5) == one, true) << "4 workers";
}

}  // namespace
}  // namespace biosim::gpu
