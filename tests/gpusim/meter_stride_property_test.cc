// Property test for warp-sampled metering (Device::SetMeterStride).
//
// Sampling meters every k-th warp and rescales the counters (with the cache
// capacities seen by the sampled stream scaled by 1/k so hit rates stay
// representative). The contract is statistical, not exact: for every stride
// in {1,2,4,8,16} the rescaled counters must stay within a bounded relative
// error of the stride-1 exact counters, across random workloads. The golden
// harness (golden_counters_test.cc) pins stride-1 exactness; this test pins
// the sampling quality the figure benches rely on at --meter-stride 8.
// Sampling picks warps by their (phase, block, warp) index, so a kernel
// whose second barrier phase does the work is sampled in that phase too.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "core/thread_pool.h"
#include "gpusim/device.h"

namespace biosim::gpusim {
namespace {

/// A random mechanics-shaped workload: every lane walks a seeded number of
/// gather reads (divergent trip counts, like per-cell neighbor loops), does
/// some FLOPs per element, and writes one result. `locality` in [0,1] blends
/// neighbor-coherent gathers (coalescing-friendly) into uniform-random ones.
/// `two_phase` puts a light barrier phase (one read per lane) before the
/// gather, so the gather — nearly all the traffic — runs in phase 1.
struct Workload {
  size_t n_threads = 1u << 14;
  size_t block_dim = 128;
  size_t table_size = 1u << 16;
  double locality = 0.5;
  uint64_t seed = 1;
  bool two_phase = false;
};

KernelStats RunWorkload(const Workload& w, int stride) {
  DeviceSpec spec = DeviceSpec::GTX1080Ti();
  spec.l2_capacity_bytes = 256 * 1024;  // working set must exceed the L2
  spec.l1_capacity_bytes = 32 * 1024;
  Device dev(spec);
  dev.SetMeterStride(stride);

  auto table = dev.Alloc<float>(w.table_size);
  auto out = dev.Alloc<float>(w.n_threads);
  for (size_t i = 0; i < w.table_size; ++i) {
    table[i] = static_cast<float>(i % 113);
  }

  // Per-lane trip counts and gather targets, fixed before the launch so
  // every stride sees the same functional workload.
  Random rng(w.seed);
  std::vector<uint32_t> trips(w.n_threads);
  std::vector<uint32_t> targets(w.n_threads);
  for (size_t i = 0; i < w.n_threads; ++i) {
    trips[i] = 4 + static_cast<uint32_t>(rng.UniformInt(24));
    bool local = rng.Uniform(0.0, 1.0) < w.locality;
    targets[i] = local ? static_cast<uint32_t>(i % w.table_size)
                       : static_cast<uint32_t>(rng.UniformInt(w.table_size));
  }

  size_t blocks = (w.n_threads + w.block_dim - 1) / w.block_dim;
  dev.Launch({"random_gather", blocks, w.block_dim}, [&](BlockCtx& blk) {
    if (w.two_phase) {
      blk.for_each_lane([&](Lane& t) {
        if (t.gtid() < w.n_threads) {
          t.ld(table, t.gtid() % w.table_size);
        }
      });
    }
    blk.for_each_lane([&](Lane& t) {
      size_t i = t.gtid();
      if (i >= w.n_threads) {
        return;
      }
      float acc = 0.0f;
      uint32_t base = targets[i];
      for (uint32_t k = 0; k < trips[i]; ++k) {
        acc += t.ld(table, (base + k * 7) % w.table_size);
        t.flops32(2);
      }
      t.st(out, i, acc);
    });
  });
  return dev.history().back();
}

double RelErr(uint64_t sampled, uint64_t exact) {
  if (exact == 0) {
    return sampled == 0 ? 0.0 : 1.0;
  }
  double d = static_cast<double>(sampled) - static_cast<double>(exact);
  return std::abs(d) / static_cast<double>(exact);
}

class MeterStrideProperty : public ::testing::TestWithParam<int> {};

TEST_P(MeterStrideProperty, RescaledCountersTrackExactCounters) {
  const int stride = GetParam();
  const Workload workloads[] = {
      {1u << 14, 128, 1u << 16, 0.9, 11},  // mostly coherent (lattice-like)
      {1u << 14, 128, 1u << 16, 0.5, 22},  // mixed
      {1u << 14, 256, 1u << 17, 0.1, 33},  // mostly scattered (aged layout)
      // 2 phases x 4 warps per block: at stride 8 a launch-wide running
      // warp count would meter phase 0, warp 0 of every block and never
      // phase 1, where the gather runs.
      {1u << 14, 128, 1u << 16, 0.9, 44, /*two_phase=*/true},
      {1u << 14, 128, 1u << 16, 0.1, 55, /*two_phase=*/true},
  };
  for (const Workload& w : workloads) {
    KernelStats exact = RunWorkload(w, 1);
    KernelStats sampled = RunWorkload(w, stride);

    // Issue-side counters (what the lanes requested): the sampled warps are
    // an unbiased 1-in-k systematic sample of a statistically homogeneous
    // stream, so the rescale lands close.
    EXPECT_LT(RelErr(sampled.requested_read_bytes, exact.requested_read_bytes),
              0.10)
        << "stride " << stride << " seed " << w.seed;
    EXPECT_LT(
        RelErr(sampled.requested_write_bytes, exact.requested_write_bytes),
        0.10);
    EXPECT_LT(RelErr(sampled.fp32_flops, exact.fp32_flops), 0.10);
    EXPECT_LT(RelErr(sampled.lane_ops_sum, exact.lane_ops_sum), 0.10);
    EXPECT_LT(RelErr(sampled.warp_ops_slots, exact.warp_ops_slots), 0.10);
    EXPECT_LT(
        RelErr(sampled.read_transactions + sampled.write_transactions,
               exact.read_transactions + exact.write_transactions),
        0.15);

    // Cache-split counters additionally depend on the 1/k-scaled caches
    // keeping the hit rate representative — a modeling approximation. The
    // meaningful property is the *fraction* of traffic served by DRAM (the
    // absolute bytes can be tiny when a workload caches well, making any
    // relative-error bound degenerate), so bound the absolute error of the
    // DRAM share of post-coalescing traffic.
    auto dram_share = [](const KernelStats& s) {
      uint64_t total = s.DramBytes() + s.L2HitBytes() + s.L1HitBytes();
      return total == 0 ? 0.0
                        : static_cast<double>(s.DramBytes()) /
                              static_cast<double>(total);
    };
    EXPECT_NEAR(dram_share(sampled), dram_share(exact), 0.25)
        << "stride " << stride << " seed " << w.seed
        << " sampled dram " << sampled.DramBytes() << "/" << exact.DramBytes();

    // SimdEfficiency is a ratio of two sampled counters; it must stay a
    // valid efficiency and close to the exact one.
    EXPECT_NEAR(sampled.SimdEfficiency(), exact.SimdEfficiency(), 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, MeterStrideProperty,
                         ::testing::Values(2, 4, 8, 16));

TEST(MeterStrideProperty, StrideOneIsExactlyReproducible) {
  Workload w{1u << 13, 128, 1u << 15, 0.5, 7};
  KernelStats a = RunWorkload(w, 1);
  KernelStats b = RunWorkload(w, 1);
  EXPECT_EQ(a.requested_read_bytes, b.requested_read_bytes);
  EXPECT_EQ(a.read_transactions, b.read_transactions);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.l2_read_hit_bytes, b.l2_read_hit_bytes);
  EXPECT_EQ(a.fp32_flops, b.fp32_flops);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
}

/// Every integer counter of a launch, plus its modeled time.
std::vector<double> AllCounters(const KernelStats& s) {
  return {static_cast<double>(s.fp32_flops),
          static_cast<double>(s.fp64_flops),
          static_cast<double>(s.read_transactions),
          static_cast<double>(s.write_transactions),
          static_cast<double>(s.dram_read_bytes),
          static_cast<double>(s.dram_write_bytes),
          static_cast<double>(s.l2_read_hit_bytes),
          static_cast<double>(s.l2_write_hit_bytes),
          static_cast<double>(s.l1_read_hit_bytes),
          static_cast<double>(s.l1_write_hit_bytes),
          static_cast<double>(s.requested_read_bytes),
          static_cast<double>(s.requested_write_bytes),
          static_cast<double>(s.shared_bytes),
          static_cast<double>(s.atomic_ops),
          static_cast<double>(s.atomic_serialized),
          static_cast<double>(s.lane_ops_sum),
          static_cast<double>(s.warp_ops_slots),
          static_cast<double>(s.max_lane_mem_ops),
          s.total_ms};
}

/// A block-independent kernel whose block b runs 1 + b % 3 barrier phases
/// (3 warps per block, the last one partial): gathers, shared-memory
/// traffic and same-address atomics on the block's own slot.
KernelStats RunVariablePhaseKernel(int stride) {
  DeviceSpec spec = DeviceSpec::GTX1080Ti();
  spec.l2_capacity_bytes = 128 * 1024;
  spec.l1_capacity_bytes = 16 * 1024;
  Device dev(spec);
  dev.SetMeterStride(stride);
  constexpr size_t kBlocks = 61;
  constexpr size_t kBlockDim = 80;
  constexpr size_t kTable = 1u << 15;
  auto table = dev.Alloc<float>(kTable);
  auto out = dev.Alloc<float>(kBlocks * kBlockDim);
  auto slots = dev.Alloc<uint32_t>(kBlocks);
  for (size_t i = 0; i < kTable; ++i) {
    table[i] = static_cast<float>(i % 97);
  }
  LaunchConfig cfg{"variable_phases", kBlocks, kBlockDim,
                   /*block_parallel_safe=*/true};
  dev.Launch(cfg, [&](BlockCtx& blk) {
    auto tile = blk.shared<float>(kBlockDim);
    const size_t phases = 1 + blk.block() % 3;
    for (size_t p = 0; p < phases; ++p) {
      blk.for_each_lane([&](Lane& t) {
        const size_t i = t.gtid();
        float acc = p == 0 ? 0.0f : t.shared_ld(tile, t.lane());
        const size_t trips = 1 + (i * 7 + p) % 11;
        for (size_t k = 0; k < trips; ++k) {
          acc += t.ld(table, (i * 131 + k * 977 + p * 31) % kTable);
          t.flops32(2);
        }
        t.shared_st(tile, t.lane(), acc);
        t.atomic_add(slots, blk.block(), 1u);
        t.st(out, i, acc);
      });
    }
  });
  return dev.history().back();
}

TEST(MeterStrideProperty, CountersDoNotDependOnTheWorkerCount) {
  // The blocks run on 1, 2 and 4 host workers; sampling picks warps from
  // (phase, block, warp) alone, so even blocks with different phase counts
  // give the same sampled stream, and the lines replay in block order.
  const uint32_t restore = HardwareThreads();
  for (int stride : {1, 8}) {
    SetNumThreads(1);
    const std::vector<double> one = AllCounters(RunVariablePhaseKernel(stride));
    for (uint32_t workers : {2u, 4u}) {
      SetNumThreads(workers);
      EXPECT_EQ(AllCounters(RunVariablePhaseKernel(stride)), one)
          << "stride " << stride << ", " << workers << " workers";
    }
  }
  SetNumThreads(restore);
}

}  // namespace
}  // namespace biosim::gpusim

