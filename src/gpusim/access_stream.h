// Batched per-warp access streams for the metered SIMT path.
//
// Lanes used to bucket every global access into per-instruction
// vector-of-vectors rebuilt for every warp — one heap round-trip per memory
// instruction plus a gather pass at flush. The batched design appends
// {addr, bytes} records into one flat per-warp buffer (SoA: address and
// byte-count planes) laid out as fixed 32-slot rows keyed by (kind, seq),
// so records land *pre-grouped* in lane order as the lanes run: the
// coalescer + cache accounting consume each row in place with zero sorting
// and zero copying at the instruction-group boundary (WarpTracker::Flush).
// Row iteration order — reads by seq ascending, then writes, then atomics;
// lane order within a row — is exactly the order the memory model consumed
// before, which keeps the counters *byte-identical* across the refactor
// (see tests/gpusim/golden_counters_test.cc for the pinned counters). All
// buffers retain their capacity across warps, so the steady-state hot path
// never allocates.
#ifndef BIOSIM_GPUSIM_ACCESS_STREAM_H_
#define BIOSIM_GPUSIM_ACCESS_STREAM_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "gpusim/kernel_stats.h"

namespace biosim::gpusim {

/// Access kinds in consumption order — do not reorder.
enum class StreamKind : uint8_t { kRead = 0, kWrite = 1, kAtomic = 2 };

/// One warp's metered global accesses, pre-grouped by (kind, seq).
class WarpAccessStream {
 public:
  static constexpr size_t kWarpSize = 32;
  static constexpr size_t kKinds = 3;

  /// Forget the previous warp's records. Only the rows actually used are
  /// reset, so a warp with few memory instructions pays for little.
  void Clear() {
    for (size_t k = 0; k < kKinds; ++k) {
      std::fill(counts_[k].begin(), counts_[k].begin() + used_rows_[k],
                uint8_t{0});
      used_rows_[k] = 0;
    }
  }

  /// Record one lane access. Lanes call in execution order and each lane
  /// visits a given (kind, seq) at most once, so a row holds at most one
  /// record per lane — 32 slots always suffice.
  void Append(StreamKind kind, uint32_t seq, uint64_t addr, uint32_t bytes) {
    const size_t k = static_cast<size_t>(kind);
    if (seq >= counts_[k].size()) [[unlikely]] {
      Grow(k, seq);
    }
    used_rows_[k] = std::max(used_rows_[k], static_cast<size_t>(seq) + 1);
    uint8_t& count = counts_[k][seq];
    assert(count < kWarpSize && "more than one record per lane and seq");
    const size_t slot = static_cast<size_t>(seq) * kWarpSize + count;
    addrs_[k][slot] = addr;
    bytes_[k][slot] = bytes;
    ++count;
  }

  /// Rows in use for a kind (max recorded seq + 1).
  size_t rows(size_t kind) const { return used_rows_[kind]; }
  /// Lane records in row (kind, seq).
  size_t count(size_t kind, size_t seq) const { return counts_[kind][seq]; }
  /// The row's address plane, in lane order. Callers may permute it after
  /// the row has been consumed (the atomic-conflict scan sorts in place).
  uint64_t* addr_row(size_t kind, size_t seq) {
    return addrs_[kind].data() + seq * kWarpSize;
  }
  const uint32_t* bytes_row(size_t kind, size_t seq) const {
    return bytes_[kind].data() + seq * kWarpSize;
  }

 private:
  void Grow(size_t kind, uint32_t seq) {
    const size_t rows = static_cast<size_t>(seq) + 1;
    counts_[kind].resize(rows, 0);
    addrs_[kind].resize(rows * kWarpSize);
    bytes_[kind].resize(rows * kWarpSize);
  }

  std::vector<uint64_t> addrs_[kKinds];  // rows * 32, lane order within row
  std::vector<uint32_t> bytes_[kKinds];
  std::vector<uint8_t> counts_[kKinds];  // records per row
  size_t used_rows_[kKinds] = {};
};

/// Deferred metering output of one chunk (a contiguous block range) of a
/// launch that runs on several chunks (Device::Launch). Blocks coalesce
/// their warp streams in parallel — the integer counters land in `stats`,
/// which is order-independent (pure sums and maxes) — while the order-
/// *dependent* part, the L1/L2 probes, is buffered as packed line
/// transactions and replayed through the shared cache hierarchy strictly in
/// block order. That replay rule is what keeps the counters byte-identical
/// at any worker count.
struct MeterBuffer {
  /// (line_index << 1) | is_write, in the exact order a one-chunk run
  /// would have probed the caches. Global addresses stay below the device's
  /// DRAM size plus 1 MiB, so line indices fit in 31 bits.
  std::vector<uint32_t> line_entries;
  /// Counter-only shard: integer counters accumulated by this block range
  /// (timing fields stay zero; the launch fills them after the merge).
  KernelStats stats;
  /// Per-shard coalescer scratch. The MemoryModel's own scratch vector is
  /// shared state — concurrent chunks must each coalesce into their own
  /// buffer (MemoryModel::CoalesceInto).
  std::vector<uint64_t> coalesce_scratch;
};

}  // namespace biosim::gpusim

#endif  // BIOSIM_GPUSIM_ACCESS_STREAM_H_
