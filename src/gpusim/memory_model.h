// Global-memory traffic model: per-warp coalescing in front of a simulated
// L2 in front of DRAM byte counters.
//
// The SIMT engine hands this model the addresses each warp accesses per
// memory instruction. Addresses are merged into cache-line transactions
// (the coalescer), each transaction probes the L2, and misses count as DRAM
// traffic. This chain is what makes the paper's improvements measurable:
// FP32 halves the requested bytes, Z-order sorting makes warp-neighbor
// addresses share lines (fewer transactions) and repeat lines across warps
// (more L2 hits).
#ifndef BIOSIM_GPUSIM_MEMORY_MODEL_H_
#define BIOSIM_GPUSIM_MEMORY_MODEL_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "gpusim/device_spec.h"
#include "gpusim/kernel_stats.h"
#include "gpusim/l2_cache.h"

namespace biosim::gpusim {

/// One lane's access within a memory instruction.
struct LaneAccess {
  uint64_t addr;
  uint32_t bytes;
};

class MemoryModel {
 public:
  explicit MemoryModel(const DeviceSpec& spec)
      : line_bytes_(static_cast<uint64_t>(spec.l2_line_bytes)),
        line_shift_(LineShift(line_bytes_)),
        l1_(spec.l1_capacity_bytes, spec.l2_line_bytes, spec.l1_associativity),
        l2_(spec.l2_capacity_bytes, spec.l2_line_bytes, spec.l2_associativity) {}

  /// Process one warp-wide memory instruction: coalesce the lane accesses
  /// into line transactions and run them through the L2. Counters land in
  /// `stats` (unscaled; the engine scales for sampling at the end).
  void AccessWarp(const std::vector<LaneAccess>& accesses, bool write,
                  KernelStats* stats) {
    AccessWarp(accesses.data(), accesses.size(), write, stats);
  }
  void AccessWarp(const LaneAccess* accesses, size_t n, bool write,
                  KernelStats* stats) {
    const std::vector<uint64_t>& lines = Coalesce(accesses, n, write, stats);
    ProbeLines(lines.data(), lines.size(), write, stats);
  }

  /// Coalescer half of AccessWarp: merge the lane accesses of one warp
  /// instruction into unique line transactions, accounting the requested
  /// bytes and transaction count. Returns the line indices (a reference to
  /// internal scratch — valid until the next Coalesce call). The caller
  /// either probes them immediately (ProbeLines) or buffers them for an
  /// in-order replay (a launch on several chunks).
  const std::vector<uint64_t>& Coalesce(const LaneAccess* accesses, size_t n,
                                        bool write, KernelStats* stats) {
    CoalesceImpl(
        &lines_, n, [accesses](size_t i) { return accesses[i].addr; },
        [accesses](size_t i) { return accesses[i].bytes; }, write, stats);
    return lines_;
  }
  /// Same, over the access stream's SoA planes (access_stream.h).
  const std::vector<uint64_t>& Coalesce(const uint64_t* addrs,
                                        const uint32_t* bytes, size_t n,
                                        bool write, KernelStats* stats) {
    CoalesceImpl(
        &lines_, n, [addrs](size_t i) { return addrs[i]; },
        [bytes](size_t i) { return bytes[i]; }, write, stats);
    return lines_;
  }
  /// Coalesce into caller-owned scratch. The coalescer is pure apart from
  /// its output vector, so threads sharing one MemoryModel may run it
  /// concurrently as long as each brings its own scratch — the
  /// chunks of a launch do (MeterBuffer::coalesce_scratch). The member
  /// scratch stays reserved for one-chunk launches.
  void CoalesceInto(std::vector<uint64_t>* out, const uint64_t* addrs,
                    const uint32_t* bytes, size_t n, bool write,
                    KernelStats* stats) const {
    CoalesceImpl(
        out, n, [addrs](size_t i) { return addrs[i]; },
        [bytes](size_t i) { return bytes[i]; }, write, stats);
  }

  /// Cache half of AccessWarp: run line transactions through L1 then L2,
  /// attributing each line's bytes to its service level. Order-dependent
  /// (the caches are stateful LRU) — callers must present transactions in
  /// program order.
  void ProbeLines(const uint64_t* lines, size_t n, bool write,
                  KernelStats* stats) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t line = lines[i];
      uint64_t bytes = line_bytes_;
      // L1 first (per-SM cache; the block-sequential execution order makes
      // one L1 a faithful stand-in for each SM's view of its blocks).
      if (l1_.Access(line * line_bytes_)) {
        (write ? stats->l1_write_hit_bytes : stats->l1_read_hit_bytes) += bytes;
        continue;
      }
      bool hit = l2_.Access(line * line_bytes_);
      if (write) {
        (hit ? stats->l2_write_hit_bytes : stats->dram_write_bytes) += bytes;
      } else {
        (hit ? stats->l2_read_hit_bytes : stats->dram_read_bytes) += bytes;
      }
    }
  }

  /// Cold caches (between kernels of different benchmarks; within one
  /// simulation step the L2 legitimately stays warm across kernels).
  void ResetCache() {
    l1_.Reset();
    l2_.Reset();
  }

 private:
  template <typename AddrAt, typename BytesAt>
  void CoalesceImpl(std::vector<uint64_t>* out, size_t n, AddrAt addr_at,
                    BytesAt bytes_at, bool write, KernelStats* stats) const {
    std::vector<uint64_t>& lines = *out;
    uint64_t requested = 0;
    lines.clear();
    bool sorted = true;
    uint64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t addr = addr_at(i);
      const uint32_t bytes = bytes_at(i);
      requested += bytes;
      // Lines are a power of two wide; the shift keeps this per-access
      // hot loop free of hardware divisions.
      uint64_t first = addr >> line_shift_;
      uint64_t last = (addr + bytes - 1) >> line_shift_;
      for (uint64_t line = first; line <= last; ++line) {
        // Lanes usually touch consecutive addresses (that is the point of
        // coalescing), so the expanded line list is almost always already
        // non-decreasing — dedup adjacent runs on the fly and keep the sort
        // for the scattered case only. Output is identical: sorted unique.
        if (line == prev && !lines.empty()) {
          continue;
        }
        sorted &= lines.empty() || line > prev;
        lines.push_back(line);
        prev = line;
      }
    }
    if (!sorted) {
      std::sort(lines.begin(), lines.end());
      lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    }

    if (write) {
      stats->requested_write_bytes += requested;
      stats->write_transactions += lines.size();
    } else {
      stats->requested_read_bytes += requested;
      stats->read_transactions += lines.size();
    }
  }

  static int LineShift(uint64_t line_bytes) {
    assert(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0 &&
           "cache line size must be a power of two");
    int shift = 0;
    while ((uint64_t{1} << shift) < line_bytes) {
      ++shift;
    }
    return shift;
  }

  uint64_t line_bytes_;
  int line_shift_;
  L2Cache l1_;  // same structure, per-SM capacity
  L2Cache l2_;
  std::vector<uint64_t> lines_;  // scratch, reused across calls
};

}  // namespace biosim::gpusim

#endif  // BIOSIM_GPUSIM_MEMORY_MODEL_H_
