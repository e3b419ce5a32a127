#include "gpusim/device.h"

#include <algorithm>

#include "core/thread_pool.h"

namespace biosim::gpusim {

void WarpTracker::ConsumeGroup(MemoryModel* mem, KernelStats* stats,
                               MeterBuffer* defer, bool write,
                               const uint64_t* addrs, const uint32_t* bytes,
                               size_t n) {
  if (defer == nullptr) {
    const std::vector<uint64_t>& lines =
        mem->Coalesce(addrs, bytes, n, write, stats);
    mem->ProbeLines(lines.data(), lines.size(), write, stats);
  } else {
    // Deferred path: chunks run concurrently against one MemoryModel, so
    // coalesce into the chunk's own scratch — the member scratch inside
    // Coalesce() is shared state.
    mem->CoalesceInto(&defer->coalesce_scratch, addrs, bytes, n, write,
                      stats);
    for (uint64_t line : defer->coalesce_scratch) {
      assert(line < (uint64_t{1} << 31));
      defer->line_entries.push_back(static_cast<uint32_t>(
          (line << 1) | static_cast<uint64_t>(write)));
    }
  }
}

void WarpTracker::Flush(MemoryModel* mem, KernelStats* stats,
                        MeterBuffer* defer) {
  if (!metered_) {
    return;
  }

  // The stream is pre-grouped: walk the (kind, seq) rows in the legacy
  // consumption order — read seqs ascending, then write seqs, then atomic
  // seqs; lane order within a row — feeding each row to the coalescer in
  // place.
  for (size_t kind = 0; kind < WarpAccessStream::kKinds; ++kind) {
    const bool atomic = kind == static_cast<size_t>(StreamKind::kAtomic);
    const bool write = kind != static_cast<size_t>(StreamKind::kRead);
    const size_t rows = stream_.rows(kind);
    for (size_t seq = 0; seq < rows; ++seq) {
      const size_t n = stream_.count(kind, seq);
      if (n == 0) {
        continue;
      }
      uint64_t* addrs = stream_.addr_row(kind, seq);
      // Atomics charge their traffic like writes.
      ConsumeGroup(mem, stats, defer, write, addrs,
                   stream_.bytes_row(kind, seq), n);
      if (!atomic) {
        continue;
      }
      // Atomic serialization: k lanes updating the same address serialize
      // into k steps, k-1 of which are stalls. The row has been consumed,
      // so the in-place sort is safe.
      stats->atomic_ops += n;
      std::sort(addrs, addrs + n);
      size_t i = 0;
      while (i < n) {
        size_t j = i;
        while (j < n && addrs[j] == addrs[i]) {
          ++j;
        }
        stats->atomic_serialized += (j - i) - 1;
        i = j;
      }
    }
  }

  // Divergence: a warp issues in lockstep, so the warp occupies
  // 32 * max(lane ops) issue slots while only sum(lane ops) do useful work.
  uint64_t max_ops = 0;
  uint64_t sum_ops = 0;
  for (uint64_t ops : lane_ops_) {
    max_ops = std::max(max_ops, ops);
    sum_ops += ops;
  }
  if (max_ops > 0) {
    stats->lane_ops_sum += sum_ops;
    stats->warp_ops_slots += 32 * max_ops;
  }
  uint64_t max_mem = 0;
  for (uint64_t ops : lane_mem_ops_) {
    max_mem = std::max(max_mem, ops);
  }
  stats->max_lane_mem_ops = std::max(stats->max_lane_mem_ops, max_mem);
}

namespace {

/// Blocks each chunk runs per wave of a multi-chunk launch. A wave's lines
/// replay before the next wave starts, so this bounds the line buffers (a
/// whole launch of the interaction kernel buffers megabytes); every wave is
/// one fork and join of the workers, which a shared host makes costly.
constexpr size_t kBlocksPerChunk = 8;

/// A contiguous run of blocks: the warp tracker its blocks reuse and, on a
/// multi-chunk launch, its deferred metering output.
struct Chunk {
  WarpTracker warps;
  MeterBuffer meter;
};

}  // namespace

KernelStats Device::Launch(const LaunchConfig& cfg,
                           const std::function<void(BlockCtx&)>& kernel) {
  KernelStats raw;
  raw.name = cfg.name;
  raw.grid_dim = cfg.grid_dim;
  raw.block_dim = cfg.block_dim;
  raw.total_threads = static_cast<uint64_t>(cfg.grid_dim) * cfg.block_dim;
  raw.meter_stride = stride_;
  assert(cfg.block_dim >= 1 &&
         cfg.block_dim <= static_cast<size_t>(spec_.max_threads_per_block));

  if (sanitizer_) {
    sanitizer_->BeginLaunch(cfg.name, cfg.grid_dim, cfg.block_dim);
  }
  // One chunk runs the whole launch in block order and probes the caches
  // directly; see Launch's contract in device.h for when that is.
  size_t n_chunks = 1;
  if (sanitizer_ == nullptr && cfg.block_parallel_safe) {
    n_chunks = std::min<size_t>(
        HardwareThreads(),
        (cfg.grid_dim + kBlocksPerChunk - 1) / kBlocksPerChunk);
  }
  const bool deferred = n_chunks > 1;
  const size_t blocks_per_chunk = deferred ? kBlocksPerChunk : cfg.grid_dim;
  const size_t wave_blocks = n_chunks * blocks_per_chunk;
  std::vector<Chunk> chunks(n_chunks);
  for (size_t wave = 0; wave < cfg.grid_dim; wave += wave_blocks) {
    ParallelFor(deferred ? ExecMode::kParallel : ExecMode::kSerial, n_chunks,
                [&](size_t c) {
      Chunk& chunk = chunks[c];
      MeterBuffer* defer = deferred ? &chunk.meter : nullptr;
      KernelStats* stats = deferred ? &chunk.meter.stats : &raw;
      const size_t begin =
          std::min(cfg.grid_dim, wave + c * blocks_per_chunk);
      const size_t end = std::min(cfg.grid_dim, begin + blocks_per_chunk);
      for (size_t b = begin; b < end; ++b) {
        BlockCtx ctx(b, cfg.block_dim, cfg.grid_dim, &spec_, &mem_, stats,
                     stride_, sanitizer_.get(), &chunk.warps, defer);
        if (sanitizer_) {
          sanitizer_->BeginBlock(b);
        }
        kernel(ctx);
        if (sanitizer_) {
          sanitizer_->EndBlock(b, ctx.phases_run_, ctx.shared_used_,
                               ctx.arena_.size());
        }
      }
    });
    if (!deferred) {
      continue;
    }
    // The caches are the only metering state shared across blocks, so the
    // wave's lines replay through L1/L2 in block order (chunks are
    // contiguous: chunk order is block order). The chunks' other counters
    // are order-independent sums (and one max), folded in chunk order.
    for (Chunk& chunk : chunks) {
      for (uint32_t entry : chunk.meter.line_entries) {
        const uint64_t line = entry >> 1;
        mem_.ProbeLines(&line, 1, /*write=*/(entry & 1) != 0, &raw);
      }
      raw.Accumulate(chunk.meter.stats);
      chunk.meter.line_entries.clear();
      chunk.meter.stats = KernelStats{};
    }
  }

  // Scale sampled counters back to full-population estimates.
  if (stride_ > 1) {
    uint64_t s = static_cast<uint64_t>(stride_);
    raw.fp32_flops *= s;
    raw.fp64_flops *= s;
    raw.read_transactions *= s;
    raw.write_transactions *= s;
    raw.dram_read_bytes *= s;
    raw.dram_write_bytes *= s;
    raw.l2_read_hit_bytes *= s;
    raw.l2_write_hit_bytes *= s;
    raw.l1_read_hit_bytes *= s;
    raw.l1_write_hit_bytes *= s;
    raw.requested_read_bytes *= s;
    raw.requested_write_bytes *= s;
    raw.shared_bytes *= s;
    raw.atomic_ops *= s;
    raw.atomic_serialized *= s;
    raw.lane_ops_sum *= s;
    raw.warp_ops_slots *= s;
  }

  if (sanitizer_) {
    raw.sanitizer_hazards = sanitizer_->EndLaunch();
  }

  ApplyTimingModel(spec_, &raw);
  raw.sim_start_ms = kernel_ms_;
  kernel_ms_ += raw.total_ms;
  history_.push_back(raw);
  return raw;
}

KernelStats Device::AddModeledKernel(const std::string& name,
                                     uint64_t read_bytes,
                                     uint64_t write_bytes,
                                     uint64_t fp32_flops) {
  KernelStats st;
  st.name = name;
  st.meter_stride = 1;
  st.fp32_flops = fp32_flops;
  uint64_t line = static_cast<uint64_t>(spec_.l2_line_bytes);
  st.read_transactions = (read_bytes + line - 1) / line;
  st.write_transactions = (write_bytes + line - 1) / line;
  // Streaming working sets exceed the caches: charge everything to DRAM.
  st.dram_read_bytes = read_bytes;
  st.dram_write_bytes = write_bytes;
  st.requested_read_bytes = read_bytes;
  st.requested_write_bytes = write_bytes;
  st.lane_ops_sum = 1;
  st.warp_ops_slots = 1;  // coalesced: no divergence
  ApplyTimingModel(spec_, &st);
  st.sim_start_ms = kernel_ms_;
  kernel_ms_ += st.total_ms;
  history_.push_back(st);
  return st;
}

void KernelStats::Accumulate(const KernelStats& o) {
  fp32_flops += o.fp32_flops;
  fp64_flops += o.fp64_flops;
  read_transactions += o.read_transactions;
  write_transactions += o.write_transactions;
  dram_read_bytes += o.dram_read_bytes;
  dram_write_bytes += o.dram_write_bytes;
  l2_read_hit_bytes += o.l2_read_hit_bytes;
  l2_write_hit_bytes += o.l2_write_hit_bytes;
  l1_read_hit_bytes += o.l1_read_hit_bytes;
  l1_write_hit_bytes += o.l1_write_hit_bytes;
  requested_read_bytes += o.requested_read_bytes;
  requested_write_bytes += o.requested_write_bytes;
  shared_bytes += o.shared_bytes;
  atomic_ops += o.atomic_ops;
  atomic_serialized += o.atomic_serialized;
  lane_ops_sum += o.lane_ops_sum;
  warp_ops_slots += o.warp_ops_slots;
  max_lane_mem_ops = std::max(max_lane_mem_ops, o.max_lane_mem_ops);
  sanitizer_hazards += o.sanitizer_hazards;
  total_threads += o.total_threads;
  compute_ms += o.compute_ms;
  memory_ms += o.memory_ms;
  lsu_ms += o.lsu_ms;
  atomic_ms += o.atomic_ms;
  launch_ms += o.launch_ms;
  total_ms += o.total_ms;
}

}  // namespace biosim::gpusim
