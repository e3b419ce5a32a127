// SIMT execution simulator: functional GPU kernels with hardware counters.
//
// This is the repository's CUDA/OpenCL substitute (see DESIGN.md §1). Device
// code is written as C++ lambdas against the Lane API below and *actually
// executes* — outputs are real and tested against the CPU reference. While
// executing, every global access flows through a per-warp coalescer and a
// simulated L2 (memory_model.h), FLOPs and divergence are counted per warp,
// and the analytic model (timing.h) converts the counters into kernel time
// for the configured DeviceSpec.
//
// Execution model: blocks of independent launches run concurrently on the
// host workers, everything else in block order, and the counters are the
// same either way (Device::Launch). Within a block, lanes of a warp run the
// body one after another but are *accounted* as lockstep SIMT — the i-th
// global access of each lane in a warp forms one memory instruction for
// coalescing, and per-lane op imbalance is charged as divergence. Barrier
// semantics use the standard loop-fission translation: one for_each_lane()
// region is the code between two __syncthreads().
//
//   dev.Launch({"my_kernel", blocks, 256}, [&](BlockCtx& blk) {
//     auto cache = blk.shared<float>(256);                 // __shared__
//     blk.for_each_lane([&](Lane& t) {                     // phase 1
//       cache.st(t, t.lane(), t.ld(input, t.gtid()));
//     });                                                  // __syncthreads()
//     blk.for_each_lane([&](Lane& t) {                     // phase 2
//       ...
//     });
//   });
#ifndef BIOSIM_GPUSIM_DEVICE_H_
#define BIOSIM_GPUSIM_DEVICE_H_

#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gpusim/access_stream.h"
#include "gpusim/device_spec.h"
#include "gpusim/kernel_stats.h"
#include "gpusim/memory_model.h"
#include "gpusim/sanitizer.h"
#include "gpusim/timing.h"

namespace biosim::gpusim {

class Device;
class BlockCtx;
class Lane;

/// Typed device allocation. Storage lives host-side (this is a simulator)
/// but is addressed through a device-global address space so the cache
/// simulation sees realistic addresses. Obtain via Device::Alloc.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }
  uint64_t addr(size_t i) const { return base_ + i * sizeof(T); }

  /// Direct host access — the simulator equivalent of unified memory; tests
  /// use it, kernels must go through Lane::ld/st so traffic is metered.
  /// Mutable access conservatively marks the buffer initialized for the
  /// sanitizer's never-written-read check (it cannot see host writes).
  T* data() {
    if (shadow_) {
      shadow_->MarkAll();
    }
    return storage_.data();
  }
  const T* data() const { return storage_.data(); }
  T& operator[](size_t i) {
    if (shadow_) {
      shadow_->Mark(i);
    }
    return storage_[i];
  }
  const T& operator[](size_t i) const { return storage_[i]; }

 private:
  friend class Device;
  friend class Lane;
  std::vector<T> storage_;
  uint64_t base_ = 0;
  /// Element initialization shadow; only allocated while the device has a
  /// memcheck-enabled sanitizer attached (see Device::Alloc).
  std::shared_ptr<BufferShadow> shadow_;
};

/// Tracks one warp's accounting while its lanes execute. Global accesses
/// append to one flat pre-grouped stream (access_stream.h); Flush walks the
/// (kind, seq) rows in the exact legacy order (reads by seq, then writes,
/// then atomics; lane order within a group) and feeds each row to the
/// coalescer in place. All buffers retain their capacity across warps, so
/// the steady-state hot path never allocates.
class WarpTracker {
 public:
  void Reset(bool metered, size_t active_lanes) {
    metered_ = metered;
    active_lanes_ = active_lanes;
    stream_.Clear();
    std::fill(std::begin(lane_ops_), std::end(lane_ops_), uint64_t{0});
    std::fill(std::begin(lane_mem_ops_), std::end(lane_mem_ops_),
              uint64_t{0});
  }

  bool metered() const { return metered_; }

  void RecordRead(size_t seq, uint64_t addr, uint32_t bytes) {
    stream_.Append(StreamKind::kRead, static_cast<uint32_t>(seq), addr,
                   bytes);
  }
  void RecordWrite(size_t seq, uint64_t addr, uint32_t bytes) {
    stream_.Append(StreamKind::kWrite, static_cast<uint32_t>(seq), addr,
                   bytes);
  }
  void RecordAtomic(size_t seq, uint64_t addr, uint32_t bytes) {
    stream_.Append(StreamKind::kAtomic, static_cast<uint32_t>(seq), addr,
                   bytes);
  }
  void AddLaneOps(size_t warp_lane, uint64_t n) { lane_ops_[warp_lane] += n; }
  void AddLaneMemOp(size_t warp_lane) { lane_mem_ops_[warp_lane] += 1; }

  /// Consume this warp's access stream: coalesce every instruction group
  /// and either probe the caches immediately (defer == nullptr, a launch on
  /// one chunk) or buffer the line transactions into `defer` for an in-
  /// block-order replay (a launch on several chunks). Divergence and atomic
  /// accounting land in `stats` either way.
  void Flush(MemoryModel* mem, KernelStats* stats, MeterBuffer* defer);

 private:
  /// Feed one coalesced instruction group to the caches or the buffer.
  void ConsumeGroup(MemoryModel* mem, KernelStats* stats, MeterBuffer* defer,
                    bool write, const uint64_t* addrs, const uint32_t* bytes,
                    size_t n);

  bool metered_ = false;
  size_t active_lanes_ = 32;
  WarpAccessStream stream_;
  uint64_t lane_ops_[32] = {};
  uint64_t lane_mem_ops_[32] = {};
};

/// Shared-memory array handle (per block). Addresses live in a per-block
/// "shared" address space used only for atomic-conflict detection.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(T* data, size_t n, uint64_t base,
              BufferShadow* shadow = nullptr)
      : data_(data), n_(n), base_(base), shadow_(shadow) {}
  size_t size() const { return n_; }
  uint64_t addr(size_t i) const { return base_ + i * sizeof(T); }
  T* raw() { return data_; }

 private:
  friend class Lane;
  T* data_ = nullptr;
  size_t n_ = 0;
  uint64_t base_ = 0;
  BufferShadow* shadow_ = nullptr;  // owned by the BlockCtx; block lifetime
};

/// The view device code gets of one thread (CUDA thread / OpenCL work-item).
class Lane {
 public:
  size_t lane() const { return lane_; }            // threadIdx.x
  size_t block() const { return block_; }          // blockIdx.x
  size_t block_dim() const { return block_dim_; }  // blockDim.x
  size_t grid_dim() const { return grid_dim_; }    // gridDim.x
  size_t gtid() const { return block_ * block_dim_ + lane_; }

  /// Account `n` floating-point operations (single precision).
  void flops32(uint64_t n) { Ops(n, &fp32_); }
  /// Account `n` floating-point operations (double precision).
  void flops64(uint64_t n) { Ops(n, &fp64_); }

  /// Metered global load.
  template <typename T>
  T ld(const DeviceBuffer<T>& b, size_t i) {
    if (san_ != nullptr) [[unlikely]] {
      if (i >= b.size()) {
        san_->OnOutOfBounds(MemSpace::kGlobal, AccessKind::kRead, block_,
                            lane_, phase_, b.base_, i, b.size(), sizeof(T));
        ++read_seq_;  // keep coalescing sequence aligned across lanes
        return T{};
      }
      if (b.shadow_ && !b.shadow_->IsWritten(i)) {
        san_->OnUninitializedRead(MemSpace::kGlobal, AccessKind::kRead,
                                  block_, lane_, phase_, b.addr(i),
                                  sizeof(T));
      }
      san_->OnAccess(MemSpace::kGlobal, AccessKind::kRead, block_, lane_,
                     phase_, b.addr(i), sizeof(T));
    }
    assert(i < b.size());
    if (wt_->metered()) {
      wt_->RecordRead(read_seq_, b.addr(i), sizeof(T));
      wt_->AddLaneOps(lane_ & 31, 1);
      wt_->AddLaneMemOp(lane_ & 31);
    }
    ++read_seq_;
    return b.storage_.data()[i];
  }

  /// Metered global store.
  template <typename T>
  void st(DeviceBuffer<T>& b, size_t i, T v) {
    if (san_ != nullptr) [[unlikely]] {
      if (i >= b.size()) {
        san_->OnOutOfBounds(MemSpace::kGlobal, AccessKind::kWrite, block_,
                            lane_, phase_, b.base_, i, b.size(), sizeof(T));
        ++write_seq_;
        return;  // suppress the wild store so execution can continue
      }
      if (b.shadow_) {
        b.shadow_->Mark(i);
      }
      san_->OnAccess(MemSpace::kGlobal, AccessKind::kWrite, block_, lane_,
                     phase_, b.addr(i), sizeof(T));
    }
    assert(i < b.size());
    if (wt_->metered()) {
      wt_->RecordWrite(write_seq_, b.addr(i), sizeof(T));
      wt_->AddLaneOps(lane_ & 31, 1);
      wt_->AddLaneMemOp(lane_ & 31);
    }
    ++write_seq_;
    b.storage_.data()[i] = v;
  }

  /// Global atomic add; returns the old value.
  template <typename T>
  T atomic_add(DeviceBuffer<T>& b, size_t i, T v) {
    if (san_ != nullptr) [[unlikely]] {
      if (!SanCheckAtomic(b, i, sizeof(T))) {
        return T{};
      }
    }
    T old = b.storage_.data()[i];
    b.storage_.data()[i] = old + v;
    RecordAtomicSite(b.addr(i), sizeof(T), /*counts_as_mem_op=*/true);
    return old;
  }

  /// Global atomic exchange; returns the old value. (The uniform-grid build
  /// kernel's linked-list push is exactly this, Section IV-A.)
  template <typename T>
  T atomic_exch(DeviceBuffer<T>& b, size_t i, T v) {
    if (san_ != nullptr) [[unlikely]] {
      if (!SanCheckAtomic(b, i, sizeof(T))) {
        return T{};
      }
    }
    T old = b.storage_.data()[i];
    b.storage_.data()[i] = v;
    RecordAtomicSite(b.addr(i), sizeof(T), /*counts_as_mem_op=*/true);
    return old;
  }

  /// Shared-memory load/store: on-chip, so only bytes are charged (no L2 /
  /// DRAM involvement).
  template <typename T>
  T shared_ld(const SharedArray<T>& s, size_t i) {
    if (san_ != nullptr) [[unlikely]] {
      if (i >= s.size()) {
        san_->OnOutOfBounds(MemSpace::kShared, AccessKind::kRead, block_,
                            lane_, phase_, s.base_, i, s.size(), sizeof(T));
        return T{};
      }
      if (s.shadow_ && !s.shadow_->IsWritten(i)) {
        san_->OnUninitializedRead(MemSpace::kShared, AccessKind::kRead,
                                  block_, lane_, phase_, s.addr(i),
                                  sizeof(T));
      }
      san_->OnAccess(MemSpace::kShared, AccessKind::kRead, block_, lane_,
                     phase_, s.addr(i), sizeof(T));
    }
    assert(i < s.size());
    SharedTraffic(sizeof(T));
    return s.data_[i];
  }
  template <typename T>
  void shared_st(SharedArray<T>& s, size_t i, T v) {
    if (san_ != nullptr) [[unlikely]] {
      if (i >= s.size()) {
        san_->OnOutOfBounds(MemSpace::kShared, AccessKind::kWrite, block_,
                            lane_, phase_, s.base_, i, s.size(), sizeof(T));
        return;
      }
      if (s.shadow_) {
        s.shadow_->Mark(i);
      }
      san_->OnAccess(MemSpace::kShared, AccessKind::kWrite, block_, lane_,
                     phase_, s.addr(i), sizeof(T));
    }
    assert(i < s.size());
    SharedTraffic(sizeof(T));
    s.data_[i] = v;
  }

  /// Shared-memory atomic add (the Improvement III append counter). Returns
  /// the old value; warp-internal address conflicts serialize.
  template <typename T>
  T atomic_add_shared(SharedArray<T>& s, size_t i, T v) {
    if (san_ != nullptr) [[unlikely]] {
      if (i >= s.size()) {
        san_->OnOutOfBounds(MemSpace::kShared, AccessKind::kAtomic, block_,
                            lane_, phase_, s.base_, i, s.size(), sizeof(T));
        return T{};
      }
      if (s.shadow_ && !s.shadow_->IsWritten(i)) {
        // The RMW reads the old value; shared memory is garbage on real
        // hardware even though the simulator zero-fills it.
        san_->OnUninitializedRead(MemSpace::kShared, AccessKind::kAtomic,
                                  block_, lane_, phase_, s.addr(i),
                                  sizeof(T));
      }
      if (s.shadow_) {
        s.shadow_->Mark(i);
      }
      san_->OnAccess(MemSpace::kShared, AccessKind::kAtomic, block_, lane_,
                     phase_, s.addr(i), sizeof(T));
    }
    T old = s.data_[i];
    s.data_[i] = old + v;
    // On-chip atomic: serializes but is not a global-latency memory op.
    RecordAtomicSite(s.addr(i), sizeof(T), /*counts_as_mem_op=*/false);
    return old;
  }

 private:
  friend class BlockCtx;
  Lane(size_t lane, size_t block, size_t block_dim, size_t grid_dim,
       WarpTracker* wt, KernelStats* raw, Sanitizer* san, size_t phase)
      : lane_(lane),
        block_(block),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        wt_(wt),
        raw_(raw),
        san_(san),
        phase_(phase) {}

  /// Sanitizer path shared by the global atomics: OOB (suppressing the
  /// access), uninit-RMW-read, and race bookkeeping. Returns false when the
  /// access was suppressed.
  template <typename T>
  bool SanCheckAtomic(DeviceBuffer<T>& b, size_t i, uint32_t bytes) {
    if (i >= b.size()) {
      san_->OnOutOfBounds(MemSpace::kGlobal, AccessKind::kAtomic, block_,
                          lane_, phase_, b.base_, i, b.size(), bytes);
      ++atomic_seq_;
      return false;
    }
    if (b.shadow_ && !b.shadow_->IsWritten(i)) {
      san_->OnUninitializedRead(MemSpace::kGlobal, AccessKind::kAtomic,
                                block_, lane_, phase_, b.addr(i), bytes);
    }
    if (b.shadow_) {
      b.shadow_->Mark(i);
    }
    san_->OnAccess(MemSpace::kGlobal, AccessKind::kAtomic, block_, lane_,
                   phase_, b.addr(i), bytes);
    return true;
  }

  void Ops(uint64_t n, uint64_t* counter) {
    if (wt_->metered()) {
      *counter += n;
      wt_->AddLaneOps(lane_ & 31, n);
    }
  }

  void RecordAtomicSite(uint64_t addr, uint32_t bytes,
                        bool counts_as_mem_op) {
    if (wt_->metered()) {
      wt_->RecordAtomic(atomic_seq_, addr, bytes);
      wt_->AddLaneOps(lane_ & 31, 1);
      // Global atomics round-trip to L2/DRAM, so they extend the per-lane
      // dependent-memory-op chain; shared atomics stay on-chip.
      if (counts_as_mem_op) {
        wt_->AddLaneMemOp(lane_ & 31);
      }
    }
    ++atomic_seq_;
  }

  void SharedTraffic(uint32_t bytes) {
    if (wt_->metered()) {
      raw_->shared_bytes += bytes;
      wt_->AddLaneOps(lane_ & 31, 1);
    }
  }

  size_t lane_, block_, block_dim_, grid_dim_;
  WarpTracker* wt_;
  KernelStats* raw_;
  Sanitizer* san_ = nullptr;  // non-owning; null unless EnableSanitizer
  size_t phase_ = 0;          // barrier interval this lane is executing in
  size_t read_seq_ = 0;
  size_t write_seq_ = 0;
  size_t atomic_seq_ = 0;
  uint64_t fp32_ = 0;
  uint64_t fp64_ = 0;

  void CommitFlops() {
    raw_->fp32_flops += fp32_;
    raw_->fp64_flops += fp64_;
  }
};

/// The view device code gets of one thread block (CUDA block / OpenCL
/// workgroup).
class BlockCtx {
 public:
  size_t block() const { return block_; }
  size_t block_dim() const { return block_dim_; }
  size_t grid_dim() const { return grid_dim_; }

  /// Allocate a __shared__ array (zero-initialized by the simulator — note
  /// that real shared memory is *not*; the sanitizer's never-written check
  /// models the hardware behavior). Exceeding the per-block shared limit
  /// asserts, or — with a sanitizer attached — reports a structured
  /// shared-overflow hazard and continues (host memory backs the arena).
  template <typename T>
  SharedArray<T> shared(size_t n) {
    size_t bytes = n * sizeof(T);
    bool fits = shared_used_ + bytes <= spec_->shared_mem_per_block;
    if (!fits && san_ != nullptr) {
      san_->OnSharedOverflow(block_, bytes, shared_used_,
                             spec_->shared_mem_per_block);
    }
    assert((fits || san_ != nullptr) && "exceeds shared memory per block");
    arena_.push_back(std::make_unique<char[]>(bytes));
    std::memset(arena_.back().get(), 0, bytes);
    auto* p = reinterpret_cast<T*>(arena_.back().get());
    BufferShadow* shadow = nullptr;
    if (san_ != nullptr && san_->memcheck_enabled()) {
      shared_shadows_.push_back(std::make_unique<BufferShadow>(n));
      shadow = shared_shadows_.back().get();
    }
    SharedArray<T> s(p, n, kSharedBase + shared_used_, shadow);
    shared_used_ += bytes;
    return s;
  }

  /// Run `body(Lane&)` for every thread of the block; the end of the call is
  /// a block-wide barrier (__syncthreads()).
  template <typename F>
  void for_each_lane(F&& body) {
    if (san_ != nullptr) {
      san_->BeginPhase();
    }
    size_t phase = phases_run_++;
    // Warp sampling is block-local: the warp's index in a (phase, block,
    // warp) numbering of the launch picks it, so no block needs to know
    // how many warps the blocks before it ran. For one-phase kernels this
    // is the launch-wide running warp count.
    const size_t warps_per_block = (block_dim_ + 31) / 32;
    size_t warp_index = (phase * grid_dim_ + block_) * warps_per_block;
    for (size_t w0 = 0; w0 < block_dim_; w0 += 32, ++warp_index) {
      size_t lanes = std::min<size_t>(32, block_dim_ - w0);
      wt_->Reset(warp_index % stride_ == 0, lanes);
      for (size_t l = 0; l < lanes; ++l) {
        Lane t(w0 + l, block_, block_dim_, grid_dim_, wt_, raw_, san_,
               phase);
        body(t);
        t.CommitFlops();
      }
      wt_->Flush(mem_, raw_, defer_);
    }
  }

 private:
  friend class Device;
  static constexpr uint64_t kSharedBase = 1ull << 62;  // disjoint from global

  BlockCtx(size_t block, size_t block_dim, size_t grid_dim,
           const DeviceSpec* spec, MemoryModel* mem, KernelStats* raw,
           int stride, Sanitizer* san, WarpTracker* wt, MeterBuffer* defer)
      : block_(block),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        spec_(spec),
        mem_(mem),
        raw_(raw),
        stride_(static_cast<size_t>(stride)),
        san_(san),
        wt_(wt),
        defer_(defer) {}

  size_t block_, block_dim_, grid_dim_;
  const DeviceSpec* spec_;
  MemoryModel* mem_;
  KernelStats* raw_;
  size_t stride_;
  Sanitizer* san_;
  WarpTracker* wt_;     // owned by the chunk; reused across its blocks
  MeterBuffer* defer_;  // non-null only on a launch that runs on chunks
  size_t shared_used_ = 0;
  size_t phases_run_ = 0;  // barrier intervals executed (synccheck input)
  std::vector<std::unique_ptr<char[]>> arena_;
  std::vector<std::unique_ptr<BufferShadow>> shared_shadows_;
};

struct LaunchConfig {
  std::string name;
  size_t grid_dim = 1;   // blocks
  size_t block_dim = 1;  // threads per block
  /// Kernel contract: blocks neither communicate nor overlap writes through
  /// global memory, so the device executes them concurrently (Device::
  /// Launch). Kernels with cross-block coupling — ug_build's atomicExch
  /// linked-list push, the radix-sort passes — must leave this false and
  /// run block-sequentially.
  bool block_parallel_safe = false;
};

/// A simulated GPU. Owns the address space, the memory model, the simulated
/// clock, and the per-kernel profile.
class Device {
 public:
  explicit Device(DeviceSpec spec)
      : spec_(std::move(spec)), mem_(SampledSpec(spec_, 1)) {}

  const DeviceSpec& spec() const { return spec_; }

  /// Warp-sampling stride: 1 = meter every warp (exact), k = meter every
  /// k-th warp of the (phase, block, warp) numbering and scale (the L2
  /// capacity seen by the sampled stream is scaled down by k so hit rates
  /// stay representative). Call before any Launch.
  void SetMeterStride(int stride) {
    assert(stride >= 1);
    stride_ = stride;
    mem_ = MemoryModel(SampledSpec(spec_, stride));
  }
  int meter_stride() const { return stride_; }

  /// Attach the compute-sanitizer-style analysis layer (sanitizer.h). Every
  /// subsequent Launch is checked; hazards accumulate in
  /// sanitizer()->report(). Call before Alloc for full memcheck coverage —
  /// buffers allocated earlier are bounds-checked but not tracked for
  /// never-written reads. Returns the sanitizer for configuration/report
  /// access.
  Sanitizer* EnableSanitizer(SanitizerConfig config = {}) {
    sanitizer_ = std::make_unique<Sanitizer>(config);
    return sanitizer_.get();
  }
  Sanitizer* sanitizer() { return sanitizer_.get(); }
  const Sanitizer* sanitizer() const { return sanitizer_.get(); }

  /// Allocate a device buffer of `n` elements.
  template <typename T>
  DeviceBuffer<T> Alloc(size_t n) {
    DeviceBuffer<T> b;
    b.storage_.resize(n);
    b.base_ = next_addr_;
    if (sanitizer_ && sanitizer_->memcheck_enabled()) {
      b.shadow_ = std::make_shared<BufferShadow>(n);
    }
    size_t bytes = (n * sizeof(T) + 255) / 256 * 256;
    next_addr_ += bytes;
    allocated_bytes_ += bytes;
    assert(allocated_bytes_ <= spec_.dram_bytes && "device out of memory");
    return b;
  }

  /// Host -> device copy (metered: PCIe time on the simulated clock).
  template <typename T>
  void CopyToDevice(DeviceBuffer<T>& dst, std::span<const T> src) {
    assert(src.size() <= dst.size());
    std::memcpy(dst.storage_.data(), src.data(), src.size() * sizeof(T));
    if (dst.shadow_) {
      dst.shadow_->MarkPrefix(src.size());
    }
    uint64_t bytes = src.size() * sizeof(T);
    transfers_.h2d_bytes += bytes;
    transfers_.h2d_count += 1;
    transfers_.h2d_ms += TransferMs(spec_, bytes);
  }

  /// Device -> host copy (metered).
  template <typename T>
  void CopyFromDevice(std::span<T> dst, const DeviceBuffer<T>& src) {
    assert(dst.size() <= src.size());
    std::memcpy(dst.data(), src.storage_.data(), dst.size() * sizeof(T));
    uint64_t bytes = dst.size() * sizeof(T);
    transfers_.d2h_bytes += bytes;
    transfers_.d2h_count += 1;
    transfers_.d2h_ms += TransferMs(spec_, bytes);
  }

  /// Execute a kernel and return its stats (also appended to the profile
  /// and the simulated clock).
  ///
  /// A launch runs in block order on one chunk when a sanitizer is attached
  /// (its race detector is stateful across blocks), when the kernel is not
  /// block_parallel_safe, or when it has too few blocks to split. Every
  /// other launch runs in waves of contiguous chunks, one per host worker
  /// (core/thread_pool.h). Each chunk buffers its coalesced line
  /// transactions and its order-independent counters; after each wave the
  /// lines replay through the shared L1/L2 strictly in block order — the
  /// probe sequence of a one-chunk run — before the next wave starts. The
  /// counters are byte-identical at any worker count: metering observes the
  /// order of execution and never sets it.
  KernelStats Launch(const LaunchConfig& cfg,
                     const std::function<void(BlockCtx&)>& kernel);

  /// Account a library kernel (e.g. a vendor sort) by its streaming traffic
  /// without executing it through the SIMT engine: `read_bytes` and
  /// `write_bytes` are assumed perfectly coalesced. Advances the simulated
  /// clock and appears in the profile like any launch.
  KernelStats AddModeledKernel(const std::string& name, uint64_t read_bytes,
                               uint64_t write_bytes, uint64_t fp32_flops = 0);

  /// Drop cache state between independent experiments.
  void ResetCache() { mem_.ResetCache(); }

  /// Simulated elapsed GPU time: kernels + transfers.
  double ElapsedMs() const { return kernel_ms_ + transfers_.TotalMs(); }
  double KernelMs() const { return kernel_ms_; }
  const TransferStats& transfers() const { return transfers_; }
  void ResetClock() {
    kernel_ms_ = 0.0;
    transfers_ = {};
    history_.clear();
  }

  /// Per-launch history (the nvprof substitute reads this).
  const std::vector<KernelStats>& history() const { return history_; }

 private:
  static DeviceSpec SampledSpec(const DeviceSpec& spec, int stride) {
    DeviceSpec s = spec;
    s.l2_capacity_bytes =
        std::max<size_t>(spec.l2_capacity_bytes / static_cast<size_t>(stride),
                         static_cast<size_t>(spec.l2_line_bytes) * 64);
    s.l1_capacity_bytes =
        std::max<size_t>(spec.l1_capacity_bytes / static_cast<size_t>(stride),
                         static_cast<size_t>(spec.l2_line_bytes) * 16);
    return s;
  }

  DeviceSpec spec_;
  MemoryModel mem_;
  std::unique_ptr<Sanitizer> sanitizer_;
  int stride_ = 1;
  uint64_t next_addr_ = 1ull << 20;
  uint64_t allocated_bytes_ = 0;
  TransferStats transfers_;
  double kernel_ms_ = 0.0;
  std::vector<KernelStats> history_;
};

}  // namespace biosim::gpusim

#endif  // BIOSIM_GPUSIM_DEVICE_H_
