// CUDA-flavored front-end over the SIMT simulator.
//
// The paper implements its kernels twice — CUDA and OpenCL — to cover all
// GPU vendors. Both runtimes drive the same hardware, so here they are two
// thin, API-faithful adapters over one engine: this one speaks
// grid/block/thread and cudaMemcpy, opencl_like.h speaks
// NDRange/workgroup/work-item and command queues. The kernel bodies
// themselves (src/gpu/mech_kernel.h) are shared, exactly like a .cu/.cl pair
// generated from one source.
#ifndef BIOSIM_GPUSIM_CUDA_LIKE_H_
#define BIOSIM_GPUSIM_CUDA_LIKE_H_

#include <string>
#include <utility>

#include "gpusim/device.h"

namespace biosim::gpusim::cuda {

/// CUDA runtime analog: owns one device ("context") and exposes the
/// malloc / memcpy / launch vocabulary.
class Runtime {
 public:
  explicit Runtime(DeviceSpec spec) : dev_(std::move(spec)) {}

  Device& device() { return dev_; }
  const Device& device() const { return dev_; }

  template <typename T>
  DeviceBuffer<T> Malloc(size_t n) {
    return dev_.Alloc<T>(n);
  }

  template <typename T>
  void MemcpyHostToDevice(DeviceBuffer<T>& dst, std::span<const T> src) {
    dev_.CopyToDevice(dst, src);
  }

  template <typename T>
  void MemcpyDeviceToHost(std::span<T> dst, const DeviceBuffer<T>& src) {
    dev_.CopyFromDevice(dst, src);
  }

  /// kernel<<<grid_dim, block_dim>>>(...) analog. `block_parallel_safe`
  /// asserts the kernel's blocks are independent (see LaunchConfig) so the
  /// device executes them concurrently on the host workers.
  KernelStats LaunchKernel(const std::string& name, size_t grid_dim,
                           size_t block_dim,
                           const std::function<void(BlockCtx&)>& kernel,
                           bool block_parallel_safe = false) {
    return dev_.Launch({name, grid_dim, block_dim, block_parallel_safe},
                       kernel);
  }

  /// Blocks-for-n helper: ceil(n / block_dim).
  static size_t BlocksFor(size_t n, size_t block_dim) {
    return (n + block_dim - 1) / block_dim;
  }

 private:
  Device dev_;
};

}  // namespace biosim::gpusim::cuda

#endif  // BIOSIM_GPUSIM_CUDA_LIKE_H_
