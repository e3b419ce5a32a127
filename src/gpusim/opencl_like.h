// OpenCL-flavored front-end over the SIMT simulator (see cuda_like.h for
// the rationale). Speaks the OpenCL vocabulary: buffers created from a
// context, kernels enqueued on a command queue with an NDRange of
// global/local work sizes, work-groups and work-items.
#ifndef BIOSIM_GPUSIM_OPENCL_LIKE_H_
#define BIOSIM_GPUSIM_OPENCL_LIKE_H_

#include <cassert>
#include <string>
#include <utility>

#include "gpusim/device.h"

namespace biosim::gpusim::opencl {

/// clCreateContext + clCreateCommandQueue analog.
class CommandQueue {
 public:
  explicit CommandQueue(DeviceSpec spec) : dev_(std::move(spec)) {}

  Device& device() { return dev_; }
  const Device& device() const { return dev_; }

  template <typename T>
  DeviceBuffer<T> CreateBuffer(size_t n) {
    return dev_.Alloc<T>(n);
  }

  template <typename T>
  void EnqueueWriteBuffer(DeviceBuffer<T>& dst, std::span<const T> src) {
    dev_.CopyToDevice(dst, src);
  }

  template <typename T>
  void EnqueueReadBuffer(std::span<T> dst, const DeviceBuffer<T>& src) {
    dev_.CopyFromDevice(dst, src);
  }

  /// clEnqueueNDRangeKernel analog: `global_size` work-items in work-groups
  /// of `local_size`. global_size is rounded up to a multiple of local_size
  /// (as required by OpenCL <2.0); kernels guard the tail themselves.
  /// `block_parallel_safe` asserts the work-groups are independent (see
  /// LaunchConfig) so the device executes them concurrently on the host
  /// workers.
  KernelStats EnqueueNDRangeKernel(
      const std::string& name, size_t global_size, size_t local_size,
      const std::function<void(BlockCtx&)>& kernel,
      bool block_parallel_safe = false) {
    assert(local_size >= 1);
    size_t groups = (global_size + local_size - 1) / local_size;
    return dev_.Launch({name, groups, local_size, block_parallel_safe},
                       kernel);
  }

 private:
  Device dev_;
};

/// OpenCL work-item vocabulary over the Lane API, so kernel bodies written
/// for the CUDA front-end read naturally under OpenCL review too:
/// get_global_id(t) == blockIdx.x * blockDim.x + threadIdx.x.
inline size_t get_global_id(const Lane& t) { return t.gtid(); }
inline size_t get_local_id(const Lane& t) { return t.lane(); }
inline size_t get_group_id(const Lane& t) { return t.block(); }
inline size_t get_local_size(const Lane& t) { return t.block_dim(); }

}  // namespace biosim::gpusim::opencl

#endif  // BIOSIM_GPUSIM_OPENCL_LIKE_H_
