// W = 1 instantiation of the fused force kernel — the BIOSIM_SIMD=scalar
// fallback/reference width. Compiled with the build's default flags and
// no ISA extensions, so it behaves identically on every machine and
// produces the same bits as the wide kernels.
#include "physics/simd_force_kernel.h"
#include "physics/simd_kernel_dispatch.h"

namespace biosim::detail {

namespace {
// Internal linkage keeps this TU's instantiations distinct from the
// other per-ISA TUs' (see simd_kernel_dispatch.h).
struct ScalarWidthTag {};
}  // namespace

void FusedSimdScalarWidth(const FusedSimdArgs& args) {
  RunFusedSimdKernel<1, ScalarWidthTag>(args);
}

}  // namespace biosim::detail
