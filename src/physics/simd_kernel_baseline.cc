// Native-width instantiation of the SIMD force kernel for the build's
// baseline ISA (no -m flags beyond the toolchain default), so it runs on
// any CPU the binary runs on. On plain x86-64 that means SSE2 codegen:
// the lane loops still vectorize at 2 doubles per op, with
// the same per-lane IEEE operations as every other TU, so forces and hit
// counts are ISA-independent. The AVX2 TU supersedes this one at runtime
// where available (simd_kernel_dispatch.h).
//
// Compiled with -O3 -fno-math-errno (see src/physics/CMakeLists.txt):
// errno stores are what block GCC from vectorizing sqrt into vsqrtp*.
#include "physics/simd_force_kernel.h"
#include "physics/simd_kernel_dispatch.h"

namespace biosim::detail {

namespace {
struct BaselineTag {};
}  // namespace

void FusedSimdBaseline(const FusedSimdArgs& args) {
  RunFusedSimdKernel<simd::kNativeLanes<double>, BaselineTag>(args);
}

}  // namespace biosim::detail
