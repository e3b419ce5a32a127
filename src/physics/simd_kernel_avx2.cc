// Native-width instantiation of the SIMD force kernel for AVX2 + FMA.
// This TU is only added to the build when the compiler accepts
// -mavx2 -mfma on x86-64 (src/physics/CMakeLists.txt defines
// BIOSIM_SIMD_HAS_AVX2_TU alongside it) and is only *called* after
// simd::HasAvx2() probes the running CPU — nothing outside these
// wrappers may be compiled with the extended ISA, or illegal
// instructions could leak into code reachable on older machines.
//
// With -mavx2 -mfma -O3 -fno-math-errno the lane loops compile to
// 256-bit vsubpd/vmulpd/vaddpd/vblendvpd sequences; -ffp-contract=off
// keeps the compiler from fusing d²'s multiplies and adds, so every
// candidate's d² has the bits of the scalar dot product and the results
// equal the other TUs' (and the generic callback path's) bit for bit.
#include "physics/simd_force_kernel.h"
#include "physics/simd_kernel_dispatch.h"

namespace biosim::detail {

namespace {
struct Avx2Tag {};
}  // namespace

void FusedSimdAvx2(const FusedSimdArgs& args) {
  RunFusedSimdKernel<simd::kNativeLanes<double>, Avx2Tag>(args);
}

}  // namespace biosim::detail
