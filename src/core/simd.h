// Portable SIMD value types for the CPU hot loops (docs/perf.md).
//
// The idiom follows arbor's simd layer: a fixed-width value type
// `Vec<T, W>` with explicit load/store (including masked tails), fma,
// compare-to-mask and blend, plus a `W = 1` instantiation so every call
// site compiles — and can be forced to run — scalar. Unlike arbor we do
// not write intrinsics: every operation is a plain per-lane loop over a
// lane array, and the *translation unit* that instantiates a kernel is
// compiled with the target ISA's flags (see src/physics/CMakeLists.txt).
// The compiler turns the lane loops into vector instructions; the types
// only pin down widths, alignment, and lane-exact semantics. That keeps
// one implementation for every backend, makes the scalar fallback the
// definition (not a parallel code path that can drift), and leaves the
// differential tests in tests/core/simd_test.cc meaningful at any width.
//
// Semantics, per lane:
//   * arithmetic and Sqrt are the IEEE-754 operations of T — bit-exact
//     against the scalar expression, NaN/Inf/denormals included;
//   * Fma is std::fma (single rounding); on FMA hardware it compiles to
//     the fused instruction, elsewhere to the correctly-rounded libm
//     call, so results are identical across ISAs;
//   * Min/Max are `b < a ? b : a` / `a < b ? b : a` (NaN in either
//     operand selects the first operand, like the x86 min/max
//     instructions);
//   * comparisons are IEEE (NaN compares false), producing a Mask<W>;
//   * ReduceAdd sums lanes strictly left to right — a fixed, documented
//     order, so reductions are deterministic for a given width.
//
// Width selection: kernels are instantiated per ISA in separate TUs and
// picked at runtime (physics/simd_kernel_dispatch.h). The BIOSIM_SIMD
// environment variable narrows the choice for tests and triage:
// `native` (or unset) uses the widest kernel the CPU supports, `scalar`
// forces the W = 1 instantiation; anything else throws.
#ifndef BIOSIM_CORE_SIMD_H_
#define BIOSIM_CORE_SIMD_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace biosim::simd {

// Every lane loop must inline into the kernel that is compiled with the
// target ISA's flags; an out-of-line copy would be emitted as a weak
// symbol, and the linker could then fold instantiations from TUs built
// for different ISAs into one.
#if defined(__GNUC__) || defined(__clang__)
#define BIOSIM_SIMD_INLINE inline __attribute__((always_inline))
#else
#define BIOSIM_SIMD_INLINE inline
#endif

/// Alignment of the kernels' SoA scratch arrays: one cache line, which
/// also covers the widest vector register in current use (AVX-512).
inline constexpr size_t kAlignment = 64;

/// Lane count the per-ISA kernel TUs instantiate for `T`: sized for
/// 256-bit registers (AVX2; also two NEON registers), the widest ISA the
/// dispatch currently targets.
template <typename T>
inline constexpr int kNativeLanes = 1;
template <>
inline constexpr int kNativeLanes<double> = 4;
template <>
inline constexpr int kNativeLanes<float> = 8;

/// Per-lane boolean result of a comparison; input to Select.
template <int W>
struct Mask {
  static_assert(W >= 1, "Mask needs at least one lane");

  bool lane[W];

  static BIOSIM_SIMD_INLINE Mask None() {
    Mask m;
    for (int i = 0; i < W; ++i) {
      m.lane[i] = false;
    }
    return m;
  }

  BIOSIM_SIMD_INLINE bool AnyTrue() const {
    bool any = false;
    for (int i = 0; i < W; ++i) {
      any = any || lane[i];
    }
    return any;
  }

  BIOSIM_SIMD_INLINE bool AllTrue() const {
    bool all = true;
    for (int i = 0; i < W; ++i) {
      all = all && lane[i];
    }
    return all;
  }

  BIOSIM_SIMD_INLINE int CountTrue() const {
    int count = 0;
    for (int i = 0; i < W; ++i) {
      count += lane[i] ? 1 : 0;
    }
    return count;
  }
};

template <int W>
BIOSIM_SIMD_INLINE Mask<W> And(const Mask<W>& a, const Mask<W>& b) {
  Mask<W> m;
  for (int i = 0; i < W; ++i) {
    m.lane[i] = a.lane[i] && b.lane[i];
  }
  return m;
}

template <int W>
BIOSIM_SIMD_INLINE Mask<W> Or(const Mask<W>& a, const Mask<W>& b) {
  Mask<W> m;
  for (int i = 0; i < W; ++i) {
    m.lane[i] = a.lane[i] || b.lane[i];
  }
  return m;
}

template <int W>
BIOSIM_SIMD_INLINE Mask<W> Not(const Mask<W>& a) {
  Mask<W> m;
  for (int i = 0; i < W; ++i) {
    m.lane[i] = !a.lane[i];
  }
  return m;
}

/// W lanes of T. A plain aggregate: trivially copyable, no implicit
/// conversions, every operation spelled out.
template <typename T, int W>
struct Vec {
  static_assert(W >= 1, "Vec needs at least one lane");

  T lane[W];

  static BIOSIM_SIMD_INLINE Vec Broadcast(T v) {
    Vec r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = v;
    }
    return r;
  }

  static BIOSIM_SIMD_INLINE Vec Zero() { return Broadcast(T{0}); }

  /// Load W contiguous lanes. No alignment requirement, but the kernels
  /// only ever pass pointers into kAlignment-aligned scratch.
  static BIOSIM_SIMD_INLINE Vec Load(const T* p) {
    Vec r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = p[i];
    }
    return r;
  }

  /// Masked tail load: the first `n` lanes from `p`, remaining lanes
  /// zero. `n` must be in [0, W]; `p` is read exactly `n` times, so a
  /// buffer of `n` elements is sufficient.
  static BIOSIM_SIMD_INLINE Vec LoadN(const T* p, int n) {
    Vec r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = i < n ? p[i] : T{0};
    }
    return r;
  }

  BIOSIM_SIMD_INLINE void Store(T* p) const {
    for (int i = 0; i < W; ++i) {
      p[i] = lane[i];
    }
  }

  /// Masked tail store: writes exactly the first `n` lanes; `p[n..]` is
  /// never touched. `n` must be in [0, W].
  BIOSIM_SIMD_INLINE void StoreN(T* p, int n) const {
    for (int i = 0; i < W; ++i) {
      if (i < n) {
        p[i] = lane[i];
      }
    }
  }

  BIOSIM_SIMD_INLINE Vec operator+(const Vec& o) const {
    Vec r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = lane[i] + o.lane[i];
    }
    return r;
  }

  BIOSIM_SIMD_INLINE Vec operator-(const Vec& o) const {
    Vec r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = lane[i] - o.lane[i];
    }
    return r;
  }

  BIOSIM_SIMD_INLINE Vec operator*(const Vec& o) const {
    Vec r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = lane[i] * o.lane[i];
    }
    return r;
  }

  BIOSIM_SIMD_INLINE Vec operator/(const Vec& o) const {
    Vec r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = lane[i] / o.lane[i];
    }
    return r;
  }

  BIOSIM_SIMD_INLINE Vec operator-() const {
    Vec r;
    for (int i = 0; i < W; ++i) {
      r.lane[i] = -lane[i];
    }
    return r;
  }
};

template <typename T, int W>
BIOSIM_SIMD_INLINE Vec<T, W> Fma(const Vec<T, W>& a, const Vec<T, W>& b,
                                 const Vec<T, W>& c) {
  Vec<T, W> r;
  for (int i = 0; i < W; ++i) {
    r.lane[i] = std::fma(a.lane[i], b.lane[i], c.lane[i]);
  }
  return r;
}

template <typename T, int W>
BIOSIM_SIMD_INLINE Vec<T, W> Sqrt(const Vec<T, W>& a) {
  Vec<T, W> r;
  for (int i = 0; i < W; ++i) {
    r.lane[i] = std::sqrt(a.lane[i]);
  }
  return r;
}

template <typename T, int W>
BIOSIM_SIMD_INLINE Vec<T, W> Min(const Vec<T, W>& a, const Vec<T, W>& b) {
  Vec<T, W> r;
  for (int i = 0; i < W; ++i) {
    r.lane[i] = b.lane[i] < a.lane[i] ? b.lane[i] : a.lane[i];
  }
  return r;
}

template <typename T, int W>
BIOSIM_SIMD_INLINE Vec<T, W> Max(const Vec<T, W>& a, const Vec<T, W>& b) {
  Vec<T, W> r;
  for (int i = 0; i < W; ++i) {
    r.lane[i] = a.lane[i] < b.lane[i] ? b.lane[i] : a.lane[i];
  }
  return r;
}

template <typename T, int W>
BIOSIM_SIMD_INLINE Mask<W> Lt(const Vec<T, W>& a, const Vec<T, W>& b) {
  Mask<W> m;
  for (int i = 0; i < W; ++i) {
    m.lane[i] = a.lane[i] < b.lane[i];
  }
  return m;
}

template <typename T, int W>
BIOSIM_SIMD_INLINE Mask<W> Le(const Vec<T, W>& a, const Vec<T, W>& b) {
  Mask<W> m;
  for (int i = 0; i < W; ++i) {
    m.lane[i] = a.lane[i] <= b.lane[i];
  }
  return m;
}

template <typename T, int W>
BIOSIM_SIMD_INLINE Mask<W> Gt(const Vec<T, W>& a, const Vec<T, W>& b) {
  Mask<W> m;
  for (int i = 0; i < W; ++i) {
    m.lane[i] = a.lane[i] > b.lane[i];
  }
  return m;
}

template <typename T, int W>
BIOSIM_SIMD_INLINE Mask<W> Ge(const Vec<T, W>& a, const Vec<T, W>& b) {
  Mask<W> m;
  for (int i = 0; i < W; ++i) {
    m.lane[i] = a.lane[i] >= b.lane[i];
  }
  return m;
}

template <typename T, int W>
BIOSIM_SIMD_INLINE Mask<W> Eq(const Vec<T, W>& a, const Vec<T, W>& b) {
  Mask<W> m;
  for (int i = 0; i < W; ++i) {
    m.lane[i] = a.lane[i] == b.lane[i];
  }
  return m;
}

/// Blend: lane i of the result is t.lane[i] where m, else f.lane[i].
template <typename T, int W>
BIOSIM_SIMD_INLINE Vec<T, W> Select(const Mask<W>& m, const Vec<T, W>& t,
                                    const Vec<T, W>& f) {
  Vec<T, W> r;
  for (int i = 0; i < W; ++i) {
    r.lane[i] = m.lane[i] ? t.lane[i] : f.lane[i];
  }
  return r;
}

/// Horizontal sum in strict lane order: ((lane0 + lane1) + lane2) + ...
/// The order is part of the determinism contract — it makes the kernel's
/// result a function of (inputs, W) only, never of how the compiler
/// would prefer to tree-reduce.
template <typename T, int W>
BIOSIM_SIMD_INLINE T ReduceAdd(const Vec<T, W>& a) {
  T sum = a.lane[0];
  for (int i = 1; i < W; ++i) {
    sum += a.lane[i];
  }
  return sum;
}

/// Width override for tests and triage (docs/determinism.md).
enum class WidthMode : uint8_t {
  kNative,  // widest kernel the CPU supports (the default)
  kScalar,  // force the W = 1 instantiation
};

/// Parse BIOSIM_SIMD: unset/empty/"native" -> kNative, "scalar" ->
/// kScalar, anything else throws (typos must not silently change which
/// kernel a determinism run exercised).
inline WidthMode WidthModeFromEnv() {
  const char* v = std::getenv("BIOSIM_SIMD");
  if (v == nullptr || v[0] == '\0' || std::strcmp(v, "native") == 0) {
    return WidthMode::kNative;
  }
  if (std::strcmp(v, "scalar") == 0) {
    return WidthMode::kScalar;
  }
  throw std::invalid_argument(
      std::string("BIOSIM_SIMD must be 'scalar' or 'native', got '") + v +
      "'");
}

/// Runtime ISA probe for the kernel dispatch. Compile-time support for
/// the AVX2 TU is a separate question (BIOSIM_SIMD_HAS_AVX2_TU).
inline bool HasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace biosim::simd

#endif  // BIOSIM_CORE_SIMD_H_
