// Property tests for the portable SIMD layer (core/simd.h): every
// operation must agree lane-for-lane, bit-for-bit, with the scalar
// expression that defines it — across widths (1, 2, 4, 8), across
// element types (double, float), for masked tails of every length, and
// on the unfriendly inputs (NaN, infinities, denormals, signed zero)
// that a branchless kernel feeds through its inactive lanes. The SIMD
// force kernel's differential tests (tests/physics/simd_force_diff_test)
// build on these per-op guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/simd.h"

namespace biosim::simd {
namespace {

// Bitwise equality: the only meaningful comparison when NaN payloads and
// signed zeros are part of the contract.
template <typename T>
bool BitEqual(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// The unfriendly-value pool every lane combination draws from.
template <typename T>
std::vector<T> SpecialValues() {
  const T inf = std::numeric_limits<T>::infinity();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  return {T{0},
          -T{0},
          T{1},
          -T{1},
          T{0.5},
          T{-2.5},
          std::numeric_limits<T>::denorm_min(),
          -std::numeric_limits<T>::denorm_min(),
          std::numeric_limits<T>::min(),
          std::numeric_limits<T>::max(),
          inf,
          -inf,
          nan,
          static_cast<T>(1e18),
          static_cast<T>(-3.7e-9)};
}

/// Two deterministic input vectors whose lanes cycle through the special
/// pool with different offsets, so every (special, special) pairing is
/// hit across the sweep, plus uniformly random fill.
template <typename T, int W>
void FillInputs(int round, Vec<T, W>* a, Vec<T, W>* b) {
  const std::vector<T> pool = SpecialValues<T>();
  if (round < static_cast<int>(pool.size())) {
    for (int i = 0; i < W; ++i) {
      a->lane[i] = pool[(i + round) % pool.size()];
      b->lane[i] = pool[(i * 3 + round * 7) % pool.size()];
    }
    return;
  }
  std::mt19937_64 rng(1234u + static_cast<unsigned>(round));
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (int i = 0; i < W; ++i) {
    a->lane[i] = static_cast<T>(dist(rng));
    b->lane[i] = static_cast<T>(dist(rng));
  }
}

constexpr int kRounds = 40;  // specials first, then random fills

template <typename T, int W>
void CheckArithmetic() {
  for (int round = 0; round < kRounds; ++round) {
    Vec<T, W> a;
    Vec<T, W> b;
    FillInputs(round, &a, &b);
    const Vec<T, W> sum = a + b;
    const Vec<T, W> diff = a - b;
    const Vec<T, W> prod = a * b;
    const Vec<T, W> quot = a / b;
    const Vec<T, W> neg = -a;
    for (int i = 0; i < W; ++i) {
      EXPECT_TRUE(BitEqual(sum.lane[i], static_cast<T>(a.lane[i] + b.lane[i])))
          << "lane " << i << " round " << round;
      EXPECT_TRUE(BitEqual(diff.lane[i], static_cast<T>(a.lane[i] - b.lane[i])));
      EXPECT_TRUE(BitEqual(prod.lane[i], static_cast<T>(a.lane[i] * b.lane[i])));
      EXPECT_TRUE(BitEqual(quot.lane[i], static_cast<T>(a.lane[i] / b.lane[i])));
      EXPECT_TRUE(BitEqual(neg.lane[i], static_cast<T>(-a.lane[i])));
    }
  }
}

template <typename T, int W>
void CheckFmaSqrtMinMax() {
  for (int round = 0; round < kRounds; ++round) {
    Vec<T, W> a;
    Vec<T, W> b;
    FillInputs(round, &a, &b);
    Vec<T, W> c;
    Vec<T, W> unused;
    FillInputs(round + 3, &c, &unused);
    const Vec<T, W> fma = Fma(a, b, c);
    const Vec<T, W> sq = Sqrt(a);
    const Vec<T, W> mn = Min(a, b);
    const Vec<T, W> mx = Max(a, b);
    for (int i = 0; i < W; ++i) {
      EXPECT_TRUE(BitEqual(fma.lane[i],
                           std::fma(a.lane[i], b.lane[i], c.lane[i])))
          << "lane " << i << " round " << round;
      EXPECT_TRUE(BitEqual(sq.lane[i], std::sqrt(a.lane[i])));
      // Min/Max: `b < a ? b : a` — NaN in either operand yields the
      // first operand, the x86 minpd/maxpd convention.
      EXPECT_TRUE(BitEqual(
          mn.lane[i],
          static_cast<T>(b.lane[i] < a.lane[i] ? b.lane[i] : a.lane[i])));
      EXPECT_TRUE(BitEqual(
          mx.lane[i],
          static_cast<T>(a.lane[i] < b.lane[i] ? b.lane[i] : a.lane[i])));
    }
  }
}

template <typename T, int W>
void CheckComparisonsAndSelect() {
  for (int round = 0; round < kRounds; ++round) {
    Vec<T, W> a;
    Vec<T, W> b;
    FillInputs(round, &a, &b);
    const Mask<W> lt = Lt(a, b);
    const Mask<W> le = Le(a, b);
    const Mask<W> gt = Gt(a, b);
    const Mask<W> ge = Ge(a, b);
    const Mask<W> eq = Eq(a, b);
    const Vec<T, W> sel = Select(lt, a, b);
    for (int i = 0; i < W; ++i) {
      // IEEE semantics: every ordered comparison involving NaN is false.
      EXPECT_EQ(lt.lane[i], a.lane[i] < b.lane[i]);
      EXPECT_EQ(le.lane[i], a.lane[i] <= b.lane[i]);
      EXPECT_EQ(gt.lane[i], a.lane[i] > b.lane[i]);
      EXPECT_EQ(ge.lane[i], a.lane[i] >= b.lane[i]);
      EXPECT_EQ(eq.lane[i], a.lane[i] == b.lane[i]);
      EXPECT_TRUE(BitEqual(sel.lane[i],
                           lt.lane[i] ? a.lane[i] : b.lane[i]));
    }
  }
}

template <typename T, int W>
void CheckLoadStoreAndTails() {
  alignas(kAlignment) T src[W];
  for (int i = 0; i < W; ++i) {
    src[i] = static_cast<T>(i + 1) * static_cast<T>(1.25);
  }
  const Vec<T, W> v = Vec<T, W>::Load(src);
  alignas(kAlignment) T dst[W];
  v.Store(dst);
  for (int i = 0; i < W; ++i) {
    EXPECT_TRUE(BitEqual(v.lane[i], src[i]));
    EXPECT_TRUE(BitEqual(dst[i], src[i]));
  }

  for (int n = 0; n <= W; ++n) {
    // Heap buffers of exactly n elements: under ASan, LoadN reading or
    // StoreN writing one element past `n` is a hard failure, which
    // pins the "reads/writes exactly n" contract.
    std::vector<T> tail_src(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      tail_src[static_cast<size_t>(i)] = static_cast<T>(10 + i);
    }
    const Vec<T, W> tv = Vec<T, W>::LoadN(tail_src.data(), n);
    for (int i = 0; i < W; ++i) {
      EXPECT_TRUE(BitEqual(tv.lane[i], i < n
                                           ? tail_src[static_cast<size_t>(i)]
                                           : T{0}))
          << "n=" << n << " lane " << i;
    }
    std::vector<T> tail_dst(static_cast<size_t>(n));
    tv.StoreN(tail_dst.data(), n);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEqual(tail_dst[static_cast<size_t>(i)], tv.lane[i]));
    }
    // And with headroom: lanes at n.. must stay untouched.
    T guarded[W + 1];
    const T sentinel = static_cast<T>(-777);
    for (int i = 0; i < W + 1; ++i) {
      guarded[i] = sentinel;
    }
    tv.StoreN(guarded, n);
    for (int i = n; i < W + 1; ++i) {
      EXPECT_TRUE(BitEqual(guarded[i], sentinel)) << "n=" << n << " i=" << i;
    }
  }
}

template <typename T, int W>
void CheckMaskOps() {
  // Exhaustive over all 2^W lane patterns (W <= 8 -> <= 256).
  for (unsigned bits = 0; bits < (1u << W); ++bits) {
    Mask<W> m;
    int expect_count = 0;
    for (int i = 0; i < W; ++i) {
      m.lane[i] = (bits >> i) & 1u;
      expect_count += m.lane[i] ? 1 : 0;
    }
    EXPECT_EQ(m.CountTrue(), expect_count);
    EXPECT_EQ(m.AnyTrue(), bits != 0);
    EXPECT_EQ(m.AllTrue(), bits == (1u << W) - 1u);
    const Mask<W> inv = Not(m);
    for (unsigned other = 0; other < (1u << W); ++other) {
      Mask<W> o;
      for (int i = 0; i < W; ++i) {
        o.lane[i] = (other >> i) & 1u;
      }
      const Mask<W> both = And(m, o);
      const Mask<W> either = Or(m, o);
      for (int i = 0; i < W; ++i) {
        EXPECT_EQ(both.lane[i], m.lane[i] && o.lane[i]);
        EXPECT_EQ(either.lane[i], m.lane[i] || o.lane[i]);
        EXPECT_EQ(inv.lane[i], !m.lane[i]);
      }
    }
  }
  EXPECT_FALSE(Mask<W>::None().AnyTrue());
  EXPECT_EQ(Mask<W>::None().CountTrue(), 0);
}

template <typename T, int W>
void CheckReduceAdd() {
  // Strict left-to-right order, witnessed by catastrophic cancellation:
  // lanes {big, 1, -big, 1} sum to exactly 1 left-to-right (big + 1
  // rounds back to big: at 2^54 the ulp is 4 in double, so +1 is below
  // the halfway point and drops without even invoking the tie rule —
  // and float loses it long before), while a pairwise tree would
  // produce 0. Only meaningful at W >= 4; narrower widths still check
  // the plain sum.
  Vec<T, W> v = Vec<T, W>::Zero();
  if (W >= 4) {
    const T big = static_cast<T>(18014398509481984.0);  // 2^54
    v.lane[0] = big;
    v.lane[1] = T{1};
    v.lane[2] = -big;
    v.lane[3] = T{1};
    EXPECT_TRUE(BitEqual(ReduceAdd(v), T{1}));
  }
  for (int round = 0; round < kRounds; ++round) {
    Vec<T, W> a;
    Vec<T, W> b;
    FillInputs(round, &a, &b);
    T want = a.lane[0];
    for (int i = 1; i < W; ++i) {
      want += a.lane[i];
    }
    EXPECT_TRUE(BitEqual(ReduceAdd(a), want)) << "round " << round;
  }
}

// One instantiation sweep shared by all the TEST bodies below: the
// layer must behave identically at every width a kernel TU can pick.
#define BIOSIM_SIMD_TEST_ALL_WIDTHS(fn)   \
  do {                                    \
    fn<double, 1>();                      \
    fn<double, 2>();                      \
    fn<double, 4>();                      \
    fn<double, 8>();                      \
    fn<float, 1>();                       \
    fn<float, 2>();                       \
    fn<float, 4>();                       \
    fn<float, 8>();                       \
  } while (0)

TEST(SimdVecTest, ArithmeticMatchesScalarLaneForLane) {
  BIOSIM_SIMD_TEST_ALL_WIDTHS(CheckArithmetic);
}

TEST(SimdVecTest, FmaSqrtMinMaxMatchScalarIncludingNaN) {
  BIOSIM_SIMD_TEST_ALL_WIDTHS(CheckFmaSqrtMinMax);
}

TEST(SimdVecTest, ComparisonsAndSelectAreIeeeLanewise) {
  BIOSIM_SIMD_TEST_ALL_WIDTHS(CheckComparisonsAndSelect);
}

TEST(SimdVecTest, LoadStoreAndMaskedTailsTouchExactlyN) {
  BIOSIM_SIMD_TEST_ALL_WIDTHS(CheckLoadStoreAndTails);
}

TEST(SimdMaskTest, MaskOpsExhaustiveOverAllPatterns) {
  BIOSIM_SIMD_TEST_ALL_WIDTHS(CheckMaskOps);
}

TEST(SimdVecTest, ReduceAddIsStrictlyLeftToRight) {
  BIOSIM_SIMD_TEST_ALL_WIDTHS(CheckReduceAdd);
}

TEST(SimdVecTest, BroadcastAndZeroFillEveryLane) {
  const auto v = Vec<double, 4>::Broadcast(-2.5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(v.lane[i], -2.5);
  }
  const auto z = Vec<float, 8>::Zero();
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(BitEqual(z.lane[i], 0.0f));
  }
}

TEST(SimdLayerTest, NativeLaneCountsMatchTheAvx2Registers) {
  EXPECT_EQ(kNativeLanes<double>, 4);  // 256-bit / 64-bit lanes
  EXPECT_EQ(kNativeLanes<float>, 8);   // 256-bit / 32-bit lanes
  EXPECT_EQ(kNativeLanes<int32_t>, 1); // only FP types are widened
  // The scratch alignment must cover the widest vector in use.
  EXPECT_GE(kAlignment, sizeof(double) * kNativeLanes<double>);
  EXPECT_EQ(kAlignment % 64, 0u);
}

class WidthModeEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("BIOSIM_SIMD");
    had_prev_ = prev != nullptr;
    if (had_prev_) {
      prev_ = prev;
    }
  }
  void TearDown() override {
    if (had_prev_) {
      setenv("BIOSIM_SIMD", prev_.c_str(), 1);
    } else {
      unsetenv("BIOSIM_SIMD");
    }
  }
  bool had_prev_ = false;
  std::string prev_;
};

TEST_F(WidthModeEnvTest, UnsetEmptyAndNativeAllMeanNative) {
  unsetenv("BIOSIM_SIMD");
  EXPECT_EQ(WidthModeFromEnv(), WidthMode::kNative);
  setenv("BIOSIM_SIMD", "", 1);
  EXPECT_EQ(WidthModeFromEnv(), WidthMode::kNative);
  setenv("BIOSIM_SIMD", "native", 1);
  EXPECT_EQ(WidthModeFromEnv(), WidthMode::kNative);
}

TEST_F(WidthModeEnvTest, ScalarSelectsScalarWidth) {
  setenv("BIOSIM_SIMD", "scalar", 1);
  EXPECT_EQ(WidthModeFromEnv(), WidthMode::kScalar);
}

TEST_F(WidthModeEnvTest, UnknownValueThrowsInsteadOfGuessing) {
  // A typo must not silently change which kernel a determinism run
  // exercised.
  for (const char* bad : {"avx2", "SCALAR", "1", "wide", "Native"}) {
    setenv("BIOSIM_SIMD", bad, 1);
    EXPECT_THROW(WidthModeFromEnv(), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace biosim::simd
