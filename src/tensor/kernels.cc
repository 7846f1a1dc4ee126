#include "tensor/kernels.h"

#include <cmath>
#include <type_traits>

#if defined(ROTOM_SIMD_AVX2)
#include <immintrin.h>
#elif defined(ROTOM_SIMD_NEON)
#include <arm_neon.h>
#endif

#include "obs/metrics.h"
#include "tensor/kernels_serial.h"

namespace rotom {
namespace kernels {

namespace {

// Serial cores live in kernels_serial.h (namespace sref): each computes a
// contiguous range of *output rows* of a single problem, so the parallel
// entry points can hand disjoint row ranges to pool threads. In this TU
// they are the fallback flavor; when built with ROTOM_SIMD_AVX2 /
// ROTOM_SIMD_NEON a vectorized version (namespace simd) with the same
// signature and the same per-row/per-element traversal order takes over.
// `namespace active` below picks the flavor at compile time for the public
// entry points. The kernels::scalar reference wrappers live in
// kernels_scalar.cc, compiled without the ISA flags.

using sref::kTileJ;
using sref::kTileK;
using sref::kTileL;

#if defined(ROTOM_SIMD_AVX2)

namespace simd {

// Fixed-order horizontal reductions: lanes are combined the same way every
// call, so within this build flavor results stay run-to-run and
// thread-count invariant.
inline float HSum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline float HMax(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

inline double HSumD(__m256d v) {
  __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                         _mm256_extractf128_pd(v, 1));
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

// Register-blocked GEMM cores. A block of C (up to 4 rows x 16 columns, the
// last 8-column vector lane-masked over a ragged column tail) is loaded into
// ymm registers once, takes every term of its reduction, and is stored once.
// Each element still receives exactly the serial core's terms in its order,
// one fma per term (AB: k ascending; ATB: the A/B row ascending, zero A
// entries skipped), so block shape, ragged edges and the chunk edges that
// shrink a block change only when C is stored, never what is stored.

// First `w` of 8 lanes on (1 <= w <= 8).
inline __m256i LaneMask(int64_t w) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(w)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// The v-th vector of a block row; in a kMasked block the last one is masked
// (masked-off lanes load as 0 and are never stored).
template <int kVecs, bool kMasked>
inline __m256 LoadVec(const float* p, int v, __m256i mask) {
  return kMasked && v == kVecs - 1 ? _mm256_maskload_ps(p + 8 * v, mask)
                                   : _mm256_loadu_ps(p + 8 * v);
}

template <int kVecs, bool kMasked>
inline void StoreVec(float* p, int v, __m256i mask, __m256 x) {
  if (kMasked && v == kVecs - 1) {
    _mm256_maskstore_ps(p + 8 * v, mask, x);
  } else {
    _mm256_storeu_ps(p + 8 * v, x);
  }
}

// One block: C[r, cols] += sum over t < len of A(r, t) * B[t, cols], with
// A(r, t) = a[r * a_rs + t * a_ts], B rows n floats apart from b, C rows n
// floats apart from c. kSkipZeros drops the terms whose A(r, t) is zero;
// the blend leaves C exactly as it was, even where B holds inf or NaN. The
// unroll pragmas keep acc in registers (GCC otherwise may also write it
// back to the stack every term).
template <int kRows, int kVecs, bool kMasked, bool kSkipZeros>
inline void GemmBlock(const float* a, int64_t a_rs, int64_t a_ts,
                      const float* b, int64_t len, float* c, int64_t n,
                      __m256i mask) {
  __m256 acc[kRows][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v)
      acc[r][v] = LoadVec<kVecs, kMasked>(c + r * n, v, mask);
  for (int64_t t = 0; t < len; ++t) {
    __m256 bv[kVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v)
      bv[v] = LoadVec<kVecs, kMasked>(b + t * n, v, mask);
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * a_rs + t * a_ts);
      const __m256 skip = _mm256_cmp_ps(av, _mm256_setzero_ps(), _CMP_EQ_OQ);
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        const __m256 sum = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        acc[r][v] = kSkipZeros ? _mm256_blendv_ps(sum, acc[r][v], skip) : sum;
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v)
      StoreVec<kVecs, kMasked>(c + r * n, v, mask, acc[r][v]);
}

// kRows full rows of C, left to right in 16-, 8- and masked-column blocks.
template <int kRows, bool kSkipZeros>
void GemmRowBlock(const float* a, int64_t a_rs, int64_t a_ts, const float* b,
                  int64_t len, float* c, int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    GemmBlock<kRows, 2, false, kSkipZeros>(a, a_rs, a_ts, b + j, len, c + j,
                                           n, __m256i{});
  }
  if (j + 8 <= n) {
    GemmBlock<kRows, 1, false, kSkipZeros>(a, a_rs, a_ts, b + j, len, c + j,
                                           n, __m256i{});
    j += 8;
  }
  if (j < n) {
    GemmBlock<kRows, 1, true, kSkipZeros>(a, a_rs, a_ts, b + j, len, c + j, n,
                                          LaneMask(n - j));
  }
}

// Calls fn(rows, r) for row blocks of rows = 4 covering [r0, r1), the last
// one ragged (rows is a std::integral_constant, usable as a template
// argument).
template <typename Fn>
inline void ForRowBlocks(int64_t r0, int64_t r1, Fn fn) {
  int64_t r = r0;
  for (; r + 4 <= r1; r += 4) fn(std::integral_constant<int, 4>{}, r);
  switch (r1 - r) {
    case 3: fn(std::integral_constant<int, 3>{}, r); break;
    case 2: fn(std::integral_constant<int, 2>{}, r); break;
    case 1: fn(std::integral_constant<int, 1>{}, r); break;
    default: break;
  }
}

void GemmABRowRange(const float* a, const float* b, float* c, int64_t i0,
                    int64_t i1, int64_t k, int64_t n) {
  ForRowBlocks(i0, i1, [&](auto rows, int64_t i) {
    GemmRowBlock<rows, false>(a + i * k, k, 1, b, k, c + i * n, n);
  });
}

// Dot products run in 8 accumulator lanes summed in a fixed order, then the
// scalar tail (k % 8) is folded in last — a per-build-flavor order, still
// independent of chunking.
void GemmABTRowRange(const float* a, const float* b, float* c, int64_t i0,
                     int64_t i1, int64_t k, int64_t n) {
  for (int64_t j0 = 0; j0 < n; j0 += kTileJ) {
    const int64_t j1 = std::min(n, j0 + kTileJ);
    for (int64_t i = i0; i < i1; ++i) {
      const float* ar = a + i * k;
      float* cr = c + i * n;
      int64_t j = j0;
      for (; j + 4 <= j1; j += 4) {
        const float* b0 = b + (j + 0) * k;
        const float* b1 = b + (j + 1) * k;
        const float* b2 = b + (j + 2) * k;
        const float* b3 = b + (j + 3) * k;
        __m256 v0 = _mm256_setzero_ps();
        __m256 v1 = _mm256_setzero_ps();
        __m256 v2 = _mm256_setzero_ps();
        __m256 v3 = _mm256_setzero_ps();
        int64_t l = 0;
        for (; l + 8 <= k; l += 8) {
          const __m256 av = _mm256_loadu_ps(ar + l);
          v0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + l), v0);
          v1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + l), v1);
          v2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + l), v2);
          v3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + l), v3);
        }
        float acc0 = HSum(v0), acc1 = HSum(v1), acc2 = HSum(v2),
              acc3 = HSum(v3);
        for (; l < k; ++l) {
          const float av = ar[l];
          acc0 += av * b0[l];
          acc1 += av * b1[l];
          acc2 += av * b2[l];
          acc3 += av * b3[l];
        }
        cr[j + 0] += acc0;
        cr[j + 1] += acc1;
        cr[j + 2] += acc2;
        cr[j + 3] += acc3;
      }
      for (; j < j1; ++j) {
        const float* br = b + j * k;
        __m256 v = _mm256_setzero_ps();
        int64_t l = 0;
        for (; l + 8 <= k; l += 8) {
          v = _mm256_fmadd_ps(_mm256_loadu_ps(ar + l),
                              _mm256_loadu_ps(br + l), v);
        }
        float acc = HSum(v);
        for (; l < k; ++l) acc += ar[l] * br[l];
        cr[j] += acc;
      }
    }
  }
}

void GemmATBRowRange(const float* a, const float* b, float* c, int64_t l0,
                     int64_t l1, int64_t m, int64_t k, int64_t n) {
  // As in the scalar core, a term whose A entry is zero is skipped.
  ForRowBlocks(l0, l1, [&](auto rows, int64_t l) {
    GemmRowBlock<rows, true>(a + l, 1, k, b, m, c + l * n, n);
  });
}

// e^v over 8 lanes, the exp behind the AVX2 GELU and softmax. Cody–Waite
// range reduction v = n·ln2 + r with |r| <= ln2/2, e^r from the Cephes expf
// polynomial, 2^n built in the exponent field. The argument is clamped to
// [kExpLo, kExpHi] so that no lane leaves the normal range: below kExpLo
// the result is exactly 0 (where libm gives a denormal or 0), above kExpHi
// it saturates at e^87. NaN propagates (max/min return their second operand
// on NaN, and the compare that zeroes low lanes is false for NaN).
constexpr float kExpLo = -87.0f;
constexpr float kExpHi = 87.0f;

inline __m256 Exp(__m256 v) {
  const __m256 x = _mm256_min_ps(_mm256_set1_ps(kExpHi),
                                 _mm256_max_ps(_mm256_set1_ps(kExpLo), v));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  const __m256 scale = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23));
  return _mm256_andnot_ps(
      _mm256_cmp_ps(v, _mm256_set1_ps(kExpLo), _CMP_LT_OQ),
      _mm256_mul_ps(p, scale));
}

// The ragged tail of an elementwise loop as a zero-padded 8-float block, so
// the tail runs the same vector code as the body: an element's result never
// depends on where it sits in the buffer.
struct TailBlock {
  alignas(32) float v[8] = {};
  TailBlock(const float* src, int64_t m) { std::copy(src, src + m, v); }
  __m256 Load() const { return _mm256_load_ps(v); }
};

// gelu(x) = 0.5·x·(1 + tanh u) = x·σ(2u) = x / (1 + e^(−2u)), where
// −2u = x·(kNeg2C + kNeg2CA·x²).
constexpr float kNeg2C = -2.0f * sref::kGeluSqrt2OverPi;
constexpr float kNeg2CA = kNeg2C * sref::kGeluCubic;

inline __m256 GeluExpNeg2U(__m256 x) {
  const __m256 x2 = _mm256_mul_ps(x, x);
  return Exp(_mm256_mul_ps(
      x, _mm256_fmadd_ps(_mm256_set1_ps(kNeg2CA), x2,
                         _mm256_set1_ps(kNeg2C))));
}

inline __m256 Gelu(__m256 x) {
  return _mm256_div_ps(x, _mm256_add_ps(_mm256_set1_ps(1.0f),
                                        GeluExpNeg2U(x)));
}

// gelu'(x) = s + 2x·s(1−s)·u' with s = σ(2u) = 1/(1+e), 1−s = e·s and
// 2u' = 2c + 6c·0.044715·x², i.e. s·(1 + x·(e·s)·2u').
inline __m256 GeluGrad(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = GeluExpNeg2U(x);
  const __m256 s = _mm256_div_ps(one, _mm256_add_ps(one, e));
  const __m256 two_du = _mm256_fmadd_ps(_mm256_set1_ps(-3.0f * kNeg2CA),
                                        _mm256_mul_ps(x, x),
                                        _mm256_set1_ps(-kNeg2C));
  const __m256 t =
      _mm256_mul_ps(_mm256_mul_ps(x, _mm256_mul_ps(e, s)), two_du);
  return _mm256_fmadd_ps(s, t, s);
}

void GeluRange(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, Gelu(_mm256_loadu_ps(x + i)));
  if (i < n) {
    TailBlock b(x + i, n - i);
    _mm256_store_ps(b.v, Gelu(b.Load()));
    std::copy(b.v, b.v + (n - i), y + i);
  }
}

void GeluBackwardRange(const float* x, const float* gy, float* gx,
                       int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(gx + i,
                     _mm256_fmadd_ps(_mm256_loadu_ps(gy + i),
                                     GeluGrad(_mm256_loadu_ps(x + i)),
                                     _mm256_loadu_ps(gx + i)));
  }
  if (i < n) {
    const TailBlock bx(x + i, n - i), bg(gy + i, n - i);
    TailBlock acc(gx + i, n - i);
    _mm256_store_ps(acc.v, _mm256_fmadd_ps(bg.Load(), GeluGrad(bx.Load()),
                                           acc.Load()));
    std::copy(acc.v, acc.v + (n - i), gx + i);
  }
}

// exp(row − max) is the vector Exp above (the scalar flavor keeps libm; the
// flavors agree within 1e-6). The sum runs 8 lanes folded in a fixed order,
// then the tail lanes in order; the tail goes through a TailBlock, so a
// row's result depends only on the row.
void SoftmaxRow(const float* row, float* orow, int64_t cols) {
  float mx = row[0];
  int64_t j = 1;
  if (cols >= 9) {
    __m256 vmx = _mm256_loadu_ps(row);
    for (j = 8; j + 8 <= cols; j += 8)
      vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(row + j));
    mx = HMax(vmx);
  }
  for (; j < cols; ++j) mx = std::max(mx, row[j]);
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  int64_t je = 0;
  for (; je + 8 <= cols; je += 8) {
    const __m256 e = Exp(_mm256_sub_ps(_mm256_loadu_ps(row + je), vmx));
    _mm256_storeu_ps(orow + je, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum = HSum(vsum);
  if (je < cols) {
    TailBlock b(row + je, cols - je);
    _mm256_store_ps(b.v, Exp(_mm256_sub_ps(b.Load(), vmx)));
    for (int64_t t = 0; t < cols - je; ++t) {
      orow[je + t] = b.v[t];
      sum += b.v[t];
    }
  }
  const __m256 vs = _mm256_set1_ps(sum);
  int64_t jd = 0;
  for (; jd + 8 <= cols; jd += 8) {
    _mm256_storeu_ps(orow + jd, _mm256_div_ps(_mm256_loadu_ps(orow + jd), vs));
  }
  for (; jd < cols; ++jd) orow[jd] /= sum;
}

// Mean/variance accumulate in 4 double lanes (the scalar core also
// accumulates in double); the normalize loop runs 8 float lanes.
void LayerNormRow(const float* row, const float* gamma, const float* beta,
                  float eps, float* yr, float* xhr, float* istd_out,
                  int64_t cols) {
  __m256d vsum = _mm256_setzero_pd();
  int64_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    vsum = _mm256_add_pd(vsum, _mm256_cvtps_pd(_mm_loadu_ps(row + j)));
  }
  double mu = HSumD(vsum);
  for (; j < cols; ++j) mu += row[j];
  mu /= cols;
  const __m256d vmu = _mm256_set1_pd(mu);
  __m256d vvar = _mm256_setzero_pd();
  for (j = 0; j + 4 <= cols; j += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(row + j)), vmu);
    vvar = _mm256_fmadd_pd(d, d, vvar);
  }
  double var = HSumD(vvar);
  for (; j < cols; ++j) {
    const double diff = row[j] - mu;
    var += diff * diff;
  }
  var /= cols;
  const float istd = 1.0f / std::sqrt(static_cast<float>(var) + eps);
  *istd_out = istd;
  const float muf = static_cast<float>(mu);
  const __m256 vmuf = _mm256_set1_ps(muf);
  const __m256 vistd = _mm256_set1_ps(istd);
  for (j = 0; j + 8 <= cols; j += 8) {
    const __m256 xh =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + j), vmuf), vistd);
    _mm256_storeu_ps(xhr + j, xh);
    _mm256_storeu_ps(
        yr + j,
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(gamma + j), xh),
                      _mm256_loadu_ps(beta + j)));
  }
  for (; j < cols; ++j) {
    xhr[j] = (row[j] - muf) * istd;
    yr[j] = gamma[j] * xhr[j] + beta[j];
  }
}

void AxpyRange(const float* x, float* y, int64_t n, float alpha) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace simd

#elif defined(ROTOM_SIMD_NEON)

namespace simd {

void GemmABRowRange(const float* a, const float* b, float* c, int64_t i0,
                    int64_t i1, int64_t k, int64_t n) {
  for (int64_t l0 = 0; l0 < k; l0 += kTileK) {
    const int64_t l1 = std::min(k, l0 + kTileK);
    for (int64_t i = i0; i < i1; ++i) {
      const float* ar = a + i * k;
      float* cr = c + i * n;
      for (int64_t l = l0; l < l1; ++l) {
        const float av = ar[l];
        const float32x4_t avv = vdupq_n_f32(av);
        const float* br = b + l * n;
        int64_t j = 0;
        for (; j + 4 <= n; j += 4) {
          vst1q_f32(cr + j,
                    vfmaq_f32(vld1q_f32(cr + j), avv, vld1q_f32(br + j)));
        }
        for (; j < n; ++j) cr[j] += av * br[j];
      }
    }
  }
}

void GemmABTRowRange(const float* a, const float* b, float* c, int64_t i0,
                     int64_t i1, int64_t k, int64_t n) {
  for (int64_t j0 = 0; j0 < n; j0 += kTileJ) {
    const int64_t j1 = std::min(n, j0 + kTileJ);
    for (int64_t i = i0; i < i1; ++i) {
      const float* ar = a + i * k;
      float* cr = c + i * n;
      for (int64_t j = j0; j < j1; ++j) {
        const float* br = b + j * k;
        float32x4_t v = vdupq_n_f32(0.0f);
        int64_t l = 0;
        for (; l + 4 <= k; l += 4) {
          v = vfmaq_f32(v, vld1q_f32(ar + l), vld1q_f32(br + l));
        }
        float acc = vaddvq_f32(v);
        for (; l < k; ++l) acc += ar[l] * br[l];
        cr[j] += acc;
      }
    }
  }
}

void GemmATBRowRange(const float* a, const float* b, float* c, int64_t l0,
                     int64_t l1, int64_t m, int64_t k, int64_t n) {
  for (int64_t lb = l0; lb < l1; lb += kTileL) {
    const int64_t le = std::min(l1, lb + kTileL);
    for (int64_t i = 0; i < m; ++i) {
      const float* ar = a + i * k;
      const float* br = b + i * n;
      for (int64_t l = lb; l < le; ++l) {
        const float av = ar[l];
        if (av == 0.0f) continue;  // gradients are often sparse (relu, drop)
        float* cr = c + l * n;
        const float32x4_t avv = vdupq_n_f32(av);
        int64_t j = 0;
        for (; j + 4 <= n; j += 4) {
          vst1q_f32(cr + j,
                    vfmaq_f32(vld1q_f32(cr + j), avv, vld1q_f32(br + j)));
        }
        for (; j < n; ++j) cr[j] += av * br[j];
      }
    }
  }
}

// GELU keeps libm's tanh on NEON, exactly as the scalar flavor.
using sref::GeluBackwardRange;
using sref::GeluRange;

void SoftmaxRow(const float* row, float* orow, int64_t cols) {
  float mx = row[0];
  int64_t j = 1;
  if (cols >= 5) {
    float32x4_t vmx = vld1q_f32(row);
    for (j = 4; j + 4 <= cols; j += 4) vmx = vmaxq_f32(vmx, vld1q_f32(row + j));
    mx = vmaxvq_f32(vmx);
  }
  for (; j < cols; ++j) mx = std::max(mx, row[j]);
  float sum = 0.0f;
  for (int64_t jj = 0; jj < cols; ++jj) {
    orow[jj] = std::exp(row[jj] - mx);
    sum += orow[jj];
  }
  const float32x4_t vs = vdupq_n_f32(sum);
  int64_t jd = 0;
  for (; jd + 4 <= cols; jd += 4) {
    vst1q_f32(orow + jd, vdivq_f32(vld1q_f32(orow + jd), vs));
  }
  for (; jd < cols; ++jd) orow[jd] /= sum;
}

void LayerNormRow(const float* row, const float* gamma, const float* beta,
                  float eps, float* yr, float* xhr, float* istd_out,
                  int64_t cols) {
  float64x2_t vsum = vdupq_n_f64(0.0);
  int64_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const float32x4_t v = vld1q_f32(row + j);
    vsum = vaddq_f64(vsum, vcvt_f64_f32(vget_low_f32(v)));
    vsum = vaddq_f64(vsum, vcvt_f64_f32(vget_high_f32(v)));
  }
  double mu = vaddvq_f64(vsum);
  for (; j < cols; ++j) mu += row[j];
  mu /= cols;
  const float64x2_t vmu = vdupq_n_f64(mu);
  float64x2_t vvar = vdupq_n_f64(0.0);
  for (j = 0; j + 4 <= cols; j += 4) {
    const float32x4_t v = vld1q_f32(row + j);
    const float64x2_t dlo = vsubq_f64(vcvt_f64_f32(vget_low_f32(v)), vmu);
    const float64x2_t dhi = vsubq_f64(vcvt_f64_f32(vget_high_f32(v)), vmu);
    vvar = vfmaq_f64(vvar, dlo, dlo);
    vvar = vfmaq_f64(vvar, dhi, dhi);
  }
  double var = vaddvq_f64(vvar);
  for (; j < cols; ++j) {
    const double diff = row[j] - mu;
    var += diff * diff;
  }
  var /= cols;
  const float istd = 1.0f / std::sqrt(static_cast<float>(var) + eps);
  *istd_out = istd;
  const float muf = static_cast<float>(mu);
  const float32x4_t vmuf = vdupq_n_f32(muf);
  const float32x4_t vistd = vdupq_n_f32(istd);
  for (j = 0; j + 4 <= cols; j += 4) {
    const float32x4_t xh =
        vmulq_f32(vsubq_f32(vld1q_f32(row + j), vmuf), vistd);
    vst1q_f32(xhr + j, xh);
    vst1q_f32(yr + j,
              vaddq_f32(vmulq_f32(vld1q_f32(gamma + j), xh),
                        vld1q_f32(beta + j)));
  }
  for (; j < cols; ++j) {
    xhr[j] = (row[j] - muf) * istd;
    yr[j] = gamma[j] * xhr[j] + beta[j];
  }
}

void AxpyRange(const float* x, float* y, int64_t n, float alpha) {
  const float32x4_t va = vdupq_n_f32(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace simd

#endif  // ROTOM_SIMD_AVX2 / ROTOM_SIMD_NEON

#if defined(ROTOM_SIMD_AVX2) || defined(ROTOM_SIMD_NEON)
namespace active = simd;
#else
namespace active = sref;
#endif

// Maps a range of flattened (batch, row) indices onto per-slice row ranges.
template <typename SliceFn>
void ForBatchedRowRange(int64_t r0, int64_t r1, int64_t rows_per_batch,
                        SliceFn fn) {
  int64_t s = r0 / rows_per_batch;
  int64_t i = r0 - s * rows_per_batch;
  int64_t remaining = r1 - r0;
  while (remaining > 0) {
    const int64_t i_end = std::min(rows_per_batch, i + remaining);
    fn(s, i, i_end);
    remaining -= i_end - i;
    i = 0;
    ++s;
  }
}

// Write mode of the GEMM entry points: zeroes rows [r0, r1) of a C whose
// rows are `cols` floats apart, just before a core accumulates into them.
inline void ZeroRows(float* c, int64_t r0, int64_t r1, int64_t cols) {
  std::fill(c + r0 * cols, c + r1 * cols, 0.0f);
}

}  // namespace

const char* SimdFlavorName() {
#if defined(ROTOM_SIMD_AVX2)
  constexpr const char* kName = "avx2";
  constexpr int64_t kId = 1;
#elif defined(ROTOM_SIMD_NEON)
  constexpr const char* kName = "neon";
  constexpr int64_t kId = 2;
#else
  constexpr const char* kName = "scalar";
  constexpr int64_t kId = 0;
#endif
  static const bool published = [] {
    obs::GetGauge("kernels.simd_flavor").Set(kId);
    return true;
  }();
  (void)published;
  return kName;
}

void GemmAB(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  BatchedGemmAB(a, b, c, 1, m, k, n, 0);
}

void GemmABT(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  BatchedGemmABT(a, b, c, 1, m, k, n, 0);
}

void GemmATB(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  BatchedGemmATB(a, b, c, 1, m, k, n, 0);
}

void BatchedGemmAB(const float* a, const float* b, float* c, int64_t batch,
                   int64_t m, int64_t k, int64_t n, int64_t b_stride,
                   OutputMode out) {
  ComputePool().ParallelFor(
      batch * m, RowGrain(2 * k * n), [&](int64_t r0, int64_t r1) {
        ForBatchedRowRange(r0, r1, m, [&](int64_t s, int64_t i0, int64_t i1) {
          float* cs = c + s * m * n;
          if (out == OutputMode::kWrite) ZeroRows(cs, i0, i1, n);
          active::GemmABRowRange(a + s * m * k, b + s * b_stride, cs, i0, i1,
                                 k, n);
        });
      });
}

void BatchedGemmABT(const float* a, const float* b, float* c, int64_t batch,
                    int64_t m, int64_t k, int64_t n, int64_t b_stride,
                    OutputMode out) {
  ComputePool().ParallelFor(
      batch * m, RowGrain(2 * k * n), [&](int64_t r0, int64_t r1) {
        ForBatchedRowRange(r0, r1, m, [&](int64_t s, int64_t i0, int64_t i1) {
          float* cs = c + s * m * n;
          if (out == OutputMode::kWrite) ZeroRows(cs, i0, i1, n);
          active::GemmABTRowRange(a + s * m * k, b + s * b_stride, cs, i0,
                                  i1, k, n);
        });
      });
}

void BatchedGemmATB(const float* a, const float* b, float* c, int64_t batch,
                    int64_t m, int64_t k, int64_t n, int64_t c_stride,
                    OutputMode out) {
  if (c_stride == 0 && batch > 1) {
    // Shared output: every batch accumulates into the same [k,n] buffer, so
    // the batch loop must stay inside each row range (fixed ascending
    // order), and only output rows are parallelized.
    ComputePool().ParallelFor(
        k, RowGrain(2 * batch * m * n), [&](int64_t l0, int64_t l1) {
          if (out == OutputMode::kWrite) ZeroRows(c, l0, l1, n);
          for (int64_t s = 0; s < batch; ++s) {
            active::GemmATBRowRange(a + s * m * k, b + s * m * n, c, l0, l1,
                                    m, k, n);
          }
        });
    return;
  }
  ComputePool().ParallelFor(
      batch * k, RowGrain(2 * m * n), [&](int64_t r0, int64_t r1) {
        ForBatchedRowRange(r0, r1, k, [&](int64_t s, int64_t l0, int64_t l1) {
          float* cs = c + s * c_stride;
          if (out == OutputMode::kWrite) ZeroRows(cs, l0, l1, n);
          active::GemmATBRowRange(a + s * m * k, b + s * m * n, cs, l0, l1, m,
                                  k, n);
        });
      });
}

void Axpy(const float* x, float* y, int64_t n, float alpha) {
  ComputePool().ParallelFor(n, kElementwiseGrain,
                            [&](int64_t begin, int64_t end) {
                              active::AxpyRange(x + begin, y + begin,
                                                end - begin, alpha);
                            });
}

void GeluForward(const float* x, float* y, int64_t n) {
  ComputePool().ParallelFor(n, kElementwiseGrain,
                            [&](int64_t begin, int64_t end) {
                              active::GeluRange(x + begin, y + begin,
                                                end - begin);
                            });
}

void GeluBackward(const float* x, const float* gy, float* gx, int64_t n) {
  ComputePool().ParallelFor(n, kElementwiseGrain,
                            [&](int64_t begin, int64_t end) {
                              active::GeluBackwardRange(
                                  x + begin, gy + begin, gx + begin,
                                  end - begin);
                            });
}

void SoftmaxRows(const float* in, float* out, int64_t rows, int64_t cols) {
  ParallelRows(rows, 4 * cols, [&](int64_t r) {
    active::SoftmaxRow(in + r * cols, out + r * cols, cols);
  });
}

void SoftmaxBackwardRows(const float* y, const float* gy, float* gx,
                         int64_t rows, int64_t cols) {
  ParallelRows(rows, 4 * cols, [&](int64_t r) {
    const float* yr = y + r * cols;
    const float* gr = gy + r * cols;
    float* gxr = gx + r * cols;
    float dot = 0.0f;
    for (int64_t j = 0; j < cols; ++j) dot += gr[j] * yr[j];
    for (int64_t j = 0; j < cols; ++j) gxr[j] += yr[j] * (gr[j] - dot);
  });
}

void LogSoftmaxRows(const float* in, float* out, int64_t rows, int64_t cols) {
  ParallelRows(rows, 4 * cols, [&](int64_t r) {
    const float* row = in + r * cols;
    float* orow = out + r * cols;
    float mx = row[0];
    for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < cols; ++j) sum += std::exp(row[j] - mx);
    const float lse = mx + std::log(sum);
    for (int64_t j = 0; j < cols; ++j) orow[j] = row[j] - lse;
  });
}

void LogSoftmaxBackwardRows(const float* y, const float* gy, float* gx,
                            int64_t rows, int64_t cols) {
  ParallelRows(rows, 4 * cols, [&](int64_t r) {
    const float* yr = y + r * cols;
    const float* gr = gy + r * cols;
    float* gxr = gx + r * cols;
    float gsum = 0.0f;
    for (int64_t j = 0; j < cols; ++j) gsum += gr[j];
    for (int64_t j = 0; j < cols; ++j)
      gxr[j] += gr[j] - std::exp(yr[j]) * gsum;
  });
}

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, float* y, float* xhat, float* inv_std,
                   int64_t rows, int64_t cols) {
  ParallelRows(rows, 6 * cols, [&](int64_t r) {
    active::LayerNormRow(x + r * cols, gamma, beta, eps, y + r * cols,
                         xhat + r * cols, inv_std + r, cols);
  });
}

void LayerNormInputGradRows(const float* gy, const float* gamma,
                            const float* xhat, const float* inv_std, float* gx,
                            int64_t rows, int64_t cols) {
  ParallelRows(rows, 8 * cols, [&](int64_t r) {
    const float* gr = gy + r * cols;
    const float* xhr = xhat + r * cols;
    // dxhat = dy * gamma;
    // dx = (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat)) * inv_std
    double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const double dxh = static_cast<double>(gr[j]) * gamma[j];
      sum_dxhat += dxh;
      sum_dxhat_xhat += dxh * xhr[j];
    }
    const float mean_dxhat = static_cast<float>(sum_dxhat / cols);
    const float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / cols);
    float* gxr = gx + r * cols;
    for (int64_t j = 0; j < cols; ++j) {
      const float dxh = gr[j] * gamma[j];
      gxr[j] += (dxh - mean_dxhat - xhr[j] * mean_dxhat_xhat) * inv_std[r];
    }
  });
}

void LayerNormParamGradRows(const float* gy, const float* xhat, float* ggamma,
                            float* gbeta, int64_t rows, int64_t cols) {
  if (ggamma == nullptr && gbeta == nullptr) return;
  // Columns are independent; the per-column sum runs rows in ascending
  // order inside one chunk, so the reduction order is thread-count
  // invariant. Blocks stay >= 8 columns wide for row-major locality.
  const int64_t grain = std::max<int64_t>(8, RowGrain(2 * rows));
  ComputePool().ParallelFor(cols, grain, [&](int64_t j0, int64_t j1) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* gr = gy + r * cols;
      const float* xhr = xhat + r * cols;
      if (ggamma != nullptr)
        for (int64_t j = j0; j < j1; ++j) ggamma[j] += gr[j] * xhr[j];
      if (gbeta != nullptr)
        for (int64_t j = j0; j < j1; ++j) gbeta[j] += gr[j];
    }
  });
}

void AccumulateRows(const float* x, float* acc, int64_t rows, int64_t cols) {
  const int64_t grain = std::max<int64_t>(8, RowGrain(rows));
  ComputePool().ParallelFor(cols, grain, [&](int64_t j0, int64_t j1) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* xr = x + r * cols;
      for (int64_t j = j0; j < j1; ++j) acc[j] += xr[j];
    }
  });
}

void BroadcastAddRows(const float* x, const float* bias, float* y,
                      int64_t rows, int64_t cols) {
  // Split the elements, not the rows: a same-shape add is one long row, and
  // a [B,T,d] + [T,d] add a few. Each element is one add, so any chunking
  // gives the same bits.
  ComputePool().ParallelFor(
      rows * cols, kElementwiseGrain, [&](int64_t begin, int64_t end) {
        // Only the chunk's first segment can start mid-row.
        for (int64_t i = begin, j = begin % cols; i < end; j = 0) {
          const int64_t len = std::min(end - i, cols - j);
          const float* xr = x + i;
          const float* br = bias + j;
          float* yr = y + i;
          for (int64_t l = 0; l < len; ++l) yr[l] = xr[l] + br[l];
          i += len;
        }
      });
}

void GatherRows(const float* table, const int64_t* ids, float* out, int64_t n,
                int64_t cols) {
  ParallelRows(n, cols, [&](int64_t i) {
    const float* src = table + ids[i] * cols;
    float* dst = out + i * cols;
    for (int64_t j = 0; j < cols; ++j) dst[j] = src[j];
  });
}

void ScatterAddRows(const float* x, const int64_t* ids, float* acc, int64_t n,
                    int64_t cols) {
  for (int64_t i = 0; i < n; ++i) {
    float* dst = acc + ids[i] * cols;
    const float* src = x + i * cols;
    for (int64_t j = 0; j < cols; ++j) dst[j] += src[j];
  }
}

float RowMax(const float* x, int64_t n) {
  float mx = x[0];
  for (int64_t j = 1; j < n; ++j) mx = std::max(mx, x[j]);
  return mx;
}

int64_t RowArgmax(const float* x, int64_t n) {
  int64_t best = 0;
  for (int64_t j = 1; j < n; ++j)
    if (x[j] > x[best]) best = j;
  return best;
}

float RowLogSumExp(const float* x, int64_t n) {
  const float mx = RowMax(x, n);
  double sum = 0.0;
  for (int64_t j = 0; j < n; ++j) sum += std::exp(x[j] - mx);
  return mx + static_cast<float>(std::log(sum));
}

}  // namespace kernels
}  // namespace rotom
