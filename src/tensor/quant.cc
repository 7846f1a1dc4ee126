#include "tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <memory>

#if defined(ROTOM_SIMD_AVX2)
#include <immintrin.h>
#elif defined(ROTOM_SIMD_NEON)
#include <arm_neon.h>
#endif

#include "tensor/kernels.h"
#include "tensor/quant_serial.h"
#include "util/check.h"

namespace rotom {
namespace quant {

namespace {

constexpr int32_t kQMin = -127;
constexpr int32_t kQMax = 127;

// One row: pick (scale, zero_point) so [min, max] maps onto [-127, 127],
// then code every element. Returns the sum of the codes.
int32_t QuantizeRow(const float* row, int64_t cols, int8_t* q, float* scale,
                    int32_t* zero_point) {
  float mn = row[0], mx = row[0];
  for (int64_t j = 1; j < cols; ++j) {
    mn = std::min(mn, row[j]);
    mx = std::max(mx, row[j]);
  }
  float s;
  int32_t zp;
  const float range = mx - mn;
  if (range > 0.0f) {
    s = range / static_cast<float>(kQMax - kQMin);
    zp = static_cast<int32_t>(std::lround(kQMin - mn / s));
  } else {
    // Constant row: any scale reproduces it as long as the code round-trips.
    const float a = std::abs(mx);
    s = a > 0.0f ? a / static_cast<float>(kQMax) : 1.0f;
    zp = 0;
  }
  int32_t sum = 0;
  const float inv_s = 1.0f / s;
  for (int64_t j = 0; j < cols; ++j) {
    // Round half away from zero like std::lround, but inline: a libm call
    // per element made dynamic activation quantization cost more than the
    // int8 GEMM saved. (At exact representability boundaries the +-0.5
    // trick can land one code off lround's ideal answer — irrelevant for a
    // quantizer and still fully deterministic.)
    const float v = row[j] * inv_s;
    const int32_t code =
        std::clamp(static_cast<int32_t>(v + std::copysign(0.5f, v)) + zp,
                   kQMin, kQMax);
    q[j] = static_cast<int8_t>(code);
    sum += code;
  }
  *scale = s;
  *zero_point = zp;
  return sum;
}

#if defined(ROTOM_SIMD_AVX2)

namespace simd {

inline int32_t HSumEpi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// 16 int8 lanes are sign-extended to int16 and multiply-accumulated into 8
// int32 lanes per step (|code| <= 127 keeps the pairwise int16 sums far
// from overflow). Integer addition is associative, so this is bit-identical
// to the scalar core.
void QGemmABTRowRange(const int8_t* a, const int8_t* b, int32_t* c,
                      int64_t i0, int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* ar = a + i * k;
    int32_t* cr = c + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const int8_t* b0 = b + (j + 0) * k;
      const int8_t* b1 = b + (j + 1) * k;
      const int8_t* b2 = b + (j + 2) * k;
      const int8_t* b3 = b + (j + 3) * k;
      __m256i v0 = _mm256_setzero_si256();
      __m256i v1 = _mm256_setzero_si256();
      __m256i v2 = _mm256_setzero_si256();
      __m256i v3 = _mm256_setzero_si256();
      int64_t l = 0;
      for (; l + 16 <= k; l += 16) {
        const __m256i av = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ar + l)));
        v0 = _mm256_add_epi32(
            v0, _mm256_madd_epi16(
                    av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(b0 + l)))));
        v1 = _mm256_add_epi32(
            v1, _mm256_madd_epi16(
                    av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(b1 + l)))));
        v2 = _mm256_add_epi32(
            v2, _mm256_madd_epi16(
                    av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(b2 + l)))));
        v3 = _mm256_add_epi32(
            v3, _mm256_madd_epi16(
                    av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(b3 + l)))));
      }
      int32_t acc0 = HSumEpi32(v0), acc1 = HSumEpi32(v1),
              acc2 = HSumEpi32(v2), acc3 = HSumEpi32(v3);
      for (; l < k; ++l) {
        const int32_t av = ar[l];
        acc0 += av * b0[l];
        acc1 += av * b1[l];
        acc2 += av * b2[l];
        acc3 += av * b3[l];
      }
      cr[j + 0] = acc0;
      cr[j + 1] = acc1;
      cr[j + 2] = acc2;
      cr[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const int8_t* br = b + j * k;
      __m256i v = _mm256_setzero_si256();
      int64_t l = 0;
      for (; l + 16 <= k; l += 16) {
        const __m256i av = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ar + l)));
        const __m256i bv = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(br + l)));
        v = _mm256_add_epi32(v, _mm256_madd_epi16(av, bv));
      }
      int32_t acc = HSumEpi32(v);
      for (; l < k; ++l) acc += static_cast<int32_t>(ar[l]) * br[l];
      cr[j] = acc;
    }
  }
}

}  // namespace simd

#elif defined(ROTOM_SIMD_NEON)

namespace simd {

void QGemmABTRowRange(const int8_t* a, const int8_t* b, int32_t* c,
                      int64_t i0, int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* ar = a + i * k;
    int32_t* cr = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* br = b + j * k;
      int32x4_t v = vdupq_n_s32(0);
      int64_t l = 0;
      for (; l + 16 <= k; l += 16) {
        const int8x16_t av = vld1q_s8(ar + l);
        const int8x16_t bv = vld1q_s8(br + l);
        v = vpadalq_s16(v, vmull_s8(vget_low_s8(av), vget_low_s8(bv)));
        v = vpadalq_s16(v, vmull_s8(vget_high_s8(av), vget_high_s8(bv)));
      }
      int32_t acc = vaddvq_s32(v);
      for (; l < k; ++l) acc += static_cast<int32_t>(ar[l]) * br[l];
      cr[j] = acc;
    }
  }
}

}  // namespace simd

#endif  // ROTOM_SIMD_AVX2 / ROTOM_SIMD_NEON

#if defined(ROTOM_SIMD_AVX2) || defined(ROTOM_SIMD_NEON)
namespace active = simd;
#else
namespace active = sref;
#endif

}  // namespace

QuantizedTensor QuantizeRows(const float* x, int64_t rows, int64_t cols) {
  ROTOM_CHECK_GT(rows, 0);
  ROTOM_CHECK_GT(cols, 0);
  QuantizedTensor q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(static_cast<size_t>(rows * cols));
  q.scales.resize(static_cast<size_t>(rows));
  q.zero_points.resize(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    QuantizeRow(x + r * cols, cols, q.data.data() + r * cols, &q.scales[r],
                &q.zero_points[r]);
  }
  return q;
}

void QuantizeRowsInto(const float* x, int64_t rows, int64_t cols, int8_t* q,
                      float* scales, int32_t* zero_points, int32_t* sums) {
  kernels::ParallelRows(rows, 8 * cols, [&](int64_t r) {
    sums[r] = QuantizeRow(x + r * cols, cols, q + r * cols, &scales[r],
                          &zero_points[r]);
  });
}

void Dequantize(const QuantizedTensor& q, float* out) {
  for (int64_t r = 0; r < q.rows; ++r) {
    const float s = q.scales[static_cast<size_t>(r)];
    const int32_t zp = q.zero_points[static_cast<size_t>(r)];
    const int8_t* qr = q.data.data() + r * q.cols;
    float* orow = out + r * q.cols;
    for (int64_t c = 0; c < q.cols; ++c) {
      orow[c] = s * static_cast<float>(static_cast<int32_t>(qr[c]) - zp);
    }
  }
}

Tensor DequantizeToTensor(const QuantizedTensor& q) {
  Tensor t({q.rows, q.cols});
  Dequantize(q, t.data());
  return t;
}

std::vector<int32_t> RowSums(const QuantizedTensor& q) {
  std::vector<int32_t> sums(static_cast<size_t>(q.rows), 0);
  for (int64_t r = 0; r < q.rows; ++r) {
    const int8_t* qr = q.data.data() + r * q.cols;
    int32_t s = 0;
    for (int64_t c = 0; c < q.cols; ++c) s += qr[c];
    sums[static_cast<size_t>(r)] = s;
  }
  return sums;
}

QuantError MeasureError(const float* x, const QuantizedTensor& q) {
  QuantError err;
  double total = 0.0;
  for (int64_t r = 0; r < q.rows; ++r) {
    const float s = q.scales[static_cast<size_t>(r)];
    const int32_t zp = q.zero_points[static_cast<size_t>(r)];
    const int8_t* qr = q.data.data() + r * q.cols;
    const float* xr = x + r * q.cols;
    for (int64_t c = 0; c < q.cols; ++c) {
      const float deq = s * static_cast<float>(static_cast<int32_t>(qr[c]) - zp);
      const float e = std::abs(deq - xr[c]);
      err.max_abs = std::max(err.max_abs, e);
      total += e;
    }
  }
  err.mean_abs = static_cast<float>(total / static_cast<double>(q.size()));
  return err;
}

void QGemmABT(const int8_t* a, const int8_t* b, int32_t* c, int64_t m,
              int64_t k, int64_t n) {
  ComputePool().ParallelFor(m, kernels::RowGrain(2 * k * n),
                            [&](int64_t i0, int64_t i1) {
                              active::QGemmABTRowRange(a, b, c, i0, i1, k, n);
                            });
}

void QLinear(const float* x, const QuantizedTensor& w,
             const int32_t* w_row_sums, const float* bias, float* y,
             int64_t m) {
  const int64_t k = w.cols;
  const int64_t n = w.rows;
  ROTOM_CHECK_GT(m, 0);

  // Scratch without a fill: QuantizeRowsInto writes every code and per-row
  // value, and QGemmABT every accumulator.
  const auto xq = std::make_unique_for_overwrite<int8_t[]>(m * k);
  const auto x_scales = std::make_unique_for_overwrite<float[]>(m);
  const auto x_zps = std::make_unique_for_overwrite<int32_t[]>(m);
  const auto x_sums = std::make_unique_for_overwrite<int32_t[]>(m);
  QuantizeRowsInto(x, m, k, xq.get(), x_scales.get(), x_zps.get(),
                   x_sums.get());

  const auto acc = std::make_unique_for_overwrite<int32_t[]>(m * n);
  QGemmABT(xq.get(), w.data.data(), acc.get(), m, k, n);

  const float kf = static_cast<float>(k);
  kernels::ParallelRows(m, 4 * n, [&](int64_t i) {
    const float sx = x_scales[i];
    const float zx = static_cast<float>(x_zps[i]);
    const float sum_x = static_cast<float>(x_sums[i]);
    const int32_t* ar = acc.get() + i * n;
    float* yr = y + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float zw = static_cast<float>(w.zero_points[static_cast<size_t>(j)]);
      const float corrected = static_cast<float>(ar[j]) -
                              zx * static_cast<float>(w_row_sums[j]) -
                              zw * sum_x + kf * zx * zw;
      yr[j] = sx * w.scales[static_cast<size_t>(j)] * corrected +
              (bias != nullptr ? bias[j] : 0.0f);
    }
  });
}

}  // namespace quant
}  // namespace rotom
