#ifndef ROTOM_TENSOR_KERNELS_SERIAL_H_
#define ROTOM_TENSOR_KERNELS_SERIAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

// Serial cores of the f32 kernels, shared by two translation units with
// different codegen:
//
//   * tensor/kernels.cc — the dispatch TU. On a scalar-flavor build
//     (ROTOM_SIMD=OFF or no usable ISA) these cores ARE the production
//     fallback path, compiled with the project's default optimization flags
//     (the compiler may auto-vectorize the independent-output loops; that
//     never reorders a reduction, so numerics are unchanged).
//   * tensor/kernels_scalar.cc — the reference TU backing kernels::scalar.
//     Compiled WITHOUT the ISA flags and with auto-vectorization disabled,
//     so "scalar" in tests and the simd-vs-scalar bench cells means genuine
//     portable scalar code, not whatever the host compiler happened to
//     vectorize. See src/CMakeLists.txt.
//
// Each core computes a contiguous range of *output rows* of a single
// problem, so the parallel entry points can hand disjoint row ranges to
// pool threads. Tiling reorders the loop nest for cache reuse but never
// changes the per-element accumulation order (k ascending for AB/ABT, the
// A/B row index ascending for ATB), which is what keeps results
// bit-identical regardless of how rows are partitioned.

namespace rotom {
namespace kernels {
namespace sref {

// Panel of the shared/loop dimension kept hot in L1 across a row block.
inline constexpr int64_t kTileK = 64;
// B rows kept hot across the full A sweep in the ABT core.
inline constexpr int64_t kTileJ = 32;
// Output rows per block in the ATB core (C block stays in L1).
inline constexpr int64_t kTileL = 8;

// C rows [i0,i1) += A rows [i0,i1) * B, with A [*,k], B [k,n], C [*,n].
inline void GemmABRowRange(const float* a, const float* b, float* c,
                           int64_t i0, int64_t i1, int64_t k, int64_t n) {
  for (int64_t l0 = 0; l0 < k; l0 += kTileK) {
    const int64_t l1 = std::min(k, l0 + kTileK);
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const float* a0 = a + (i + 0) * k;
      const float* a1 = a + (i + 1) * k;
      const float* a2 = a + (i + 2) * k;
      const float* a3 = a + (i + 3) * k;
      float* c0 = c + (i + 0) * n;
      float* c1 = c + (i + 1) * n;
      float* c2 = c + (i + 2) * n;
      float* c3 = c + (i + 3) * n;
      for (int64_t l = l0; l < l1; ++l) {
        const float av0 = a0[l], av1 = a1[l], av2 = a2[l], av3 = a3[l];
        const float* br = b + l * n;
        for (int64_t j = 0; j < n; ++j) {
          const float bv = br[j];
          c0[j] += av0 * bv;
          c1[j] += av1 * bv;
          c2[j] += av2 * bv;
          c3[j] += av3 * bv;
        }
      }
    }
    for (; i < i1; ++i) {
      const float* ar = a + i * k;
      float* cr = c + i * n;
      for (int64_t l = l0; l < l1; ++l) {
        const float av = ar[l];
        const float* br = b + l * n;
        for (int64_t j = 0; j < n; ++j) cr[j] += av * br[j];
      }
    }
  }
}

// C rows [i0,i1) += A rows [i0,i1) * B^T, with A [*,k], B [n,k], C [*,n].
inline void GemmABTRowRange(const float* a, const float* b, float* c,
                            int64_t i0, int64_t i1, int64_t k, int64_t n) {
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
        float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
        for (int64_t l = 0; l < k; ++l) {
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
        float acc = 0.0f;
        for (int64_t l = 0; l < k; ++l) acc += ar[l] * br[l];
        cr[j] += acc;
      }
    }
  }
}

// C rows [l0,l1) of the [k,n] output += (A^T B) rows, with A [m,k], B [m,n].
// The A column l for a fixed row i is a contiguous slice a[i*k + l0 .. l1).
inline void GemmATBRowRange(const float* a, const float* b, float* c,
                            int64_t l0, int64_t l1, int64_t m, int64_t k,
                            int64_t n) {
  for (int64_t lb = l0; lb < l1; lb += kTileL) {
    const int64_t le = std::min(l1, lb + kTileL);
    for (int64_t i = 0; i < m; ++i) {
      const float* ar = a + i * k;
      const float* br = b + i * n;
      for (int64_t l = lb; l < le; ++l) {
        const float av = ar[l];
        if (av == 0.0f) continue;  // gradients are often sparse (relu, drop)
        float* cr = c + l * n;
        for (int64_t j = 0; j < n; ++j) cr[j] += av * br[j];
      }
    }
  }
}

// Tanh-approximation GELU, 0.5·x·(1 + tanh u) with
// u = √(2/π)·(x + 0.044715x³), through libm's tanh. The AVX2 flavor
// evaluates the same function as x / (1 + e^(−2u)) with a polynomial exp
// (kernels.cc).
inline constexpr float kGeluSqrt2OverPi = 0.7978845608028654f;
inline constexpr float kGeluCubic = 0.044715f;

inline void GeluRange(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float xv = x[i];
    const float u = kGeluSqrt2OverPi * (xv + kGeluCubic * xv * xv * xv);
    y[i] = 0.5f * xv * (1.0f + std::tanh(u));
  }
}

// gx[i] += gy[i] · gelu'(x[i]).
inline void GeluBackwardRange(const float* x, const float* gy, float* gx,
                              int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float xv = x[i];
    const float u = kGeluSqrt2OverPi * (xv + kGeluCubic * xv * xv * xv);
    const float t = std::tanh(u);
    const float du = kGeluSqrt2OverPi * (1.0f + 3.0f * kGeluCubic * xv * xv);
    gx[i] += gy[i] * (0.5f * (1.0f + t) + 0.5f * xv * (1.0f - t * t) * du);
  }
}

inline void SoftmaxRow(const float* row, float* orow, int64_t cols) {
  float mx = row[0];
  for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
  float sum = 0.0f;
  for (int64_t j = 0; j < cols; ++j) {
    orow[j] = std::exp(row[j] - mx);
    sum += orow[j];
  }
  for (int64_t j = 0; j < cols; ++j) orow[j] /= sum;
}

inline void LayerNormRow(const float* row, const float* gamma,
                         const float* beta, float eps, float* yr, float* xhr,
                         float* istd_out, int64_t cols) {
  double mu = 0.0;
  for (int64_t j = 0; j < cols; ++j) mu += row[j];
  mu /= cols;
  double var = 0.0;
  for (int64_t j = 0; j < cols; ++j) {
    const double diff = row[j] - mu;
    var += diff * diff;
  }
  var /= cols;
  const float istd = 1.0f / std::sqrt(static_cast<float>(var) + eps);
  *istd_out = istd;
  const float muf = static_cast<float>(mu);
  for (int64_t j = 0; j < cols; ++j) {
    xhr[j] = (row[j] - muf) * istd;
    yr[j] = gamma[j] * xhr[j] + beta[j];
  }
}

inline void AxpyRange(const float* x, float* y, int64_t n, float alpha) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace sref
}  // namespace kernels
}  // namespace rotom

#endif  // ROTOM_TENSOR_KERNELS_SERIAL_H_
