#ifndef ROTOM_TENSOR_QUANT_H_
#define ROTOM_TENSOR_QUANT_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace rotom {
namespace quant {

// int8 row-quantized tensors and the exact integer GEMM underneath int8
// inference: an nn::Linear switched to int8 (Linear::SetInt8Weight) runs
// QLinear instead of MatMul + Add, and nothing else in the model changes
// (DESIGN.md §12).
//
// Scheme: asymmetric per-row affine quantization into [-127, 127],
//
//   real = scale[r] * (code - zero_point[r])
//
// with one (scale, zero_point) pair per row. Weights are quantized once,
// offline or when a session is built, stored *transposed* ([out, in]) so a
// row is an output channel and the GEMM is a contiguous int8 dot product;
// activations are quantized dynamically per call, per row. -128 is never
// produced, which keeps |code| <= 127 and the widening 16-bit
// multiply-accumulate in the AVX2 kernel overflow-free.
//
// The int8 GEMM is exact integer arithmetic: every kernel flavor (scalar /
// AVX2 / NEON) produces bit-identical int32 accumulators, so the float
// error of the quantized path comes from quantization alone, never from
// the kernel. Dequantization happens only at layer boundaries, using the
// standard zero-point correction identity
//
//   sum_l (a[l]-za)*(w[l]-zw) =
//       dot(a,w) - za*sum(w) - zw*sum(a) + k*za*zw
//
// so the inner loop stays pure int8 x int8 -> int32.
//
// Like tensor/kernels.cc, this TU is compiled with the ISA flags chosen by
// the ROTOM_SIMD CMake option; kernels::scalar has the same role here via
// quant::scalar.

struct QuantizedTensor {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int8_t> data;          // rows * cols, row-major codes
  std::vector<float> scales;         // one per row
  std::vector<int32_t> zero_points;  // one per row

  int64_t size() const { return rows * cols; }
};

/// Quantizes a row-major [rows, cols] float buffer per row. Deterministic:
/// depends only on the input values.
QuantizedTensor QuantizeRows(const float* x, int64_t rows, int64_t cols);

/// Low-level form used for dynamic activation quantization: writes codes,
/// per-row scale/zero-point, and the per-row code sums (the correction term
/// needs them) into caller-owned buffers. Row-parallel over the pool.
void QuantizeRowsInto(const float* x, int64_t rows, int64_t cols, int8_t* q,
                      float* scales, int32_t* zero_points, int32_t* sums);

/// out[r,c] = scales[r] * (q[r,c] - zero_points[r]).
void Dequantize(const QuantizedTensor& q, float* out);
Tensor DequantizeToTensor(const QuantizedTensor& q);

/// Per-row sums of the int8 codes (exact int32), precomputed once per
/// weight tensor for the QLinear correction terms.
std::vector<int32_t> RowSums(const QuantizedTensor& q);

/// Quantization error of `q` against the original float buffer it was made
/// from (rows*cols elements): max and mean absolute dequantization error.
struct QuantError {
  float max_abs = 0.0f;
  float mean_abs = 0.0f;
};
QuantError MeasureError(const float* x, const QuantizedTensor& q);

/// C[m,n] = A[m,k] * B^T with int8 A [m,k], int8 B [n,k], int32 C [m,n];
/// C is written, never read. Exact; bit-identical across kernel flavors and
/// thread counts.
void QGemmABT(const int8_t* a, const int8_t* b, int32_t* c, int64_t m,
              int64_t k, int64_t n);

namespace scalar {
/// Serial scalar reference of the dispatched QGemmABT (must match bitwise).
void QGemmABT(const int8_t* a, const int8_t* b, int32_t* c, int64_t m,
              int64_t k, int64_t n);
}  // namespace scalar

/// Quantized linear layer: y[m, w.rows] = x[m, w.cols] * W^T + bias, where
/// W is the row-quantized (transposed, [out, in]) weight. Dynamically
/// quantizes x per row, runs the exact int8 GEMM, and dequantizes into y
/// (overwriting it) with the zero-point correction terms. `w_row_sums`
/// must be RowSums(w); `bias` (length w.rows) may be null.
void QLinear(const float* x, const QuantizedTensor& w,
             const int32_t* w_row_sums, const float* bias, float* y,
             int64_t m);

}  // namespace quant
}  // namespace rotom

#endif  // ROTOM_TENSOR_QUANT_H_
