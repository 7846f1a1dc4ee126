// The kernels::scalar reference flavor. This TU is deliberately compiled
// WITHOUT the ROTOM_SIMD ISA flags and with compiler auto-vectorization
// disabled (see src/CMakeLists.txt), so these entry points execute the
// serial cores as genuine portable scalar code on every build flavor. That
// makes them (a) the ground truth the flavor-equivalence tests compare the
// dispatched kernels against, independent of any vector ISA, and (b) the
// honest "before" side of the simd-vs-scalar cells in BENCH_micro.json.
//
// The dispatch TU (kernels.cc) compiles the same serial cores from
// kernels_serial.h with the default flags as its fallback path, so a
// scalar-flavor *build* still benefits from whatever the baseline compiler
// codegen offers; only this reference namespace pins pure scalar execution.

#include "tensor/kernels.h"
#include "tensor/kernels_serial.h"

namespace rotom {
namespace kernels {
namespace scalar {

void GemmAB(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  sref::GemmABRowRange(a, b, c, 0, m, k, n);
}

void GemmABT(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  sref::GemmABTRowRange(a, b, c, 0, m, k, n);
}

void GemmATB(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  sref::GemmATBRowRange(a, b, c, 0, k, m, k, n);
}

void SoftmaxRows(const float* in, float* out, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r)
    sref::SoftmaxRow(in + r * cols, out + r * cols, cols);
}

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, float* y, float* xhat, float* inv_std,
                   int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    sref::LayerNormRow(x + r * cols, gamma, beta, eps, y + r * cols,
                       xhat + r * cols, inv_std + r, cols);
  }
}

void Axpy(const float* x, float* y, int64_t n, float alpha) {
  sref::AxpyRange(x, y, n, alpha);
}

void GeluForward(const float* x, float* y, int64_t n) {
  sref::GeluRange(x, y, n);
}

void GeluBackward(const float* x, const float* gy, float* gx, int64_t n) {
  sref::GeluBackwardRange(x, gy, gx, n);
}

}  // namespace scalar
}  // namespace kernels
}  // namespace rotom
