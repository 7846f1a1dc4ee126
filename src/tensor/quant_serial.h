#ifndef ROTOM_TENSOR_QUANT_SERIAL_H_
#define ROTOM_TENSOR_QUANT_SERIAL_H_

#include <cstdint>

// Serial core of the exact int8 GEMM, shared by the dispatch TU
// (tensor/quant.cc, where it is the fallback flavor) and the reference TU
// (tensor/quant_scalar.cc, compiled without ISA flags or auto-vectorization
// to back quant::scalar). Same split as tensor/kernels_serial.h; unlike the
// f32 cores, every compilation of this code is bit-identical by
// construction — the arithmetic is exact int32.

namespace rotom {
namespace quant {
namespace sref {

// C rows [i0,i1) = A rows [i0,i1) * B^T in exact int32 (C is never read).
inline void QGemmABTRowRange(const int8_t* a, const int8_t* b, int32_t* c,
                             int64_t i0, int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* ar = a + i * k;
    int32_t* cr = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* br = b + j * k;
      int32_t acc = 0;
      for (int64_t l = 0; l < k; ++l) {
        acc += static_cast<int32_t>(ar[l]) * static_cast<int32_t>(br[l]);
      }
      cr[j] = acc;
    }
  }
}

}  // namespace sref
}  // namespace quant
}  // namespace rotom

#endif  // ROTOM_TENSOR_QUANT_SERIAL_H_
