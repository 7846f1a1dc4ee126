#ifndef ROTOM_TENSOR_KERNELS_H_
#define ROTOM_TENSOR_KERNELS_H_

#include <algorithm>
#include <cstdint>

#include "util/thread_pool.h"

namespace rotom {
namespace kernels {

// Raw compute kernels over contiguous float buffers. This layer knows
// nothing about Tensors or autograd: the op layer (tensor/ops.cc) owns
// shapes and graph construction and calls down into these primitives.
//
// Every kernel has a serial core plus a parallel path that partitions
// *independent* output rows/slices across the global compute pool
// (util/thread_pool.h). No floating-point reduction is ever split across
// threads: a reduction row is always produced start-to-finish by one chunk,
// in a fixed order. Results are therefore bit-identical at any thread
// count ("thread-count-invariant numerics").

// ---------------------------------------------------------------------------
// Grain-size policy. ParallelFor grains are chosen so a chunk amortizes the
// pool's dispatch: roughly kGrainWork scalar operations per chunk. Callers
// pass the per-row cost; RowGrain converts it to rows.
//
// The floor (~256k flops) is several microseconds of one core's AVX2 GEMM.
// An empty 4-chunk dispatch costs about 1 µs while the workers still poll
// after the previous job, and once they have parked it pays a
// condition-variable wake, 4.5 µs at 2 threads and 15-200 µs at 4 on a
// 4-core x86 VM (BM_ThreadPoolDispatch), so a much smaller chunk would
// spend as long in the handoff as in its math. The original 32k floor made
// bench-scale GEMMs scale *negatively* with pool size, back when every
// dispatch woke sleeping workers. A high floor makes small problems
// single-chunk (they run inline, paying nothing) without changing results:
// chunk boundaries never affect per-element accumulation order, so
// numerics are invariant to grain size by construction. The floor is
// shared by every kernel; now that a dispatch is cheap, a per-kernel grain
// is worth re-measuring (ROADMAP.md).
// ---------------------------------------------------------------------------

inline constexpr int64_t kGrainWork = 1 << 18;       // ~256k flops per chunk
inline constexpr int64_t kElementwiseGrain = 1 << 16;  // elements per chunk

/// Rows per chunk for a row-parallel kernel whose per-row cost is
/// `work_per_row` scalar operations.
inline int64_t RowGrain(int64_t work_per_row) {
  return std::max<int64_t>(1, kGrainWork / std::max<int64_t>(1, work_per_row));
}

// ---------------------------------------------------------------------------
// SIMD dispatch. kernels.cc (and tensor/quant.cc) are the only translation
// units compiled with the ISA flags selected by the ROTOM_SIMD CMake option
// (AVX2+FMA on x86_64, NEON on aarch64). The hot kernels below dispatch to
// the vectorized bodies at compile time; the scalar bodies are the
// mandatory fallback and stay exposed under kernels::scalar so equivalence
// tests and benches can compare flavors in one binary.
//
// Determinism across flavors: within one build flavor every guarantee above
// holds unchanged — reductions are never split across threads and chunking
// never changes per-element order, so results stay bit-identical at any
// thread count. Across flavors, f32 results may differ by FMA/vector-width
// rounding (the AVX2 dot-product kernels accumulate in 8 lanes) and, in
// GELU and softmax, by the AVX2 polynomial exp standing in for libm (see
// GeluForward); the int8 kernels in quant.h are exact integer arithmetic
// and bit-identical in every flavor.
// ---------------------------------------------------------------------------

/// Compile-time kernel flavor of this build: "avx2", "neon", or "scalar".
/// The first call publishes the `kernels.simd_flavor` gauge
/// (0 = scalar, 1 = avx2, 2 = neon; see OBSERVABILITY.md).
const char* SimdFlavorName();

namespace scalar {

// Serial scalar reference implementations (no thread pool, no SIMD) of the
// dispatched kernels. These are the ground truth the flavor-equivalence
// tests compare against and the "before" side of the simd-vs-scalar bench
// records in BENCH_micro.json. They live in kernels_scalar.cc, which is
// compiled without the ISA flags and with auto-vectorization disabled, so
// "scalar" means portable scalar code even when the rest of the build is
// AVX2/NEON (see src/CMakeLists.txt).

void GemmAB(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);
void GemmABT(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);
void GemmATB(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);
void SoftmaxRows(const float* in, float* out, int64_t rows, int64_t cols);
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, float* y, float* xhat, float* inv_std,
                   int64_t rows, int64_t cols);
void Axpy(const float* x, float* y, int64_t n, float alpha);
void GeluForward(const float* x, float* y, int64_t n);
void GeluBackward(const float* x, const float* gy, float* gx, int64_t n);

}  // namespace scalar

// ---------------------------------------------------------------------------
// GEMM. All variants *accumulate* into C (C += ...), matching how the
// autograd layer both computes forwards (into zeroed buffers) and
// accumulates gradients. Serial cores are cache-tiled; parallel entry
// points split output rows (and the batch dimension) across the pool.
// C must alias neither A nor B: the AVX2 AB/ATB cores hold blocks of C in
// registers across the whole reduction.
// ---------------------------------------------------------------------------

/// C[m,n] += A[m,k] * B[k,n].
void GemmAB(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);

/// C[m,n] += A[m,k] * B^T where B is [n,k].
void GemmABT(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);

/// C[k,n] += A^T * B where A is [m,k], B is [m,n].
void GemmATB(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);

/// `batch` independent C[s] += A[s] * B[s] problems with contiguous slices
/// A[s] = a + s*m*k, C[s] = c + s*m*n and B[s] = b + s*b_stride. Pass
/// b_stride == 0 to share one [k,n] B across the batch (e.g. a linear layer
/// weight). Parallelism covers batch * m output rows.
void BatchedGemmAB(const float* a, const float* b, float* c, int64_t batch,
                   int64_t m, int64_t k, int64_t n, int64_t b_stride);

/// Batched C[s][m,n] += A[s][m,k] * B[s]^T with B[s] = b + s*b_stride of
/// shape [n,k]; b_stride == 0 shares B. The attention-score kernel
/// (Q . K^T) without materializing K^T.
void BatchedGemmABT(const float* a, const float* b, float* c, int64_t batch,
                    int64_t m, int64_t k, int64_t n, int64_t b_stride);

/// Batched C[s][k,n] += A[s][m,k]^T * B[s][m,n] with C[s] = c + s*c_stride.
/// Pass c_stride == 0 to accumulate every batch into ONE shared [k,n]
/// output (the gradient of a shared right operand): batches are then summed
/// in fixed ascending order per output row, never split across threads.
void BatchedGemmATB(const float* a, const float* b, float* c, int64_t batch,
                    int64_t m, int64_t k, int64_t n, int64_t c_stride);

// ---------------------------------------------------------------------------
// Elementwise kernels (header templates so lambdas inline into the loop).
// ---------------------------------------------------------------------------

/// y[i] = fn(x[i]).
template <typename F>
void Map(const float* x, float* y, int64_t n, F fn) {
  ComputePool().ParallelFor(n, kElementwiseGrain,
                            [&](int64_t begin, int64_t end) {
                              for (int64_t i = begin; i < end; ++i)
                                y[i] = fn(x[i]);
                            });
}

/// x[i] = fn(x[i]) in place.
template <typename F>
void Apply(float* x, int64_t n, F fn) {
  Map(x, x, n, fn);
}

/// out[i] = fn(x[i], y[i]).
template <typename F>
void ZipMap(const float* x, const float* y, float* out, int64_t n, F fn) {
  ComputePool().ParallelFor(n, kElementwiseGrain,
                            [&](int64_t begin, int64_t end) {
                              for (int64_t i = begin; i < end; ++i)
                                out[i] = fn(x[i], y[i]);
                            });
}

/// acc[i] += fn(x[i], y[i]) — the shape of most backward lambdas.
template <typename F>
void ZipAccumulate(const float* x, const float* y, float* acc, int64_t n,
                   F fn) {
  ComputePool().ParallelFor(n, kElementwiseGrain,
                            [&](int64_t begin, int64_t end) {
                              for (int64_t i = begin; i < end; ++i)
                                acc[i] += fn(x[i], y[i]);
                            });
}

/// y[i] += alpha * x[i].
void Axpy(const float* x, float* y, int64_t n, float alpha);

/// y[i] = gelu(x[i]), the tanh approximation
/// 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715x³))). y == x is allowed.
///
/// The scalar and NEON flavors call libm's tanh. The AVX2 flavor evaluates
/// x / (1 + e^(−2u)) with a range-reduced polynomial exp over 8 lanes:
/// within 1e-6 absolute of the exact function on [−12, 12]. Each output
/// depends only on its own input — the ragged tail runs the same vector
/// code on a zero-padded block — so a sub-range call, an in-place call or
/// any thread count gives bit-identical elements. NaN in gives NaN out.
void GeluForward(const float* x, float* y, int64_t n);

/// gx[i] += gy[i] · gelu'(x[i]), the backward of GeluForward; gx == gy is
/// allowed. AVX2: within 4e-6 absolute of the exact derivative on
/// [−12, 12]. Same flavor and position-independence rules as GeluForward.
void GeluBackward(const float* x, const float* gy, float* gx, int64_t n);

/// Runs fn(row) for every row in [0, rows), parallel when profitable.
/// `work_per_row` sizes the grain. Rows must be independent.
template <typename F>
void ParallelRows(int64_t rows, int64_t work_per_row, F fn) {
  ComputePool().ParallelFor(rows, RowGrain(work_per_row),
                            [&](int64_t begin, int64_t end) {
                              for (int64_t r = begin; r < end; ++r) fn(r);
                            });
}

// ---------------------------------------------------------------------------
// Row kernels: softmax / log-softmax / layernorm over the trailing
// dimension of a [rows, cols] buffer, plus reductions used by broadcasting
// ops. Backward kernels accumulate (+=) into the gradient buffer.
// ---------------------------------------------------------------------------

/// out[r,:] = softmax(in[r,:]); in == out is allowed. The AVX2 flavor takes
/// exp(in − max) from the GELU polynomial exp (within 1e-6 of the scalar
/// flavor; an argument below −87, e.g. a −1e9 mask entry, gives exactly 0);
/// scalar and NEON use libm.
void SoftmaxRows(const float* in, float* out, int64_t rows, int64_t cols);

/// gx[r,j] += y[r,j] * (gy[r,j] - dot(gy[r,:], y[r,:])).
void SoftmaxBackwardRows(const float* y, const float* gy, float* gx,
                         int64_t rows, int64_t cols);

/// out[r,:] = log softmax(in[r,:]).
void LogSoftmaxRows(const float* in, float* out, int64_t rows, int64_t cols);

/// gx[r,j] += gy[r,j] - exp(y[r,j]) * sum(gy[r,:]).
void LogSoftmaxBackwardRows(const float* y, const float* gy, float* gx,
                            int64_t rows, int64_t cols);

/// Per-row layer normalization with gain/bias:
///   xhat[r,:] = (x[r,:] - mean) * inv_std[r];  y[r,:] = gamma*xhat + beta.
/// Also writes xhat and inv_std (both needed by the backward kernels).
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, float* y, float* xhat, float* inv_std,
                   int64_t rows, int64_t cols);

/// Input gradient: gx[r,:] += (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat))
/// * inv_std[r] with dxhat = gy * gamma. Row-parallel.
void LayerNormInputGradRows(const float* gy, const float* gamma,
                            const float* xhat, const float* inv_std, float* gx,
                            int64_t rows, int64_t cols);

/// Parameter gradients: ggamma[j] += sum_r gy[r,j]*xhat[r,j] and
/// gbeta[j] += sum_r gy[r,j]. Either output may be null. The cross-row sum
/// for a column is always computed by one chunk in ascending row order.
void LayerNormParamGradRows(const float* gy, const float* xhat, float* ggamma,
                            float* gbeta, int64_t rows, int64_t cols);

/// acc[j] += sum_r x[r,j] — the gradient of a row-broadcast (bias) add.
/// Columns are partitioned across threads; each column sums rows in order.
void AccumulateRows(const float* x, float* acc, int64_t rows, int64_t cols);

/// y[r,j] += bias[j] for every row (forward of a broadcast bias add).
void BroadcastAddRows(float* y, const float* bias, int64_t rows, int64_t cols);

/// out[i,:] = table[ids[i],:] (row gather; ids validated by the caller).
void GatherRows(const float* table, const int64_t* ids, float* out, int64_t n,
                int64_t cols);

/// acc[ids[i],:] += x[i,:]. Serial: duplicate ids make rows non-independent.
void ScatterAddRows(const float* x, const int64_t* ids, float* acc, int64_t n,
                    int64_t cols);

/// Max element of one row.
float RowMax(const float* x, int64_t n);

/// Index of the max element of one row (first on ties).
int64_t RowArgmax(const float* x, int64_t n);

/// log(sum_j exp(x[j])) computed stably against RowMax.
float RowLogSumExp(const float* x, int64_t n);

}  // namespace kernels
}  // namespace rotom

#endif  // ROTOM_TENSOR_KERNELS_H_
