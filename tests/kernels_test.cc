#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "tensor/quant.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rotom {
namespace {

std::vector<float> RandVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

// Naive triple-loop references the tiled kernels are checked against.
void RefGemmAB(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t l = 0; l < k; ++l)
      for (int64_t j = 0; j < n; ++j) c[i * n + j] += a[i * k + l] * b[l * n + j];
}

void RefGemmABT(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j)
      for (int64_t l = 0; l < k; ++l) c[i * n + j] += a[i * k + l] * b[j * k + l];
}

void RefGemmATB(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t l = 0; l < k; ++l)
      for (int64_t j = 0; j < n; ++j) c[l * n + j] += a[i * k + l] * b[i * n + j];
}

void ExpectAllNear(const std::vector<float>& got, const std::vector<float>& want,
                   float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol * (1.0f + std::fabs(want[i]))) << "at " << i;
}

class KernelsTest : public ::testing::Test {
 protected:
  // Odd extents exercise the ragged edges of every tile loop.
  static constexpr int64_t kM = 37, kK = 71, kN = 29;

  void TearDown() override { SetComputeThreads(0); }
};

TEST_F(KernelsTest, GemmABMatchesReference) {
  const auto a = RandVec(kM * kK, 1), b = RandVec(kK * kN, 2);
  std::vector<float> c(kM * kN, 0.5f), ref = c;  // nonzero: accumulate semantics
  kernels::GemmAB(a.data(), b.data(), c.data(), kM, kK, kN);
  RefGemmAB(a.data(), b.data(), ref.data(), kM, kK, kN);
  ExpectAllNear(c, ref, 1e-4f);
}

TEST_F(KernelsTest, GemmABTMatchesReference) {
  const auto a = RandVec(kM * kK, 3), b = RandVec(kN * kK, 4);
  std::vector<float> c(kM * kN, -0.25f), ref = c;
  kernels::GemmABT(a.data(), b.data(), c.data(), kM, kK, kN);
  RefGemmABT(a.data(), b.data(), ref.data(), kM, kK, kN);
  ExpectAllNear(c, ref, 1e-4f);
}

TEST_F(KernelsTest, GemmATBMatchesReference) {
  const auto a = RandVec(kM * kK, 5), b = RandVec(kM * kN, 6);
  std::vector<float> c(kK * kN, 1.0f), ref = c;
  kernels::GemmATB(a.data(), b.data(), c.data(), kM, kK, kN);
  RefGemmATB(a.data(), b.data(), ref.data(), kM, kK, kN);
  ExpectAllNear(c, ref, 1e-4f);
}

TEST_F(KernelsTest, BatchedGemmABSharedB) {
  constexpr int64_t kBatch = 5;
  const auto a = RandVec(kBatch * kM * kK, 7), b = RandVec(kK * kN, 8);
  std::vector<float> c(kBatch * kM * kN, 0.0f), ref = c;
  kernels::BatchedGemmAB(a.data(), b.data(), c.data(), kBatch, kM, kK, kN,
                         /*b_stride=*/0);
  for (int64_t s = 0; s < kBatch; ++s)
    RefGemmAB(a.data() + s * kM * kK, b.data(), ref.data() + s * kM * kN, kM,
              kK, kN);
  ExpectAllNear(c, ref, 1e-4f);
}

TEST_F(KernelsTest, BatchedGemmABTPerSliceB) {
  constexpr int64_t kBatch = 3;
  const auto a = RandVec(kBatch * kM * kK, 9), b = RandVec(kBatch * kN * kK, 10);
  std::vector<float> c(kBatch * kM * kN, 0.0f), ref = c;
  kernels::BatchedGemmABT(a.data(), b.data(), c.data(), kBatch, kM, kK, kN,
                          /*b_stride=*/kN * kK);
  for (int64_t s = 0; s < kBatch; ++s)
    RefGemmABT(a.data() + s * kM * kK, b.data() + s * kN * kK,
               ref.data() + s * kM * kN, kM, kK, kN);
  ExpectAllNear(c, ref, 1e-4f);
}

TEST_F(KernelsTest, BatchedGemmATBSharedOutputSumsBatches) {
  constexpr int64_t kBatch = 4;
  const auto a = RandVec(kBatch * kM * kK, 11), b = RandVec(kBatch * kM * kN, 12);
  std::vector<float> c(kK * kN, 0.0f), ref = c;
  kernels::BatchedGemmATB(a.data(), b.data(), c.data(), kBatch, kM, kK, kN,
                          /*c_stride=*/0);
  for (int64_t s = 0; s < kBatch; ++s)
    RefGemmATB(a.data() + s * kM * kK, b.data() + s * kM * kN, ref.data(), kM,
               kK, kN);
  ExpectAllNear(c, ref, 1e-3f);
}

// 3 threads put chunk edges inside the AVX2 cores' 4-row register blocks:
// 990 rows split into chunks of 83 (AB, ABT, shared-output ATB), and 990
// output rows of the 2-D ATB into chunks of 122.
TEST_F(KernelsTest, GemmBitIdenticalAcrossThreadCounts) {
  constexpr int64_t kBatch = 3, kRows = 990;
  const auto a = RandVec(kBatch * kM * kK, 13), b = RandVec(kK * kN, 14);
  const auto tall = RandVec(kRows * kK, 15), wide = RandVec(kM * kRows, 16);
  const auto bt = RandVec(kN * kK, 17), bb = RandVec(kBatch * kM * kN, 18);
  const auto deep = RandVec(kBatch * kM * kRows, 19);
  const std::vector<std::pair<const char*, std::function<std::vector<float>()>>>
      gemms = {
          {"BatchedGemmAB",
           [&] {
             std::vector<float> c(kBatch * kM * kN, 0.0f);
             kernels::BatchedGemmAB(a.data(), b.data(), c.data(), kBatch, kM,
                                    kK, kN, 0);
             return c;
           }},
          {"GemmAB",
           [&] {
             std::vector<float> c(kRows * kN, 0.5f);
             kernels::GemmAB(tall.data(), b.data(), c.data(), kRows, kK, kN);
             return c;
           }},
          {"GemmABT",
           [&] {
             std::vector<float> c(kRows * kN, 0.5f);
             kernels::GemmABT(tall.data(), bt.data(), c.data(), kRows, kK, kN);
             return c;
           }},
          {"GemmATB",
           [&] {
             std::vector<float> c(kRows * kN, 0.5f);
             kernels::GemmATB(wide.data(), bb.data(), c.data(), kM, kRows, kN);
             return c;
           }},
          {"BatchedGemmATB shared output",
           [&] {
             std::vector<float> c(kRows * kN, 0.5f);
             kernels::BatchedGemmATB(deep.data(), bb.data(), c.data(), kBatch,
                                     kM, kRows, kN, /*c_stride=*/0);
             return c;
           }},
      };
  for (const auto& [name, run] : gemms) {
    SetComputeThreads(1);
    const auto serial = run();
    for (int threads : {3, 4}) {
      SetComputeThreads(threads);
      const auto parallel = run();
      for (size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(serial[i], parallel[i])
            << name << " threads=" << threads << " element " << i;
    }
  }
}

// Write mode never reads C and gives the bits accumulate mode gives on a
// zeroed C, for every batched entry point (per-slice and shared B, per-slice
// and shared ATB output), with row ranges cut into several chunks at 3 and
// 4 threads. C starts as NaN, so any element left unwritten shows.
TEST_F(KernelsTest, WriteModeMatchesAccumulateOntoZeros) {
  constexpr int64_t kBatch = 3, kRows = 990;
  const auto a = RandVec(kBatch * kRows * kK, 23), b = RandVec(kK * kN, 24);
  const auto bs = RandVec(kBatch * kK * kN, 25);
  const auto bt = RandVec(kBatch * kN * kK, 26);
  const auto g = RandVec(kBatch * kRows * kN, 27);
  using Gemm = std::function<void(float*, kernels::OutputMode)>;
  const std::vector<std::pair<const char*, std::pair<int64_t, Gemm>>> gemms = {
      {"BatchedGemmAB shared B",
       {kBatch * kRows * kN, [&](float* c, kernels::OutputMode mode) {
          kernels::BatchedGemmAB(a.data(), b.data(), c, kBatch, kRows, kK, kN,
                                 0, mode);
        }}},
      {"BatchedGemmAB per-slice B",
       {kBatch * kRows * kN, [&](float* c, kernels::OutputMode mode) {
          kernels::BatchedGemmAB(a.data(), bs.data(), c, kBatch, kRows, kK,
                                 kN, kK * kN, mode);
        }}},
      {"BatchedGemmABT per-slice B",
       {kBatch * kRows * kN, [&](float* c, kernels::OutputMode mode) {
          kernels::BatchedGemmABT(a.data(), bt.data(), c, kBatch, kRows, kK,
                                  kN, kN * kK, mode);
        }}},
      {"BatchedGemmATB per-slice output",
       {kBatch * kK * kN, [&](float* c, kernels::OutputMode mode) {
          kernels::BatchedGemmATB(a.data(), g.data(), c, kBatch, kRows, kK, kN,
                                  kK * kN, mode);
        }}},
      {"BatchedGemmATB shared output",
       {kK * kN, [&](float* c, kernels::OutputMode mode) {
          kernels::BatchedGemmATB(a.data(), g.data(), c, kBatch, kRows, kK, kN,
                                  0, mode);
        }}},
  };
  for (const auto& [name, gemm] : gemms) {
    const auto& [size, run] = gemm;
    for (int threads : {1, 3, 4}) {
      SetComputeThreads(threads);
      std::vector<float> accumulated(size, 0.0f);
      run(accumulated.data(), kernels::OutputMode::kAccumulate);
      std::vector<float> written(size, std::nanf(""));
      run(written.data(), kernels::OutputMode::kWrite);
      ASSERT_EQ(std::memcmp(written.data(), accumulated.data(),
                            sizeof(float) * size),
                0)
          << name << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// The AVX2 GEMM order contract (DESIGN.md section 7): every element of
// GemmAB / GemmATB and their batched forms is the documented chain of
// single-rounding fmas onto the starting C, compared on bits. AB adds
// a[i,l] * b[l,j] for l ascending. ATB adds a[i,l] * b[i,j] for i ascending
// and skips a term whose A entry is zero, so a zero A entry facing an
// infinite B entry leaves C unchanged in ATB but makes it NaN in AB. NaN
// payloads are not part of the contract: a NaN matches any NaN.
// ---------------------------------------------------------------------------

struct GemmShape {
  int64_t m, k, n;
};

std::string ShapeName(const ::testing::TestParamInfo<GemmShape>& info) {
  return "m" + std::to_string(info.param.m) + "k" +
         std::to_string(info.param.k) + "n" + std::to_string(info.param.n);
}

// Normal entries with every fifth one an exact zero (signed zeros alike).
std::vector<float> WithZeros(int64_t size, uint64_t seed) {
  auto v = RandVec(size, seed);
  for (int64_t i = 0; i < size; i += 5) v[i] = i % 10 == 0 ? 0.0f : -0.0f;
  return v;
}

// Normal entries with +inf and -inf in the first row (row length `cols`).
std::vector<float> WithInfs(int64_t rows, int64_t cols, uint64_t seed) {
  auto v = RandVec(rows * cols, seed);
  v[0] = std::numeric_limits<float>::infinity();
  if (cols > 2) v[cols - 1] = -std::numeric_limits<float>::infinity();
  return v;
}

void ChainAB(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j)
      for (int64_t l = 0; l < k; ++l)
        c[i * n + j] = std::fma(a[i * k + l], b[l * n + j], c[i * n + j]);
}

void ChainATB(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n) {
  for (int64_t l = 0; l < k; ++l)
    for (int64_t j = 0; j < n; ++j)
      for (int64_t i = 0; i < m; ++i)
        if (a[i * k + l] != 0.0f)
          c[l * n + j] = std::fma(a[i * k + l], b[i * n + j], c[l * n + j]);
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    uint32_t g, w;
    std::memcpy(&g, &got[i], sizeof(g));
    std::memcpy(&w, &want[i], sizeof(w));
    ASSERT_EQ(g, w) << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

class GemmOrderTest : public ::testing::TestWithParam<GemmShape> {
 protected:
  void SetUp() override {
    if (std::string(kernels::SimdFlavorName()) != "avx2")
      GTEST_SKIP() << "the fma-chain order is the avx2 flavor's contract";
  }
  void TearDown() override { SetComputeThreads(0); }
};

TEST_P(GemmOrderTest, GemmABIsAnFmaChainOverK) {
  const auto [m, k, n] = GetParam();
  const auto a = WithZeros(m * k, 41), b = WithInfs(k, n, 42);
  std::vector<float> c = RandVec(m * n, 43), want = c;
  kernels::GemmAB(a.data(), b.data(), c.data(), m, k, n);
  ChainAB(a.data(), b.data(), want.data(), m, k, n);
  ExpectSameBits(c, want);
}

TEST_P(GemmOrderTest, GemmATBIsAnFmaChainOverRowsSkippingZeros) {
  const auto [m, k, n] = GetParam();
  const auto a = WithZeros(m * k, 44), b = WithInfs(m, n, 45);
  std::vector<float> c = RandVec(k * n, 46), want = c;
  kernels::GemmATB(a.data(), b.data(), c.data(), m, k, n);
  ChainATB(a.data(), b.data(), want.data(), m, k, n);
  ExpectSameBits(c, want);
}

TEST_P(GemmOrderTest, BatchedGemmABSharedAndPerSliceB) {
  const auto [m, k, n] = GetParam();
  constexpr int64_t kBatch = 3;
  const auto a = WithZeros(kBatch * m * k, 47);
  const auto b = WithInfs(kBatch * k, n, 48);
  for (const int64_t b_stride : {int64_t{0}, k * n}) {
    std::vector<float> c = RandVec(kBatch * m * n, 49), want = c;
    kernels::BatchedGemmAB(a.data(), b.data(), c.data(), kBatch, m, k, n,
                           b_stride);
    for (int64_t s = 0; s < kBatch; ++s)
      ChainAB(a.data() + s * m * k, b.data() + s * b_stride,
              want.data() + s * m * n, m, k, n);
    ExpectSameBits(c, want);
  }
}

TEST_P(GemmOrderTest, BatchedGemmATBPerSliceAndSharedOutput) {
  const auto [m, k, n] = GetParam();
  constexpr int64_t kBatch = 3;
  const auto a = WithZeros(kBatch * m * k, 50);
  const auto b = WithInfs(kBatch * m, n, 51);
  for (const int64_t c_stride : {k * n, int64_t{0}}) {
    const int64_t slices = c_stride == 0 ? 1 : kBatch;
    std::vector<float> c = RandVec(slices * k * n, 52), want = c;
    kernels::BatchedGemmATB(a.data(), b.data(), c.data(), kBatch, m, k, n,
                            c_stride);
    // Shared output: slices in ascending order, each an ascending row chain.
    for (int64_t s = 0; s < kBatch; ++s)
      ChainATB(a.data() + s * m * k, b.data() + s * m * n,
               want.data() + s * c_stride, m, k, n);
    ExpectSameBits(c, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadShapes, GemmOrderTest,
    ::testing::Values(GemmShape{16, 32, 2},      // classifier head
                      GemmShape{384, 32, 32},    // ag_stream Linear
                      GemmShape{384, 32, 64},    // ag_stream FFN up
                      GemmShape{896, 64, 32},    // em_rotom FFN down
                      GemmShape{56, 56, 16},     // attention P.V, one head
                      GemmShape{2048, 128, 128}, // serve_mixed Linear
                      GemmShape{64, 64, 32}),    // serve_mixed P.V, one head
    ShapeName);

INSTANTIATE_TEST_SUITE_P(
    RaggedShapes, GemmOrderTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                      GemmShape{5, 9, 15}, GemmShape{6, 3, 17},
                      GemmShape{7, 17, 23}, GemmShape{13, 8, 9},
                      GemmShape{37, 71, 29}, GemmShape{33, 15, 31},
                      GemmShape{10, 16, 33}),
    ShapeName);

TEST_F(KernelsTest, SoftmaxRowsNormalizes) {
  constexpr int64_t kRows = 11, kCols = 23;
  const auto x = RandVec(kRows * kCols, 15);
  std::vector<float> y(kRows * kCols);
  kernels::SoftmaxRows(x.data(), y.data(), kRows, kCols);
  for (int64_t r = 0; r < kRows; ++r) {
    double sum = 0.0;
    for (int64_t j = 0; j < kCols; ++j) {
      EXPECT_GT(y[r * kCols + j], 0.0f);
      sum += y[r * kCols + j];
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST_F(KernelsTest, LogSoftmaxRowsMatchesSoftmax) {
  constexpr int64_t kRows = 7, kCols = 13;
  const auto x = RandVec(kRows * kCols, 16);
  std::vector<float> p(kRows * kCols), lp(kRows * kCols);
  kernels::SoftmaxRows(x.data(), p.data(), kRows, kCols);
  kernels::LogSoftmaxRows(x.data(), lp.data(), kRows, kCols);
  for (size_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(std::exp(lp[i]), p[i], 1e-5f);
}

TEST_F(KernelsTest, LayerNormRowsNormalizesAndScales) {
  constexpr int64_t kRows = 9, kCols = 32;
  const auto x = RandVec(kRows * kCols, 17);
  const auto gamma = RandVec(kCols, 18);
  const auto beta = RandVec(kCols, 19);
  std::vector<float> y(kRows * kCols), xhat(kRows * kCols), inv_std(kRows);
  kernels::LayerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f, y.data(),
                         xhat.data(), inv_std.data(), kRows, kCols);
  for (int64_t r = 0; r < kRows; ++r) {
    double mean = 0.0, var = 0.0;
    for (int64_t j = 0; j < kCols; ++j) mean += xhat[r * kCols + j];
    mean /= kCols;
    for (int64_t j = 0; j < kCols; ++j) {
      const double d = xhat[r * kCols + j] - mean;
      var += d * d;
    }
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var / kCols, 1.0, 1e-3);
    for (int64_t j = 0; j < kCols; ++j)
      EXPECT_NEAR(y[r * kCols + j],
                  gamma[j] * xhat[r * kCols + j] + beta[j], 1e-5f);
  }
}

TEST_F(KernelsTest, AccumulateRowsSumsColumns) {
  constexpr int64_t kRows = 503, kCols = 17;  // enough rows to go parallel
  const auto x = RandVec(kRows * kCols, 20);
  std::vector<float> acc(kCols, 1.0f);
  kernels::AccumulateRows(x.data(), acc.data(), kRows, kCols);
  for (int64_t j = 0; j < kCols; ++j) {
    float want = 1.0f;
    for (int64_t r = 0; r < kRows; ++r) want += x[r * kCols + j];
    EXPECT_NEAR(acc[j], want, 1e-3f * kRows / 100);
  }
}

TEST_F(KernelsTest, BroadcastAddRows) {
  constexpr int64_t kRows = 6, kCols = 5;
  const std::vector<float> x(kRows * kCols, 2.0f);
  std::vector<float> y(kRows * kCols, std::nanf(""));
  const auto bias = RandVec(kCols, 21);
  kernels::BroadcastAddRows(x.data(), bias.data(), y.data(), kRows, kCols);
  for (int64_t r = 0; r < kRows; ++r)
    for (int64_t j = 0; j < kCols; ++j)
      EXPECT_EQ(y[r * kCols + j], 2.0f + bias[j]);
  // In place (y == x) gives the same bits.
  std::vector<float> z = x;
  kernels::BroadcastAddRows(z.data(), bias.data(), z.data(), kRows, kCols);
  EXPECT_EQ(z, y);
}

// A same-shape add is one row of every element, and a [B,T,d] + [T,d] add
// a few long rows: both split into several chunks (cut mid-row), with the
// bits of a serial loop at any thread count.
TEST_F(KernelsTest, BroadcastAddRowsSplitsLongRows) {
  obs::Counter& chunks = obs::GetCounter("thread_pool.chunks");
  for (const auto& [rows, cols] :
       {std::pair<int64_t, int64_t>{1, 4 * kernels::kElementwiseGrain + 3},
        std::pair<int64_t, int64_t>{5, kernels::kElementwiseGrain - 3}}) {
    const auto x = RandVec(rows * cols, 41), bias = RandVec(cols, 42);
    std::vector<float> want(rows * cols);
    for (int64_t r = 0; r < rows; ++r)
      for (int64_t j = 0; j < cols; ++j)
        want[r * cols + j] = x[r * cols + j] + bias[j];
    for (int threads : {1, 4}) {
      SetComputeThreads(threads);
      std::vector<float> y(rows * cols, std::nanf(""));
      const uint64_t before = chunks.Value();
      kernels::BroadcastAddRows(x.data(), bias.data(), y.data(), rows, cols);
      const uint64_t ran = chunks.Value() - before;
      ASSERT_EQ(std::memcmp(y.data(), want.data(), sizeof(float) * y.size()),
                0)
          << rows << "x" << cols << " threads=" << threads;
      if (threads > 1) {
        EXPECT_GT(ran, 1u) << rows << "x" << cols;
      }
    }
  }
}

TEST_F(KernelsTest, GatherThenScatterAddRoundTrips) {
  constexpr int64_t kVocab = 10, kCols = 4;
  const auto table = RandVec(kVocab * kCols, 22);
  const std::vector<int64_t> ids = {3, 7, 3, 0};  // duplicate id 3
  std::vector<float> out(ids.size() * kCols);
  kernels::GatherRows(table.data(), ids.data(), out.data(),
                      static_cast<int64_t>(ids.size()), kCols);
  for (size_t i = 0; i < ids.size(); ++i)
    for (int64_t j = 0; j < kCols; ++j)
      EXPECT_EQ(out[i * kCols + j], table[ids[i] * kCols + j]);

  std::vector<float> acc(kVocab * kCols, 0.0f);
  kernels::ScatterAddRows(out.data(), ids.data(), acc.data(),
                          static_cast<int64_t>(ids.size()), kCols);
  for (int64_t j = 0; j < kCols; ++j) {
    EXPECT_NEAR(acc[3 * kCols + j], 2.0f * table[3 * kCols + j], 1e-5f);
    EXPECT_NEAR(acc[7 * kCols + j], table[7 * kCols + j], 1e-5f);
    EXPECT_EQ(acc[1 * kCols + j], 0.0f);  // untouched row
  }
}

TEST_F(KernelsTest, RowReductions) {
  const std::vector<float> x = {0.5f, -2.0f, 3.25f, 3.25f, 1.0f};
  EXPECT_EQ(kernels::RowMax(x.data(), 5), 3.25f);
  EXPECT_EQ(kernels::RowArgmax(x.data(), 5), 2);  // first of the tied maxima
  double want = 0.0;
  for (float v : x) want += std::exp(static_cast<double>(v) - 3.25);
  EXPECT_NEAR(kernels::RowLogSumExp(x.data(), 5), 3.25 + std::log(want), 1e-5);
}

TEST_F(KernelsTest, MapApplyZipAxpy) {
  const auto x = RandVec(1000, 23), y = RandVec(1000, 24);
  std::vector<float> out(1000);
  kernels::Map(x.data(), out.data(), 1000, [](float v) { return 2.0f * v; });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 2.0f * x[i]);

  kernels::ZipMap(x.data(), y.data(), out.data(), 1000,
                  [](float a, float b) { return a * b; });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], x[i] * y[i]);

  std::vector<float> acc = y;
  kernels::Axpy(x.data(), acc.data(), 1000, 0.5f);
  for (size_t i = 0; i < acc.size(); ++i)
    EXPECT_NEAR(acc[i], y[i] + 0.5f * x[i], 1e-6f);
}

// ---------------------------------------------------------------------------
// GELU and the softmax exp. The AVX2 flavor evaluates both through a
// polynomial exp; these tests pin its accuracy against a double-precision
// reference and the rule that an element's result depends only on its own
// inputs (never on its offset, the call's length, aliasing or threads).
// ---------------------------------------------------------------------------

double RefGelu(double x) {
  const double u = 0.7978845608028654 * (x + 0.044715 * x * x * x);
  return 0.5 * x * (1.0 + std::tanh(u));
}

double RefGeluGrad(double x) {
  const double u = 0.7978845608028654 * (x + 0.044715 * x * x * x);
  const double t = std::tanh(u);
  const double du = 0.7978845608028654 * (1.0 + 3.0 * 0.044715 * x * x);
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
}

// Values spanning both saturated ends of GELU and its curved middle.
std::vector<float> GeluInputs(int64_t n, uint64_t seed) {
  auto x = RandVec(n, seed);
  for (auto& v : x) v *= 4.0f;
  return x;
}

TEST_F(KernelsTest, GeluAccurateOnDenseSweep) {
  constexpr int64_t kN = 240001;  // [-12, 12] in steps of 1e-4
  std::vector<float> x(kN);
  for (int64_t i = 0; i < kN; ++i)
    x[i] = -12.0f + 24.0f * static_cast<float>(i) / (kN - 1);
  std::vector<float> y(kN), ones(kN, 1.0f), gx(kN, 0.0f);
  kernels::GeluForward(x.data(), y.data(), kN);
  kernels::GeluBackward(x.data(), ones.data(), gx.data(), kN);
  double fwd_err = 0.0, bwd_err = 0.0;
  for (int64_t i = 0; i < kN; ++i) {
    fwd_err = std::max(fwd_err, std::fabs(y[i] - RefGelu(x[i])));
    bwd_err = std::max(bwd_err, std::fabs(gx[i] - RefGeluGrad(x[i])));
  }
  EXPECT_LE(fwd_err, 1e-6);
  EXPECT_LE(bwd_err, 4e-6);
}

TEST_F(KernelsTest, SoftmaxWithMaskEntriesMatchesScalar) {
  constexpr int64_t kRows = 40, kCols = 29;
  auto x = RandVec(kRows * kCols, 25);
  for (int64_t i = 0; i < kRows * kCols; ++i)
    x[i] = i % 5 == 2 ? -1e9f : 6.0f * x[i];  // -1e9: attention's key mask
  std::vector<float> y(kRows * kCols), ref(kRows * kCols);
  kernels::SoftmaxRows(x.data(), y.data(), kRows, kCols);
  kernels::scalar::SoftmaxRows(x.data(), ref.data(), kRows, kCols);
  for (int64_t i = 0; i < kRows * kCols; ++i) {
    ASSERT_NEAR(y[i], ref[i], 1e-6f) << "at " << i;
    if (x[i] == -1e9f) {
      ASSERT_EQ(y[i], 0.0f) << "masked entry " << i;
    }
  }
}

// For every offset 0-7 and length 1-17, a call on a sub-range (and an
// in-place call) must reproduce the full-buffer call's elements bit for
// bit: the ragged tail runs the same vector code as the body.
TEST_F(KernelsTest, GeluAndSoftmaxArePositionIndependent) {
  constexpr int64_t kBuf = 8 + 17;
  const auto x = GeluInputs(kBuf, 26), gy = RandVec(kBuf, 27);
  const auto gx0 = RandVec(kBuf, 28);

  std::vector<float> y_full(kBuf), gx_full = gx0, g_inplace_full = gy;
  kernels::GeluForward(x.data(), y_full.data(), kBuf);
  kernels::GeluBackward(x.data(), gy.data(), gx_full.data(), kBuf);
  kernels::GeluBackward(x.data(), g_inplace_full.data(),
                        g_inplace_full.data(), kBuf);

  for (int64_t off = 0; off < 8; ++off) {
    for (int64_t len = 1; len <= 17; ++len) {
      const std::string at =
          "offset " + std::to_string(off) + " length " + std::to_string(len);
      std::vector<float> y(kBuf, 0.0f), y_inplace = x, gx = gx0,
                                        g_inplace = gy;
      kernels::GeluForward(x.data() + off, y.data() + off, len);
      kernels::GeluForward(y_inplace.data() + off, y_inplace.data() + off,
                           len);
      kernels::GeluBackward(x.data() + off, gy.data() + off, gx.data() + off,
                            len);
      kernels::GeluBackward(x.data() + off, g_inplace.data() + off,
                            g_inplace.data() + off, len);
      for (int64_t i = off; i < off + len; ++i) {
        ASSERT_EQ(y[i], y_full[i]) << at << " element " << i;
        ASSERT_EQ(y_inplace[i], y_full[i]) << at << " element " << i;
        ASSERT_EQ(gx[i], gx_full[i]) << at << " element " << i;
        ASSERT_EQ(g_inplace[i], g_inplace_full[i]) << at << " element " << i;
      }

      // Softmax rows of `len` columns: three rows at offset 0 are the
      // reference; the same rows at `off`, in place, and a call on the last
      // two rows alone must all agree with it.
      constexpr int64_t kRows = 3;
      const auto rows = GeluInputs(kRows * len, 29 + len);
      std::vector<float> soft_ref(kRows * len);
      kernels::SoftmaxRows(rows.data(), soft_ref.data(), kRows, len);
      std::vector<float> in(off + kRows * len, 0.0f);
      std::copy(rows.begin(), rows.end(), in.begin() + off);
      std::vector<float> out(in.size(), 0.0f), tail_rows(in.size(), 0.0f),
          inplace = in;
      kernels::SoftmaxRows(in.data() + off, out.data() + off, kRows, len);
      kernels::SoftmaxRows(in.data() + off + len, tail_rows.data() + off + len,
                           kRows - 1, len);
      kernels::SoftmaxRows(inplace.data() + off, inplace.data() + off, kRows,
                           len);
      for (int64_t i = 0; i < kRows * len; ++i) {
        ASSERT_EQ(out[off + i], soft_ref[i]) << at << " softmax " << i;
        ASSERT_EQ(inplace[off + i], soft_ref[i]) << at << " softmax " << i;
        if (i >= len) {
          ASSERT_EQ(tail_rows[off + i], soft_ref[i]) << at << " softmax " << i;
        }
      }
    }
  }
}

TEST_F(KernelsTest, GeluBitIdenticalAcrossThreadCounts) {
  constexpr int64_t kN = 3 * kernels::kElementwiseGrain + 5;
  const auto x = GeluInputs(kN, 30), gy = RandVec(kN, 31);
  auto run = [&](int threads) {
    SetComputeThreads(threads);
    std::vector<float> y(kN), gx(kN, 0.5f);
    kernels::GeluForward(x.data(), y.data(), kN);
    kernels::GeluBackward(x.data(), gy.data(), gx.data(), kN);
    return std::make_pair(y, gx);
  };
  const auto serial = run(1);
  const auto quad = run(4);
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(serial.first[i], quad.first[i]) << "forward element " << i;
    ASSERT_EQ(serial.second[i], quad.second[i]) << "backward element " << i;
  }
}

// The run log's non-finite-loss sentinel relies on NaN surviving the
// nonlinearities.
TEST_F(KernelsTest, GeluAndSoftmaxPropagateNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> x = {0.5f, nan, -3.0f, 2.0f, nan, 1.0f, -0.25f, 4.0f,
                          nan, 7.0f, -9.0f};
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> y(n), ones(n, 1.0f), gx(n, 0.0f);
  kernels::GeluForward(x.data(), y.data(), n);
  kernels::GeluBackward(x.data(), ones.data(), gx.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::isnan(y[i]), std::isnan(x[i])) << i;
    EXPECT_EQ(std::isnan(gx[i]), std::isnan(x[i])) << i;
  }
  std::vector<float> probs(n);
  kernels::SoftmaxRows(x.data(), probs.data(), 1, n);
  for (int64_t i = 0; i < n; ++i) EXPECT_TRUE(std::isnan(probs[i])) << i;
}

// ---------------------------------------------------------------------------
// SIMD flavor equivalence. The dispatched kernels (whatever flavor this
// binary was built with) are compared against the serial scalar references
// in kernels::scalar across a sweep of shapes chosen to hit every ragged
// edge of the vector loops: below one vector width, exact multiples, and
// odd overhangs. f32 comparisons use a relative tolerance (the AVX2 bodies
// reassociate across FMA lanes); the int8 GEMM must be bit-identical.
// ---------------------------------------------------------------------------

class KernelFlavorTest : public ::testing::TestWithParam<GemmShape> {
 protected:
  void TearDown() override { SetComputeThreads(0); }
};

TEST_P(KernelFlavorTest, GemmsMatchScalarReference) {
  const auto [m, k, n] = GetParam();
  const auto a = RandVec(m * k, 31), b = RandVec(k * n, 32);
  const auto bt = RandVec(n * k, 33), bb = RandVec(m * n, 34);

  std::vector<float> c(m * n, 0.25f), ref = c;
  kernels::GemmAB(a.data(), b.data(), c.data(), m, k, n);
  kernels::scalar::GemmAB(a.data(), b.data(), ref.data(), m, k, n);
  ExpectAllNear(c, ref, 1e-4f);

  std::vector<float> cbt(m * n, -0.5f), refbt = cbt;
  kernels::GemmABT(a.data(), bt.data(), cbt.data(), m, k, n);
  kernels::scalar::GemmABT(a.data(), bt.data(), refbt.data(), m, k, n);
  ExpectAllNear(cbt, refbt, 1e-4f);

  std::vector<float> catb(k * n, 1.0f), refatb = catb;
  kernels::GemmATB(a.data(), bb.data(), catb.data(), m, k, n);
  kernels::scalar::GemmATB(a.data(), bb.data(), refatb.data(), m, k, n);
  ExpectAllNear(catb, refatb, 1e-4f);
}

TEST_P(KernelFlavorTest, RowKernelsMatchScalarReference) {
  const auto [rows, unused_k, cols] = GetParam();
  (void)unused_k;
  const auto x = RandVec(rows * cols, 35);
  const auto gamma = RandVec(cols, 36), beta = RandVec(cols, 37);

  std::vector<float> soft(rows * cols), soft_ref(rows * cols);
  kernels::SoftmaxRows(x.data(), soft.data(), rows, cols);
  kernels::scalar::SoftmaxRows(x.data(), soft_ref.data(), rows, cols);
  ExpectAllNear(soft, soft_ref, 1e-6f);

  std::vector<float> y(rows * cols), xhat(rows * cols), inv_std(rows);
  std::vector<float> y_ref(rows * cols), xhat_ref(rows * cols),
      inv_std_ref(rows);
  kernels::LayerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f, y.data(),
                         xhat.data(), inv_std.data(), rows, cols);
  kernels::scalar::LayerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f,
                                 y_ref.data(), xhat_ref.data(),
                                 inv_std_ref.data(), rows, cols);
  ExpectAllNear(y, y_ref, 1e-5f);
  ExpectAllNear(xhat, xhat_ref, 1e-5f);
  ExpectAllNear(inv_std, inv_std_ref, 1e-5f);

  std::vector<float> axpy(rows * cols, 0.75f), axpy_ref(rows * cols, 0.75f);
  kernels::Axpy(x.data(), axpy.data(), rows * cols, -1.5f);
  kernels::scalar::Axpy(x.data(), axpy_ref.data(), rows * cols, -1.5f);
  ExpectAllNear(axpy, axpy_ref, 1e-6f);
}

TEST_P(KernelFlavorTest, GeluMatchesScalarReference) {
  const auto [m, k, n] = GetParam();
  const int64_t num = m * k + n;  // 2 to 2656 elements
  const auto x = GeluInputs(num, 39), gy = RandVec(num, 40);

  std::vector<float> y(num), y_ref(num);
  kernels::GeluForward(x.data(), y.data(), num);
  kernels::scalar::GeluForward(x.data(), y_ref.data(), num);
  ExpectAllNear(y, y_ref, 1e-6f);

  std::vector<float> gx(num, 0.25f), gx_ref(num, 0.25f);
  kernels::GeluBackward(x.data(), gy.data(), gx.data(), num);
  kernels::scalar::GeluBackward(x.data(), gy.data(), gx_ref.data(), num);
  ExpectAllNear(gx, gx_ref, 4e-6f);
}

TEST_P(KernelFlavorTest, QGemmABTBitIdenticalToScalar) {
  const auto [m, k, n] = GetParam();
  Rng rng(38);
  std::vector<int8_t> a(m * k), b(n * k);
  for (auto& v : a)
    v = static_cast<int8_t>(rng.UniformInt(255) - 127);  // [-127, 127]
  for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(255) - 127);

  // The two sides start from different garbage: C is written, never read.
  std::vector<int32_t> ref(m * n, 7);
  quant::scalar::QGemmABT(a.data(), b.data(), ref.data(), m, k, n);
  for (int threads : {1, 4}) {
    SetComputeThreads(threads);
    std::vector<int32_t> c(m * n, 0x7f7f7f7f);
    quant::QGemmABT(a.data(), b.data(), c.data(), m, k, n);
    ASSERT_EQ(c, ref) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelFlavorTest,
    ::testing::Values(GemmShape{1, 1, 1},       // degenerate
                      GemmShape{3, 5, 7},       // below one vector width
                      GemmShape{8, 16, 8},      // exact SIMD multiples
                      GemmShape{37, 71, 29},    // ragged overhangs
                      GemmShape{64, 33, 130}),  // tails in every loop
    ShapeName);

TEST(KernelFlavorNameTest, ReportsABuiltInFlavor) {
  const std::string flavor = kernels::SimdFlavorName();
  EXPECT_TRUE(flavor == "scalar" || flavor == "avx2" || flavor == "neon")
      << flavor;
}

}  // namespace
}  // namespace rotom
