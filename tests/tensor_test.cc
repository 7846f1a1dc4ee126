#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/buffer_pool.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace rotom {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.dim(), 2);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FullAndOnes) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
  Tensor o = Tensor::Ones({2, 2});
  EXPECT_EQ(o.Sum(), 4.0f);
}

TEST(TensorTest, FromVectorChecksSize) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_DEATH(Tensor::FromVector({2, 2}, {1, 2, 3}), "CHECK");
}

TEST(TensorTest, NegativeDimIndex) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
  EXPECT_EQ(t.size(1), 3);
}

TEST(TensorTest, AtRowMajorLayout) {
  Tensor t = Tensor::FromVector({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at({0, 2}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  t.at({1, 2}) = 9.0f;
  EXPECT_EQ(t[5], 9.0f);
}

TEST(TensorTest, CopySharesBuffer) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = a;
  b[0] = 7.0f;
  EXPECT_EQ(a[0], 7.0f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = a.Clone();
  b[0] = 7.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(TensorTest, ReshapeSharesDataAndInfersDim) {
  Tensor a = Tensor::FromVector({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor b = a.Reshape({3, -1});
  EXPECT_EQ(b.shape(), (std::vector<int64_t>{3, 2}));
  b[0] = 42.0f;
  EXPECT_EQ(a[0], 42.0f);
  EXPECT_DEATH(a.Reshape({4, 2}), "CHECK");
}

TEST(TensorTest, ArithmeticHelpers) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  a.AddInPlace(b);
  EXPECT_EQ(a[2], 33.0f);
  a.AddScaled(b, -1.0f);
  EXPECT_EQ(a[1], 2.0f);
  a.Scale(2.0f);
  EXPECT_EQ(a[0], 2.0f);
  a.CopyFrom(b);
  EXPECT_TRUE(a.Equals(b));
}

TEST(TensorTest, Reductions) {
  Tensor a = Tensor::FromVector({4}, {1, -2, 3, -4});
  EXPECT_EQ(a.Sum(), -2.0f);
  EXPECT_EQ(a.Mean(), -0.5f);
  EXPECT_EQ(a.AbsMax(), 4.0f);
  EXPECT_NEAR(a.Norm(), std::sqrt(30.0f), 1e-5f);
}

TEST(TensorTest, AllCloseRespectsTolerance) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 2.0f});
  Tensor b = Tensor::FromVector({2}, {1.0f + 5e-6f, 2.0f});
  EXPECT_TRUE(a.AllClose(b));
  EXPECT_FALSE(a.AllClose(b, 1e-7f));
  Tensor c = Tensor::FromVector({1}, {1.0f});
  EXPECT_FALSE(a.AllClose(c));
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(3);
  Tensor t = Tensor::Randn({10000}, rng, 2.0f);
  EXPECT_NEAR(t.Mean(), 0.0f, 0.1f);
  double var = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) var += t[i] * t[i];
  EXPECT_NEAR(var / t.size(), 4.0, 0.3);
}

TEST(TensorTest, RandUniformRange) {
  Rng rng(4);
  Tensor t = Tensor::RandUniform({1000}, rng, -0.5f, 0.5f);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], -0.5f);
    EXPECT_LT(t[i], 0.5f);
  }
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor({2, 3}).ShapeString(), "Tensor[2,3]");
}

TEST(TransposeCopyTest, Transpose2D) {
  Tensor a = Tensor::FromVector({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor t = ops::TransposeCopy(a, 0, 1);
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(t.at({0, 1}), 3.0f);
  EXPECT_EQ(t.at({2, 0}), 2.0f);
}

TEST(TransposeCopyTest, TransposeMiddleDims4D) {
  // [B=2,T=3,H=2,D=2] -> swap dims 1,2 -> [2,2,3,2]
  std::vector<float> vals(24);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<float>(i);
  Tensor a = Tensor::FromVector({2, 3, 2, 2}, vals);
  Tensor t = ops::TransposeCopy(a, 1, 2);
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{2, 2, 3, 2}));
  for (int64_t b = 0; b < 2; ++b)
    for (int64_t i = 0; i < 3; ++i)
      for (int64_t h = 0; h < 2; ++h)
        for (int64_t d = 0; d < 2; ++d)
          EXPECT_EQ(t.at({b, h, i, d}), a.at({b, i, h, d}));
}

TEST(TransposeCopyTest, DoubleTransposeIsIdentity) {
  Rng rng(5);
  Tensor a = Tensor::Randn({2, 3, 4}, rng);
  Tensor t = ops::TransposeCopy(ops::TransposeCopy(a, 0, 2), 0, 2);
  EXPECT_TRUE(t.AllClose(a));
}

TEST(SoftmaxRowsTest, RowsSumToOne) {
  Tensor logits = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor p = ops::SoftmaxRows(logits);
  for (int64_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 3; ++j) sum += p.at({r, j});
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(p.at({0, 2}), p.at({0, 0}));
}

TEST(SoftmaxRowsTest, StableForLargeLogits) {
  Tensor logits = Tensor::FromVector({1, 2}, {1000.0f, 1000.0f});
  Tensor p = ops::SoftmaxRows(logits);
  EXPECT_NEAR(p[0], 0.5f, 1e-5f);
  EXPECT_NEAR(p[1], 0.5f, 1e-5f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(7);
  NamedTensors tensors;
  tensors.emplace_back("embed.weight", Tensor::Randn({5, 4}, rng));
  tensors.emplace_back("head.bias", Tensor::Randn({3}, rng));
  ByteWriter out;
  for (const auto& [name, tensor] : tensors) {
    out.String(name);
    out.TensorEntry(tensor);
  }
  const std::string path = ::testing::TempDir() + "/rotom_codec_test.bin";
  ASSERT_TRUE(WriteFileAtomic(path, {out.buffer()}).ok());
  auto file = MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ(file.value().bytes(), out.buffer());

  ByteReader in(file.value().bytes());
  for (const auto& [name, tensor] : tensors) {
    std::string got_name;
    Tensor got;
    ASSERT_TRUE(in.String(&got_name));
    ASSERT_TRUE(in.TensorEntry(&got).ok());
    EXPECT_EQ(got_name, name);
    EXPECT_TRUE(got.Equals(tensor));
  }
  EXPECT_EQ(in.remaining(), 0u);

  // An empty file maps to an empty view rather than failing mmap.
  ASSERT_TRUE(WriteFileAtomic(path, {}).ok());
  auto empty = MappedFile::Open(path);
  ASSERT_TRUE(empty.ok()) << empty.status().message();
  EXPECT_TRUE(empty.value().bytes().empty());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  auto loaded = MappedFile::Open("/nonexistent/rotom.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("cannot open"), std::string::npos)
      << loaded.status().message();
}

// Every length and count the reader takes from the bytes is checked against
// what is left before it allocates: inflated fields become errors.
TEST(SerializeTest, ReaderRejectsInflatedLengths) {
  const auto tensor_error = [](const ByteWriter& w) -> std::string {
    ByteReader in(w.buffer());
    Tensor t;
    const Status status = in.TensorEntry(&t);
    if (status.ok()) return "ok";
    EXPECT_FALSE(t.defined());  // nothing is handed out on error
    return status.message();
  };
  ByteWriter w;
  w.Pod<uint64_t>(uint64_t{1} << 62);  // a string length past the end
  w.Bytes("abc", 3);
  ByteReader in(w.buffer());
  std::string s;
  EXPECT_FALSE(in.String(&s));

  const auto entry = [](std::vector<uint64_t> rank_and_dims,
                        size_t data_bytes) {
    ByteWriter w;
    for (uint64_t v : rank_and_dims) w.Pod<uint64_t>(v);
    w.Bytes(std::string(data_bytes, '\0').data(), data_bytes);
    return w;
  };
  EXPECT_EQ(tensor_error(entry({0}, 4)), "bad tensor rank");
  EXPECT_EQ(tensor_error(entry({9, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 4)),
            "bad tensor rank");
  EXPECT_EQ(tensor_error(entry({2, 3, 0}, 0)), "bad tensor shape");
  EXPECT_EQ(tensor_error(entry({2, 3, ~uint64_t{0}}, 0)), "bad tensor shape");
  EXPECT_EQ(tensor_error(entry({3, 2}, 0)), "bad tensor shape");  // short dims
  EXPECT_EQ(tensor_error(entry({1, uint64_t{1} << 40}, 64)),
            "truncated tensor data");
  // 2^33 * 2^33 overflows u64; the check must not wrap around.
  EXPECT_EQ(tensor_error(entry({2, uint64_t{1} << 33, uint64_t{1} << 33}, 64)),
            "truncated tensor data");
  EXPECT_EQ(tensor_error(entry({2, 2, 3}, 23)), "truncated tensor data");
  EXPECT_EQ(tensor_error(entry({2, 2, 3}, 24)), "ok");
}

TEST(BufferPoolTest, RecyclesTensorBuffers) {
  auto& pool = BufferPool::Instance();
  const auto before = pool.GetStats();
  for (int i = 0; i < 10; ++i) {
    Tensor t({32, 64});
    EXPECT_EQ(t[0], 0.0f);  // recycled buffers come back zero-filled
    t[0] = 1.0f;            // dirty it so reuse without re-zeroing would show
  }
  const auto after = pool.GetStats();
  // Each iteration releases its buffer before the next acquires the same
  // size class, so at most the first construction hits the allocator.
  EXPECT_GE(after.reused - before.reused, 9u);
}

TEST(BufferPoolTest, TrimDropsCachedBytes) {
  auto& pool = BufferPool::Instance();
  { Tensor t({64, 64}); }  // park one buffer
  EXPECT_GT(pool.GetStats().cached_bytes, 0u);
  pool.Trim();
  EXPECT_EQ(pool.GetStats().cached_bytes, 0u);
  // The pool keeps working after a trim.
  Tensor t({64, 64});
  EXPECT_EQ(t.Sum(), 0.0f);
}

}  // namespace
}  // namespace rotom
