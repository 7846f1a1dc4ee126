// Buffers from BufferPool::AcquireUninitialized hold whatever their last
// owner wrote, and pass-through ops hand one gradient buffer from node to
// node. Both are safe only if every element is written before it is read.
// Each case here runs twice. The reference run starts on a trimmed pool with
// no room to park anything, so every buffer is a fresh zeroed allocation.
// The second run starts after NaN-filled buffers were parked in every size
// class and recycles as usual, so a buffer holds NaN or what the run itself
// left in it. An element read before it is written then changes the
// second run's results, so outputs and leaf gradients must match bit for
// bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/classifier.h"
#include "nn/optim.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"

namespace rotom {
namespace {

// Parks NaN-filled buffers in size classes 2^0 .. 2^kMaxClass floats, up to
// kPoisonBytesPerClass (and at most kMaxPerClass buffers) per class: more
// than any case below holds alive at once in the classes it uses.
constexpr int kMaxClass = 20;
constexpr int64_t kPoisonBytesPerClass = 4 << 20;
constexpr int64_t kMaxPerClass = 256;

void PoisonPool() {
  BufferPool::Instance().Trim();
  std::vector<Tensor> parked;
  for (int b = 0; b <= kMaxClass; ++b) {
    const int64_t numel = int64_t{1} << b;
    const int64_t count = std::clamp<int64_t>(
        kPoisonBytesPerClass / (numel * int64_t{sizeof(float)}), 1,
        kMaxPerClass);
    for (int64_t i = 0; i < count; ++i) {
      Tensor t({numel});
      t.Fill(std::numeric_limits<float>::quiet_NaN());
      parked.push_back(std::move(t));
    }
  }
}  // `parked` dies here: every buffer goes back to its class, NaN-filled

using Case = std::function<std::vector<Tensor>()>;

// The pool's default byte cap (buffer_pool.h).
constexpr size_t kDefaultCapacityBytes = size_t{256} << 20;

// Runs `fn` without recycling and on a poisoned pool; expects equal bits.
void ExpectPoolIndependent(const std::string& name, const Case& fn) {
  BufferPool& pool = BufferPool::Instance();
  pool.Trim();
  pool.SetCapacityBytes(0);
  const std::vector<Tensor> clean = fn();
  pool.SetCapacityBytes(kDefaultCapacityBytes);
  PoisonPool();
  const std::vector<Tensor> poisoned = fn();
  pool.Trim();
  ASSERT_EQ(clean.size(), poisoned.size()) << name;
  for (size_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(clean[i].shape(), poisoned[i].shape()) << name << " #" << i;
    EXPECT_EQ(std::memcmp(clean[i].data(), poisoned[i].data(),
                          sizeof(float) * clean[i].size()),
              0)
        << name << ": result #" << i << " differs on a poisoned pool";
  }
}

Variable Leaf(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  return Variable(Tensor::Randn(std::move(shape), rng, 0.5f),
                  /*requires_grad=*/true);
}

// One op case: makes its leaves, builds a scalar loss from the op's inputs
// and reports the op's output. `interior` feeds the op Scale(leaf) instead
// of the leaf, so its backward writes interior gradients (the no-fill,
// write-mode and hand-off paths) that Scale then carries to the leaves.
struct OpCase {
  std::string name;
  std::function<std::vector<Variable>()> leaves;
  std::function<Variable(const std::vector<Variable>&, Variable* out)> loss;
};

Variable SumSq(const Variable& y) { return ops::Sum(ops::Mul(y, y)); }

std::vector<OpCase> OpCases() {
  auto one = [](std::vector<int64_t> s, uint64_t seed) {
    return [s, seed] { return std::vector<Variable>{Leaf(s, seed)}; };
  };
  auto two = [](std::vector<int64_t> s0, uint64_t seed0,
                std::vector<int64_t> s1, uint64_t seed1) {
    return [=] {
      return std::vector<Variable>{Leaf(s0, seed0), Leaf(s1, seed1)};
    };
  };
  auto sq = [](std::function<Variable(const std::vector<Variable>&)> op) {
    return [op](const std::vector<Variable>& in, Variable* out) {
      *out = op(in);
      return SumSq(*out);
    };
  };
  using In = const std::vector<Variable>&;
  std::vector<OpCase> cases = {
      {"AddSameShape", two({2, 3}, 1, {2, 3}, 2),
       sq([](In v) { return ops::Add(v[0], v[1]); })},
      {"AddSelf", one({2, 3}, 1),
       sq([](In v) { return ops::Add(v[0], v[0]); })},
      {"AddBroadcastBias", two({2, 2, 3}, 3, {3}, 4),
       sq([](In v) { return ops::Add(v[0], v[1]); })},
      {"Sub", two({4}, 5, {4}, 6),
       sq([](In v) { return ops::Sub(v[0], v[1]); })},
      {"SubSelf", one({4}, 5), sq([](In v) { return ops::Sub(v[0], v[0]); })},
      {"MulAndScaleAndAddScalar", two({3, 2}, 7, {3, 2}, 8),
       sq([](In v) {
         return ops::AddScalar(ops::Scale(ops::Mul(v[0], v[1]), 1.5f), 0.3f);
       })},
      {"MatMul2D", two({3, 4}, 9, {4, 2}, 10),
       sq([](In v) { return ops::MatMul(v[0], v[1]); })},
      {"MatMulBatched3D", two({2, 3, 4}, 11, {2, 4, 2}, 12),
       sq([](In v) { return ops::MatMul(v[0], v[1]); })},
      {"MatMulSharedRight", two({2, 3, 4}, 13, {4, 2}, 14),
       sq([](In v) { return ops::MatMul(v[0], v[1]); })},
      {"MatMul4DBatched", two({2, 2, 3, 2}, 15, {2, 2, 2, 3}, 16),
       sq([](In v) { return ops::MatMul(v[0], v[1]); })},
      {"MatMulSharedRight4D", two({2, 2, 3, 4}, 35, {4, 2}, 36),
       sq([](In v) { return ops::MatMul(v[0], v[1]); })},
      {"MatMulSquareSelf", one({3, 3}, 9),
       sq([](In v) { return ops::MatMul(v[0], v[0]); })},
      {"MatMulBT2D", two({3, 4}, 37, {2, 4}, 38),
       sq([](In v) { return ops::MatMulBT(v[0], v[1]); })},
      {"MatMulBTBatched4D", two({2, 2, 3, 4}, 39, {2, 2, 5, 4}, 40),
       sq([](In v) { return ops::MatMulBT(v[0], v[1]); })},
      {"MatMulBTSharedRight", two({2, 3, 4}, 41, {5, 4}, 42),
       sq([](In v) { return ops::MatMulBT(v[0], v[1]); })},
      {"TransposeLastTwo", one({2, 3, 4}, 17),
       sq([](In v) { return ops::Transpose(v[0], 1, 2); })},
      {"Reshape", one({2, 6}, 18),
       sq([](In v) { return ops::Reshape(v[0], {3, 4}); })},
      {"Softmax", one({3, 4}, 19),
       sq([](In v) { return ops::Softmax(v[0]); })},
      {"LogSoftmax", one({2, 5}, 21),
       sq([](In v) { return ops::LogSoftmax(v[0]); })},
      {"MeanOp", one({7}, 23),
       [](In v, Variable* out) {
         *out = ops::Mul(v[0], v[0]);
         return ops::Mean(*out);
       }},
      {"SumOp", one({7}, 23),
       [](In v, Variable* out) {
         *out = ops::Mul(v[0], v[0]);
         return ops::Sum(*out);
       }},
      {"DotOp", two({5}, 24, {5}, 25),
       [](In v, Variable* out) {
         *out = ops::Dot(v[0], v[1]);
         return *out;
       }},
      {"Relu", one({10}, 26), sq([](In v) { return ops::Relu(v[0]); })},
      {"Abs", one({10}, 26), sq([](In v) { return ops::Abs(v[0]); })},
      {"Gelu", one({8}, 27), sq([](In v) { return ops::Gelu(v[0]); })},
      {"TanhOp", one({6}, 28), sq([](In v) { return ops::Tanh(v[0]); })},
      {"SigmoidOp", one({6}, 29), sq([](In v) { return ops::Sigmoid(v[0]); })},
      {"Dropout", one({40}, 30),
       sq([](In v) {
         Rng rng(31);
         return ops::Dropout(v[0], 0.4f, rng, /*training=*/true);
       })},
      {"EmbeddingGather", one({5, 3}, 30),
       sq([](In v) { return ops::Embedding(v[0], {0, 2, 2, 4}); })},
      {"LayerNormOp", [] {
         return std::vector<Variable>{
             Leaf({3, 4}, 31), Variable(Tensor::Full({4}, 1.2f), true),
             Variable(Tensor::Full({4}, 0.1f), true)};
       },
       sq([](In v) { return ops::LayerNorm(v[0], v[1], v[2]); })},
      {"ConcatLastDim", two({2, 3}, 33, {2, 2}, 34),
       sq([](In v) { return ops::ConcatLastDim({v[0], v[1]}); })},
      {"SelectIndexMiddleDim", one({2, 3, 4}, 35),
       sq([](In v) { return ops::SelectIndex(v[0], 1, 0); })},
      {"AddSequenceMask", one({2, 2, 3, 4}, 36),
       sq([](In v) {
         Rng rng(37);
         return ops::AddSequenceMask(
             v[0], Tensor::RandUniform({2, 4}, rng, -1.0f, 0.0f));
       })},
      {"AddCausalMask", one({2, 3, 4}, 36),
       [](In v, Variable* out) {
         *out = ops::AddCausalMask(v[0]);
         return ops::Sum(ops::Softmax(*out));
       }},
      {"CrossEntropyPerExample", one({4, 3}, 38),
       [](In v, Variable* out) {
         *out = ops::CrossEntropyPerExample(v[0], {0, 1, 2, 1});
         return ops::Sum(*out);
       }},
      {"CrossEntropyMean", one({3, 4}, 39),
       [](In v, Variable* out) {
         *out = ops::CrossEntropyMean(v[0], {3, 0, 2});
         return *out;
       }},
      {"SoftCrossEntropy", one({3, 3}, 40),
       [](In v, Variable* out) {
         const Tensor q = Tensor::FromVector(
             {3, 3}, {0.7f, 0.2f, 0.1f, 0.0f, 1.0f, 0.0f, 0.3f, 0.3f, 0.4f});
         *out = ops::SoftCrossEntropyPerExample(v[0], q);
         return ops::Sum(*out);
       }},
      {"NormalizeMeanOne",
       [] {
         Rng rng(41);
         return std::vector<Variable>{
             Variable(Tensor::RandUniform({5}, rng, 0.2f, 1.0f), true)};
       },
       sq([](In v) { return ops::NormalizeMeanOne(v[0]); })},
      {"WeightedPerExampleLossComposition",
       [] {
         Rng rng(44);
         return std::vector<Variable>{
             Leaf({4, 2}, 43),
             Variable(Tensor::RandUniform({4}, rng, 0.3f, 0.9f), true)};
       },
       [](In v, Variable* out) {
         Variable ce = ops::CrossEntropyPerExample(v[0], {0, 1, 1, 0});
         *out = ops::NormalizeMeanOne(v[1]);
         return ops::Scale(ops::Dot(ce, *out), 1.0f / 4.0f);
       }},
  };
  return cases;
}

TEST(PoisonedPoolTest, EveryOpForwardAndBackward) {
  for (const OpCase& op : OpCases()) {
    for (bool interior : {false, true}) {
      ExpectPoolIndependent(
          op.name + (interior ? " (interior inputs)" : ""), [&] {
            const std::vector<Variable> leaves = op.leaves();
            std::vector<Variable> inputs;
            for (const Variable& leaf : leaves) {
              inputs.push_back(interior ? ops::Scale(leaf, 1.25f) : leaf);
            }
            Variable out;
            Variable loss = op.loss(inputs, &out);
            loss.Backward();
            std::vector<Tensor> result = {loss.value().Clone(),
                                          out.value().Clone()};
            for (const Variable& leaf : leaves) {
              result.push_back(leaf.grad().Clone());
            }
            return result;
          });
    }
  }
}

// The BM_ClassifierTrainStep shape: a 2-layer, 2-head, dim-32 encoder over
// 16 rows of 48 tokens.
models::ClassifierConfig StepConfig() {
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 48;
  config.dim = 32;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 64;
  return config;
}

std::shared_ptr<text::Vocabulary> StepVocab() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (int i = 0; i < 100; ++i) vocab->AddToken("tok" + std::to_string(i));
  return vocab;
}

std::vector<std::string> StepTexts() {
  std::vector<std::string> texts;
  for (int i = 0; i < 16; ++i) {
    std::string text;
    for (int j = 0; j <= (5 * i) % 23 + 3; ++j) {
      text += "tok" + std::to_string((7 * i + 3 * j) % 100) + " ";
    }
    texts.push_back(text);
  }
  return texts;
}

// ZeroGrad, forward, backward and an Adam step, with dropout on; returns the
// logits, every parameter gradient and every updated parameter.
std::vector<Tensor> TrainSteps(int steps) {
  Rng rng(5);
  models::TransformerClassifier model(StepConfig(), StepVocab(), rng);
  nn::Adam optimizer(model.Parameters(), 1e-3f);
  const text::EncodedBatch batch = text::EncodeBatchForClassifier(
      model.vocab(), StepTexts(), StepConfig().max_len);
  std::vector<int64_t> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 3 == 0 ? 1 : 0);
  std::vector<Tensor> result;
  for (int s = 0; s < steps; ++s) {
    optimizer.ZeroGrad();
    Variable logits = model.ForwardLogitsEncoded(batch, rng);
    ops::CrossEntropyMean(logits, labels).Backward();
    optimizer.Step();
    result.push_back(logits.value().Clone());
  }
  for (const Variable& p : model.Parameters()) {
    if (p.has_grad()) result.push_back(p.grad().Clone());
    result.push_back(p.value().Clone());
  }
  return result;
}

TEST(PoisonedPoolTest, ClassifierTrainStep) {
  ExpectPoolIndependent("train step", [] { return TrainSteps(2); });
}

TEST(PoisonedPoolTest, SessionForwardF32AndInt8) {
  ExpectPoolIndependent("session forward", [] {
    Rng rng(6);
    models::TransformerClassifier model(StepConfig(), StepVocab(), rng);
    const serve::Snapshot snapshot = serve::Snapshot::FromModel(model);
    auto quantized = serve::QuantizeSnapshot(snapshot);
    EXPECT_TRUE(quantized.ok());
    auto f32 = serve::InferenceSession::Create(snapshot);
    auto int8 = serve::InferenceSession::Create(quantized.value());
    EXPECT_TRUE(f32.ok() && int8.ok());
    const std::vector<std::string> texts = StepTexts();
    return std::vector<Tensor>{f32.value()->Logits(texts),
                               int8.value()->Logits(texts)};
  });
}

// Snapshot::BuildModel constructs without drawing, so every parameter
// starts as uninitialized pool storage until the snapshot's tensor replaces
// it: a parameter the build leaves on that storage shows here. Both
// precisions from both snapshot generations are built on the poisoned pool.
TEST(PoisonedPoolTest, SessionBuildWritesEveryParameter) {
  Rng rng(7);
  models::TransformerClassifier model(StepConfig(), StepVocab(), rng);
  const serve::Snapshot f32 = serve::Snapshot::FromModel(model);
  auto quantized = serve::QuantizeSnapshot(f32);
  ASSERT_TRUE(quantized.ok());
  const serve::Snapshot& int8 = quantized.value();
  ExpectPoolIndependent("session build", [&] {
    std::vector<Tensor> logits;
    for (const serve::Snapshot* snapshot : {&f32, &int8}) {
      for (const auto precision :
           {serve::InferenceSession::Precision::kFloat32,
            serve::InferenceSession::Precision::kInt8}) {
        serve::InferenceSession::Options options;
        options.precision = precision;
        auto session = serve::InferenceSession::Create(*snapshot, options);
        EXPECT_TRUE(session.ok());
        logits.push_back(session.value()->Logits(StepTexts()));
      }
    }
    return logits;
  });
}

// The zero fill that no-fill outputs, write-mode kernels and gradient
// hand-off removed, pinned on one warm training step (the pool already
// holds the step's buffers). Before them every acquire zero-filled, and the
// second of these steps filled kStepBytesFillingEveryAcquire in 201 acquires
// (measured with a build that counted the bytes of every fill); with them
// it fills about 2.07 MB in 146. What is left is mostly fresh gradients
// that row kernels (softmax, layer norm, GELU) add into.
constexpr uint64_t kStepBytesFillingEveryAcquire = 23825160;

TEST(ZeroFillAccountingTest, WarmTrainStepFillsUnder15Percent) {
  BufferPool& pool = BufferPool::Instance();
  pool.Trim();
  Rng rng(5);
  models::TransformerClassifier model(StepConfig(), StepVocab(), rng);
  nn::Adam optimizer(model.Parameters(), 1e-3f);
  const text::EncodedBatch batch = text::EncodeBatchForClassifier(
      model.vocab(), StepTexts(), StepConfig().max_len);
  const std::vector<int64_t> labels(16, 1);
  auto step = [&] {
    optimizer.ZeroGrad();
    ops::CrossEntropyMean(model.ForwardLogitsEncoded(batch, rng), labels)
        .Backward();
    optimizer.Step();
  };
  step();
  const uint64_t before = pool.GetStats().zero_filled_bytes;
  step();
  const uint64_t filled = pool.GetStats().zero_filled_bytes - before;
  std::printf("warm step zero-filled %llu of %llu bytes\n",
              static_cast<unsigned long long>(filled),
              static_cast<unsigned long long>(kStepBytesFillingEveryAcquire));
  EXPECT_LT(static_cast<double>(filled),
            0.15 * static_cast<double>(kStepBytesFillingEveryAcquire));
}

TEST(ZeroFillAccountingTest, CountsFillsNotReuse) {
  BufferPool& pool = BufferPool::Instance();
  pool.Trim();
  const uint64_t start = pool.GetStats().zero_filled_bytes;
  { Tensor t({1000}); }  // fresh and filled: 4000 bytes
  EXPECT_EQ(pool.GetStats().zero_filled_bytes - start, 4000u);
  { Tensor t({1000}); }  // recycled, filled again
  EXPECT_EQ(pool.GetStats().zero_filled_bytes - start, 8000u);
  { Tensor t = Tensor::Uninitialized({1000}); }  // recycled, no fill
  EXPECT_EQ(pool.GetStats().zero_filled_bytes - start, 8000u);
  // Growing past the recycled buffer's old size value-initializes the
  // tail: 24 more elements.
  { Tensor t = Tensor::Uninitialized({1024}); }
  EXPECT_EQ(pool.GetStats().zero_filled_bytes - start, 8096u);
}

}  // namespace
}  // namespace rotom
