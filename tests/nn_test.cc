#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "nn/transformer.h"
#include "tensor/quant.h"

namespace rotom {
namespace {

using testing_support::ExpectGradientsClose;

nn::TransformerConfig SmallConfig() {
  nn::TransformerConfig config;
  config.vocab_size = 20;
  config.dim = 8;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 16;
  config.max_seq_len = 10;
  config.dropout = 0.0f;  // deterministic for tests
  return config;
}

TEST(ModuleTest, ParameterCollection) {
  Rng rng(1);
  nn::Linear lin(4, 3, rng);
  auto params = lin.Parameters();
  ASSERT_EQ(params.size(), 2u);           // weight + bias
  EXPECT_EQ(lin.NumParameters(), 4 * 3 + 3);
}

TEST(ModuleTest, NoBiasLinear) {
  Rng rng(1);
  nn::Linear lin(4, 3, rng, /*with_bias=*/false);
  EXPECT_EQ(lin.NumParameters(), 12);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(2);
  nn::Linear lin(2, 2, rng);
  Variable x(Tensor::Ones({3, 2}), false);
  ops::Sum(lin.Forward(x)).Backward();
  for (const auto& p : lin.Parameters()) EXPECT_TRUE(p.has_grad());
  lin.ZeroGrad();
  for (const auto& p : lin.Parameters()) {
    EXPECT_EQ(p.grad().AbsMax(), 0.0f);
  }
}

TEST(ModuleTest, StateDictRoundTrip) {
  Rng rng(3);
  nn::FeedForward a(4, 8, rng);
  nn::FeedForward b(4, 8, rng);
  // a and b differ after independent init.
  auto dict = a.StateDict();
  ASSERT_EQ(dict.size(), 4u);  // two linears, weight+bias each
  b.LoadStateDict(dict);
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i)
    EXPECT_TRUE(pa[i].value().Equals(pb[i].value()));
}

TEST(ModuleTest, StateDictNamesAreDotted) {
  Rng rng(4);
  nn::FeedForward ff(4, 8, rng);
  auto dict = ff.StateDict("ffn.");
  EXPECT_EQ(dict[0].first, "ffn.in.weight");
  EXPECT_EQ(dict[3].first, "ffn.out.bias");
}

TEST(ModuleTest, CopyParametersFrom) {
  Rng rng(5);
  nn::Linear a(3, 3, rng);
  nn::Linear b(3, 3, rng);
  b.CopyParametersFrom(a);
  EXPECT_TRUE(a.Parameters()[0].value().Equals(b.Parameters()[0].value()));
}

TEST(ModuleTest, SetTrainingPropagates) {
  Rng rng(6);
  nn::TransformerEncoder enc(SmallConfig(), rng);
  enc.SetTraining(false);
  EXPECT_FALSE(enc.training());
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(7);
  nn::Linear lin(2, 2, rng);
  auto params = lin.Parameters();
  Tensor& w = params[0].value();
  Tensor& b = params[1].value();
  w = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  params[0].value().CopyFrom(w);
  b.CopyFrom(Tensor::FromVector({2}, {0.5f, -0.5f}));
  Variable x(Tensor::FromVector({1, 2}, {1, 1}), false);
  Tensor y = lin.Forward(x).value();
  EXPECT_NEAR(y[0], 1 + 3 + 0.5f, 1e-5f);
  EXPECT_NEAR(y[1], 2 + 4 - 0.5f, 1e-5f);
}

TEST(LinearTest, Handles3DInput) {
  Rng rng(8);
  nn::Linear lin(4, 6, rng);
  Variable x(Tensor::Ones({2, 3, 4}), false);
  Variable y = lin.Forward(x);
  EXPECT_EQ(y.value().shape(), (std::vector<int64_t>{2, 3, 6}));
}

TEST(LinearTest, GradCheck) {
  Rng rng(9);
  nn::Linear lin(3, 2, rng);
  Variable x(Tensor::Randn({4, 3}, rng, 0.5f), true);
  std::vector<Variable> leaves = lin.Parameters();
  leaves.push_back(x);
  ExpectGradientsClose(leaves, [&] {
    Variable y = lin.Forward(x);
    return ops::Sum(ops::Mul(y, y));
  });
}

// Row-quantized codes for the [out, in] transpose of a Linear weight.
quant::QuantizedTensor RandomCodes(int64_t in, int64_t out, Rng& rng) {
  const Tensor wt = Tensor::Randn({out, in}, rng, 0.5f);
  return quant::QuantizeRows(wt.data(), out, in);
}

// An int8 Linear is quant::QLinear over its codes and bias, bit for bit,
// on 2-D and on 3-D input, and keeps no f32 weight.
TEST(LinearTest, Int8ModeIsQLinear) {
  constexpr int64_t kIn = 12, kOut = 5;
  Rng rng(10);
  nn::Linear lin(kIn, kOut, rng);
  Tensor& bias = lin.Parameters()[1].value();
  for (int64_t j = 0; j < kOut; ++j) bias[j] = 0.25f * static_cast<float>(j);
  const quant::QuantizedTensor codes = RandomCodes(kIn, kOut, rng);
  const std::vector<int32_t> row_sums = quant::RowSums(codes);
  lin.SetInt8Weight(codes);
  ASSERT_TRUE(lin.int8());
  EXPECT_FALSE(lin.Parameters()[0].value().defined());
  EXPECT_EQ(lin.NumParameters(), kOut);  // the bias alone

  NoGradGuard no_grad;
  for (const std::vector<int64_t>& shape :
       {std::vector<int64_t>{7, kIn}, std::vector<int64_t>{2, 3, kIn}}) {
    const Tensor x = Tensor::Randn(shape, rng);
    const Tensor y = lin.Forward(Variable(x, false)).value();
    std::vector<int64_t> out_shape = shape;
    out_shape.back() = kOut;
    ASSERT_EQ(y.shape(), out_shape);
    std::vector<float> want(static_cast<size_t>(y.size()));
    quant::QLinear(x.data(), codes, row_sums.data(), bias.data(), want.data(),
                   x.size() / kIn);
    EXPECT_EQ(std::memcmp(y.data(), want.data(), sizeof(float) * want.size()),
              0);
  }
}

TEST(LinearDeathTest, Int8ModeAbortsUnderGradMode) {
  Rng rng(11);
  nn::Linear lin(4, 3, rng);
  lin.SetInt8Weight(RandomCodes(4, 3, rng));
  const Variable x(Tensor::Ones({2, 4}), true);
  EXPECT_DEATH(lin.Forward(x), "NoGradGuard");
}

TEST(EmbeddingLayerTest, LookupShape) {
  Rng rng(10);
  nn::EmbeddingLayer emb(10, 4, rng);
  Variable y = emb.Forward({1, 2, 3, 1});
  EXPECT_EQ(y.value().shape(), (std::vector<int64_t>{4, 4}));
  // Repeated ids give identical rows.
  for (int64_t j = 0; j < 4; ++j)
    EXPECT_EQ(y.value().at({0, j}), y.value().at({3, j}));
}

TEST(LayerNormLayerTest, NormalizesRows) {
  Rng rng(11);
  nn::LayerNormLayer ln(6);
  Variable x(Tensor::Randn({3, 6}, rng, 2.0f), false);
  Tensor y = ln.Forward(x).value();
  for (int64_t r = 0; r < 3; ++r) {
    double mu = 0.0, var = 0.0;
    for (int64_t j = 0; j < 6; ++j) mu += y.at({r, j});
    mu /= 6;
    for (int64_t j = 0; j < 6; ++j) {
      const double d = y.at({r, j}) - mu;
      var += d * d;
    }
    var /= 6;
    EXPECT_NEAR(mu, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(AttentionTest, MaskToBias) {
  Tensor mask = Tensor::FromVector({2, 3}, {1, 1, 0, 1, 0, 0});
  Tensor bias = nn::MaskToAttentionBias(mask);
  EXPECT_EQ(bias.at({0, 0}), 0.0f);
  EXPECT_EQ(bias.at({0, 2}), -1e9f);
  EXPECT_EQ(bias.at({1, 1}), -1e9f);
}

TEST(AttentionTest, OutputShape) {
  Rng rng(12);
  nn::MultiHeadAttention mha(8, 2, 0.0f, rng);
  mha.SetTraining(false);
  Variable x(Tensor::Randn({2, 5, 8}, rng, 0.5f), false);
  Tensor bias({2, 5});
  Variable y = mha.Forward(x, x, bias, false, rng);
  EXPECT_EQ(y.value().shape(), (std::vector<int64_t>{2, 5, 8}));
}

TEST(AttentionTest, PaddingKeysIgnored) {
  // Changing a fully-masked key position must not change the output.
  Rng rng(13);
  nn::MultiHeadAttention mha(8, 2, 0.0f, rng);
  mha.SetTraining(false);
  Tensor base = Tensor::Randn({1, 4, 8}, rng, 0.5f);
  Tensor mask = Tensor::FromVector({1, 4}, {1, 1, 1, 0});
  Tensor bias = nn::MaskToAttentionBias(mask);

  Variable x1(base.Clone(), false);
  Variable y1 = mha.Forward(x1, x1, bias, false, rng);

  Tensor altered = base.Clone();
  for (int64_t j = 0; j < 8; ++j) altered.at({0, 3, j}) += 5.0f;
  Variable x2(altered, false);
  // Only keys/values from x2's padded position change; queries also change
  // at that position, so compare only non-padded output rows.
  Variable y2 = mha.Forward(x2, x2, bias, false, rng);
  for (int64_t t = 0; t < 3; ++t)
    for (int64_t j = 0; j < 8; ++j)
      EXPECT_NEAR(y1.value().at({0, t, j}), y2.value().at({0, t, j}), 1e-4f);
}

TEST(AttentionTest, CausalMaskBlocksFuture) {
  // With a causal mask, output at position t must not depend on inputs at
  // positions > t.
  Rng rng(14);
  nn::MultiHeadAttention mha(8, 2, 0.0f, rng);
  mha.SetTraining(false);
  Tensor base = Tensor::Randn({1, 4, 8}, rng, 0.5f);
  Tensor bias({1, 4});

  Variable x1(base.Clone(), false);
  Variable y1 = mha.Forward(x1, x1, bias, true, rng);

  Tensor altered = base.Clone();
  for (int64_t j = 0; j < 8; ++j) altered.at({0, 3, j}) += 3.0f;
  Variable x2(altered, false);
  Variable y2 = mha.Forward(x2, x2, bias, true, rng);
  for (int64_t t = 0; t < 3; ++t)
    for (int64_t j = 0; j < 8; ++j)
      EXPECT_NEAR(y1.value().at({0, t, j}), y2.value().at({0, t, j}), 1e-4f);
}

TEST(AttentionTest, GradFlowsToAllProjections) {
  Rng rng(15);
  nn::MultiHeadAttention mha(8, 2, 0.0f, rng);
  Variable x(Tensor::Randn({1, 3, 8}, rng, 0.5f), true);
  Tensor bias({1, 3});
  ops::Sum(mha.Forward(x, x, bias, false, rng)).Backward();
  for (const auto& p : mha.Parameters()) EXPECT_TRUE(p.has_grad());
  EXPECT_TRUE(x.has_grad());
}

TEST(TransformerTest, EncoderOutputShape) {
  Rng rng(16);
  nn::TransformerEncoder enc(SmallConfig(), rng);
  enc.SetTraining(false);
  std::vector<int64_t> ids{1, 2, 3, 4, 5, 6};  // batch 2, seq 3
  Tensor mask = Tensor::Ones({2, 3});
  Variable h = enc.Forward(ids, 2, 3, mask, rng);
  EXPECT_EQ(h.value().shape(), (std::vector<int64_t>{2, 3, 8}));
  Variable cls = enc.EncodeCls(ids, 2, 3, mask, rng);
  EXPECT_EQ(cls.value().shape(), (std::vector<int64_t>{2, 8}));
}

TEST(TransformerTest, EncoderDeterministicInEval) {
  Rng rng(17);
  nn::TransformerEncoder enc(SmallConfig(), rng);
  enc.SetTraining(false);
  std::vector<int64_t> ids{1, 2, 3, 4};
  Tensor mask = Tensor::Ones({1, 4});
  Rng r1(0), r2(0);
  Variable a = enc.Forward(ids, 1, 4, mask, r1);
  Variable b = enc.Forward(ids, 1, 4, mask, r2);
  EXPECT_TRUE(a.value().AllClose(b.value()));
}

TEST(TransformerTest, EncoderGradReachesEmbeddings) {
  Rng rng(18);
  nn::TransformerEncoder enc(SmallConfig(), rng);
  std::vector<int64_t> ids{1, 2, 3, 4};
  std::vector<int64_t> flags{0, 1, 1, 0};
  Tensor mask = Tensor::Ones({1, 4});
  ops::Sum(enc.Forward(ids, 1, 4, mask, rng, &flags)).Backward();
  int with_grad = 0;
  for (const auto& p : enc.Parameters())
    if (p.has_grad()) ++with_grad;
  EXPECT_EQ(with_grad, static_cast<int>(enc.Parameters().size()));
}

TEST(TransformerTest, FlagEmbeddingChangesOutput) {
  Rng rng(19);
  nn::TransformerEncoder enc(SmallConfig(), rng);
  enc.SetTraining(false);
  // Make the flag embedding's two rows clearly different so the flag stream
  // matters.
  for (auto& p : enc.Parameters()) {
    if (p.value().dim() == 2 && p.value().size(0) == 2 &&
        p.value().size(1) == SmallConfig().dim) {
      for (int64_t j = 0; j < SmallConfig().dim; ++j) {
        // Alternating signs: a constant vector would be cancelled by the
        // embedding LayerNorm's centering.
        p.value().at({0, j}) = 0.0f;
        p.value().at({1, j}) = j % 2 == 0 ? 1.0f : -1.0f;
      }
    }
  }
  std::vector<int64_t> ids{1, 2, 3, 4};
  std::vector<int64_t> flags0{0, 0, 0, 0};
  std::vector<int64_t> flags1{0, 1, 1, 0};
  Tensor mask = Tensor::Ones({1, 4});
  Rng r1(0), r2(0);
  Variable a = enc.Forward(ids, 1, 4, mask, r1, &flags0);
  Variable b = enc.Forward(ids, 1, 4, mask, r2, &flags1);
  EXPECT_FALSE(a.value().AllClose(b.value()));
}

TEST(TransformerTest, PaddingPositionDoesNotAffectCls) {
  auto config = SmallConfig();
  Rng rng(19);
  nn::TransformerEncoder enc(config, rng);
  enc.SetTraining(false);
  Tensor mask = Tensor::FromVector({1, 4}, {1, 1, 1, 0});
  Rng r1(0), r2(0);
  Variable a = enc.EncodeCls({1, 2, 3, 7}, 1, 4, mask, r1);
  Variable b = enc.EncodeCls({1, 2, 3, 9}, 1, 4, mask, r2);
  EXPECT_TRUE(a.value().AllClose(b.value(), 1e-4f));
}

TEST(TransformerTest, DecoderOutputShape) {
  auto config = SmallConfig();
  Rng rng(20);
  nn::TransformerEncoder enc(config, rng);
  nn::TransformerDecoder dec(config, rng);
  enc.SetTraining(false);
  dec.SetTraining(false);
  std::vector<int64_t> src{1, 2, 3, 4};
  std::vector<int64_t> tgt{5, 6, 7};
  Tensor src_mask = Tensor::Ones({1, 4});
  Tensor tgt_mask = Tensor::Ones({1, 3});
  Variable memory = enc.Forward(src, 1, 4, src_mask, rng);
  Variable logits = dec.Forward(tgt, 1, 3, tgt_mask, memory, src_mask, rng);
  EXPECT_EQ(logits.value().shape(), (std::vector<int64_t>{1, 3, 20}));
}

TEST(TransformerTest, DecoderCausality) {
  // Logits at position t must not depend on target tokens after t.
  auto config = SmallConfig();
  Rng rng(21);
  nn::TransformerEncoder enc(config, rng);
  nn::TransformerDecoder dec(config, rng);
  enc.SetTraining(false);
  dec.SetTraining(false);
  std::vector<int64_t> src{1, 2, 3};
  Tensor src_mask = Tensor::Ones({1, 3});
  Tensor tgt_mask = Tensor::Ones({1, 3});
  Rng r(0);
  Variable memory = enc.Forward(src, 1, 3, src_mask, r);
  Variable l1 = dec.Forward({5, 6, 7}, 1, 3, tgt_mask, memory, src_mask, r);
  Variable l2 = dec.Forward({5, 6, 9}, 1, 3, tgt_mask, memory, src_mask, r);
  for (int64_t t = 0; t < 2; ++t)
    for (int64_t c = 0; c < 20; ++c)
      EXPECT_NEAR(l1.value().at({0, t, c}), l2.value().at({0, t, c}), 1e-4f);
}

TEST(OptimTest, SgdDescendsQuadratic) {
  Variable x(Tensor::FromVector({2}, {5.0f, -3.0f}), true);
  nn::Sgd opt({x}, 0.1f);
  for (int step = 0; step < 100; ++step) {
    opt.ZeroGrad();
    ops::Sum(ops::Mul(x, x)).Backward();
    opt.Step();
  }
  EXPECT_LT(x.value().AbsMax(), 1e-3f);
}

TEST(OptimTest, SgdMomentumAcceleratesDescent) {
  Variable a(Tensor::FromVector({1}, {10.0f}), true);
  Variable b(Tensor::FromVector({1}, {10.0f}), true);
  nn::Sgd plain({a}, 0.01f);
  nn::Sgd heavy({b}, 0.01f, 0.9f);
  for (int step = 0; step < 50; ++step) {
    plain.ZeroGrad();
    ops::Sum(ops::Mul(a, a)).Backward();
    plain.Step();
    heavy.ZeroGrad();
    ops::Sum(ops::Mul(b, b)).Backward();
    heavy.Step();
  }
  EXPECT_LT(std::fabs(b.value()[0]), std::fabs(a.value()[0]));
}

TEST(OptimTest, AdamDescendsQuadratic) {
  Variable x(Tensor::FromVector({3}, {2.0f, -1.0f, 0.5f}), true);
  nn::Adam opt({x}, 0.05f);
  for (int step = 0; step < 300; ++step) {
    opt.ZeroGrad();
    ops::Sum(ops::Mul(x, x)).Backward();
    opt.Step();
  }
  EXPECT_LT(x.value().AbsMax(), 1e-2f);
}

TEST(OptimTest, AdamSkipsParamsWithoutGrad) {
  Variable x(Tensor::FromVector({1}, {1.0f}), true);
  Variable unused(Tensor::FromVector({1}, {7.0f}), true);
  nn::Adam opt({x, unused}, 0.1f);
  opt.ZeroGrad();
  ops::Sum(ops::Mul(x, x)).Backward();
  opt.Step();
  EXPECT_EQ(unused.value()[0], 7.0f);
  EXPECT_NE(x.value()[0], 1.0f);
}

TEST(OptimTest, WeightDecayShrinksWeights) {
  Variable x(Tensor::FromVector({1}, {1.0f}), true);
  nn::Adam opt({x}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  // Loss is constant zero gradient except decay: simulate by backward of 0*x.
  for (int step = 0; step < 10; ++step) {
    opt.ZeroGrad();
    ops::Sum(ops::Scale(x, 0.0f)).Backward();
    opt.Step();
  }
  EXPECT_LT(x.value()[0], 1.0f);
}

TEST(OptimTest, ClipGradNormScalesDown) {
  Variable x(Tensor::FromVector({2}, {0.0f, 0.0f}), true);
  ops::Sum(ops::Scale(x, 30.0f)).Backward();  // grad = [30, 30]
  const float before = nn::ClipGradNorm({x}, 1.0f);
  EXPECT_NEAR(before, std::sqrt(2.0f) * 30.0f, 1e-3f);
  EXPECT_NEAR(x.grad().Norm(), 1.0f, 1e-4f);
}

TEST(OptimTest, ClipGradNormNoOpBelowThreshold) {
  Variable x(Tensor::FromVector({2}, {0.0f, 0.0f}), true);
  ops::Sum(ops::Scale(x, 0.1f)).Backward();
  nn::ClipGradNorm({x}, 10.0f);
  EXPECT_NEAR(x.grad()[0], 0.1f, 1e-6f);
}

TEST(TrainingIntegrationTest, TinyClassifierLearnsXor) {
  // End-to-end sanity: a 2-layer MLP built from the library fits XOR.
  Rng rng(22);
  nn::Linear l1(2, 8, rng);
  nn::Linear l2(8, 2, rng);
  std::vector<Variable> params = l1.Parameters();
  for (auto& p : l2.Parameters()) params.push_back(p);
  nn::Adam opt(params, 0.05f);

  Tensor inputs = Tensor::FromVector({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  std::vector<int64_t> labels{0, 1, 1, 0};
  for (int step = 0; step < 300; ++step) {
    opt.ZeroGrad();
    Variable x(inputs, false);
    Variable logits = l2.Forward(ops::Tanh(l1.Forward(x)));
    ops::CrossEntropyMean(logits, labels).Backward();
    opt.Step();
  }
  Variable x(inputs, false);
  Tensor probs = ops::SoftmaxRows(l2.Forward(ops::Tanh(l1.Forward(x))).value());
  for (int64_t i = 0; i < 4; ++i) {
    const int64_t pred = probs.at({i, 0}) > probs.at({i, 1}) ? 0 : 1;
    EXPECT_EQ(pred, labels[i]) << "example " << i;
  }
}

}  // namespace
}  // namespace rotom
