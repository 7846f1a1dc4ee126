#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/classifier.h"
#include "models/pretrain.h"
#include "models/seq2seq.h"
#include "nn/optim.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace rotom {
namespace {

using models::ClassifierConfig;
using models::Seq2SeqConfig;
using models::TransformerClassifier;

std::shared_ptr<text::Vocabulary> TinyVocab() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w :
       {"the", "movie", "was", "great", "terrible", "a", "b", "c", "d",
        "quick", "brown", "fox", "jumps", "over", "lazy", "dog"})
    vocab->AddToken(w);
  return vocab;
}

ClassifierConfig TinyClassifierConfig() {
  ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 12;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  return config;
}

TEST(ClassifierTest, LogitShape) {
  Rng rng(1);
  auto vocab = TinyVocab();
  TransformerClassifier model(TinyClassifierConfig(), vocab, rng);
  model.SetTraining(false);
  const text::EncodedBatch batch = text::EncodeBatchForClassifier(
      *vocab, {"the movie was great", "the movie was terrible"},
      TinyClassifierConfig().max_len);
  Variable logits = model.ForwardLogitsEncoded(batch, rng);
  EXPECT_EQ(logits.value().shape(), (std::vector<int64_t>{2, 2}));
}

TEST(ClassifierTest, PredictProbsSumToOne) {
  Rng rng(2);
  auto vocab = TinyVocab();
  TransformerClassifier model(TinyClassifierConfig(), vocab, rng);
  model.SetTraining(false);
  Tensor probs = model.PredictProbs({"the movie was great"}, rng);
  EXPECT_NEAR(probs[0] + probs[1], 1.0f, 1e-5f);
}

TEST(ClassifierTest, PredictReturnsArgmax) {
  Rng rng(3);
  auto vocab = TinyVocab();
  TransformerClassifier model(TinyClassifierConfig(), vocab, rng);
  model.SetTraining(false);
  Tensor probs = model.PredictProbs({"a b c"}, rng);
  auto preds = model.Predict({"a b c"}, rng);
  EXPECT_EQ(preds[0], probs[0] > probs[1] ? 0 : 1);
}

TEST(ClassifierTest, FineTuningLearnsTinyTask) {
  Rng rng(4);
  auto vocab = TinyVocab();
  auto config = TinyClassifierConfig();
  TransformerClassifier model(config, vocab, rng);
  nn::Adam optimizer(model.Parameters(), 2e-3f);

  std::vector<std::string> texts = {
      "the movie was great",     "the movie was terrible",
      "great great movie",       "terrible terrible movie",
      "a great movie",           "a terrible movie"};
  std::vector<int64_t> labels = {1, 0, 1, 0, 1, 0};

  model.SetTraining(true);
  const text::EncodedBatch batch =
      text::EncodeBatchForClassifier(*vocab, texts, config.max_len);
  for (int step = 0; step < 60; ++step) {
    optimizer.ZeroGrad();
    Variable logits = model.ForwardLogitsEncoded(batch, rng);
    ops::CrossEntropyMean(logits, labels).Backward();
    optimizer.Step();
  }
  model.SetTraining(false);
  auto preds = model.Predict(texts, rng);
  int correct = 0;
  for (size_t i = 0; i < texts.size(); ++i) correct += preds[i] == labels[i];
  EXPECT_GE(correct, 5);
}

TEST(ClassifierTest, StateDictRoundTripsThroughCheckpoints) {
  Rng rng(5);
  auto vocab = TinyVocab();
  auto config = TinyClassifierConfig();
  TransformerClassifier a(config, vocab, rng);
  TransformerClassifier b(config, vocab, rng);
  b.LoadStateDict(a.StateDict());
  Rng r1(9), r2(9);
  a.SetTraining(false);
  b.SetTraining(false);
  const text::EncodedBatch batch = text::EncodeBatchForClassifier(
      *vocab, {"the movie was great"}, config.max_len);
  Variable la = a.ForwardLogitsEncoded(batch, r1);
  Variable lb = b.ForwardLogitsEncoded(batch, r2);
  EXPECT_TRUE(la.value().AllClose(lb.value()));
}

TEST(PretrainTest, MlmLossDecreases) {
  Rng rng(6);
  auto vocab = TinyVocab();
  auto config = TinyClassifierConfig();
  TransformerClassifier model(config, vocab, rng);

  std::vector<std::string> corpus;
  for (int i = 0; i < 24; ++i) {
    corpus.push_back("the quick brown fox jumps over the lazy dog");
    corpus.push_back("the movie was great");
  }
  models::PretrainOptions first;
  first.epochs = 1;
  first.max_steps = 2;
  const float early = models::PretrainMaskedLm(model, corpus, rng, first);

  models::PretrainOptions more;
  more.epochs = 8;
  const float late = models::PretrainMaskedLm(model, corpus, rng, more);
  EXPECT_LT(late, early);
}

TEST(PretrainTest, EmptyCorpusIsNoop) {
  Rng rng(7);
  auto vocab = TinyVocab();
  TransformerClassifier model(TinyClassifierConfig(), vocab, rng);
  EXPECT_EQ(models::PretrainMaskedLm(model, {}, rng, {}), 0.0f);
}

TEST(PretrainTest, ChangesEncoderParameters) {
  Rng rng(8);
  auto vocab = TinyVocab();
  TransformerClassifier model(TinyClassifierConfig(), vocab, rng);
  const Tensor before = model.Parameters()[0].value().Clone();
  std::vector<std::string> corpus(16, "the quick brown fox jumps");
  models::PretrainOptions options;
  options.epochs = 1;
  models::PretrainMaskedLm(model, corpus, rng, options);
  EXPECT_FALSE(before.Equals(model.Parameters()[0].value()));
}

Seq2SeqConfig TinySeq2SeqConfig() {
  Seq2SeqConfig config;
  config.max_src_len = 12;
  config.max_tgt_len = 12;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  return config;
}

TEST(Seq2SeqTest, LossIsFiniteAndPositive) {
  Rng rng(9);
  auto vocab = TinyVocab();
  models::Seq2SeqModel model(TinySeq2SeqConfig(), vocab, rng);
  Variable loss =
      model.Loss({{"the movie was", "the movie was great"}}, rng);
  EXPECT_GT(loss.value()[0], 0.0f);
  EXPECT_LT(loss.value()[0], 20.0f);
}

TEST(Seq2SeqTest, GenerationProducesKnownTokens) {
  Rng rng(10);
  auto vocab = TinyVocab();
  models::Seq2SeqModel model(TinySeq2SeqConfig(), vocab, rng);
  model.SetTraining(false);
  models::SamplingOptions sampling;
  sampling.max_len = 6;
  Rng gen_rng(1);
  const std::string out = model.Generate("the movie", sampling, gen_rng);
  for (const auto& token : text::Tokenize(out)) {
    EXPECT_TRUE(vocab->Contains(token)) << token;
  }
}

TEST(Seq2SeqTest, GenerateBatchShape) {
  Rng rng(11);
  auto vocab = TinyVocab();
  models::Seq2SeqModel model(TinySeq2SeqConfig(), vocab, rng);
  model.SetTraining(false);
  models::SamplingOptions sampling;
  sampling.max_len = 4;
  Rng gen_rng(2);
  auto outs = model.GenerateBatch({"a b", "c d", "the fox"}, sampling, gen_rng);
  EXPECT_EQ(outs.size(), 3u);
}

TEST(Seq2SeqTest, LearnsIdentityOnTinyCorpus) {
  // After training on copy pairs, generation should reproduce input tokens
  // far more often than chance.
  Rng rng(12);
  auto vocab = TinyVocab();
  models::Seq2SeqModel model(TinySeq2SeqConfig(), vocab, rng);
  nn::Adam optimizer(model.Parameters(), 3e-3f);
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"a b", "a b"}, {"c d", "c d"}, {"the fox", "the fox"},
      {"lazy dog", "lazy dog"}};
  model.SetTraining(true);
  for (int step = 0; step < 120; ++step) {
    optimizer.ZeroGrad();
    Variable loss = model.Loss(pairs, rng);
    loss.Backward();
    optimizer.Step();
  }
  model.SetTraining(false);
  Variable final_loss = model.Loss(pairs, rng);
  EXPECT_LT(final_loss.value()[0], 0.7f);
}


// A decoder in eval mode over a random encoder memory whose second row
// ends in padding, and a random target prefix per row.
struct DecoderFixture {
  static constexpr int64_t kBatch = 3;
  static constexpr int64_t kSrcLen = 5;
  static constexpr int64_t kSteps = 8;

  explicit DecoderFixture(int64_t num_layers) {
    Rng rng(41);
    nn::TransformerConfig config;
    config.vocab_size = 23;
    config.dim = 16;
    config.num_heads = 2;
    config.num_layers = num_layers;
    config.ffn_dim = 32;
    config.max_seq_len = kSteps;
    config.dropout = 0.1f;
    decoder = std::make_unique<nn::TransformerDecoder>(config, rng);
    decoder->SetTraining(false);
    memory =
        Variable(Tensor::Randn({kBatch, kSrcLen, config.dim}, rng), false);
    memory_mask = Tensor::Ones({kBatch, kSrcLen});
    memory_mask.at({1, 3}) = 0.0f;
    memory_mask.at({1, 4}) = 0.0f;
    for (int64_t i = 0; i < kBatch * kSteps; ++i)
      tokens.push_back(rng.UniformInt(config.vocab_size));
  }

  // Logits of position t of every row from Forward over positions [0, t].
  std::vector<float> FullForwardRow(int64_t t) const {
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < kBatch; ++i)
      for (int64_t p = 0; p <= t; ++p) ids.push_back(tokens[i * kSteps + p]);
    Rng unused(0);
    const Tensor logits =
        decoder
            ->Forward(ids, kBatch, t + 1, Tensor::Ones({kBatch, t + 1}),
                      memory, memory_mask, unused)
            .value();
    const int64_t vocab = logits.size(2);
    std::vector<float> rows;
    for (int64_t i = 0; i < kBatch; ++i) {
      const float* row = logits.data() + (i * (t + 1) + t) * vocab;
      rows.insert(rows.end(), row, row + vocab);
    }
    return rows;
  }

  // Largest |step - full| over every step's logits; `bit_equal` tells
  // whether every logit matched bit for bit.
  float MaxStepDifference(bool* bit_equal) const {
    NoGradGuard no_grad;
    nn::DecoderCache cache = decoder->StartDecode(memory, memory_mask);
    float max_diff = 0.0f;
    *bit_equal = true;
    for (int64_t t = 0; t < kSteps; ++t) {
      std::vector<int64_t> ids;
      for (int64_t i = 0; i < kBatch; ++i)
        ids.push_back(tokens[i * kSteps + t]);
      const Tensor step = decoder->Step(ids, cache).value();
      const std::vector<float> full = FullForwardRow(t);
      EXPECT_EQ(step.size(), static_cast<int64_t>(full.size()));
      EXPECT_EQ(cache.length(), t + 1);
      *bit_equal = *bit_equal && std::memcmp(step.data(), full.data(),
                                             sizeof(float) * full.size()) == 0;
      for (size_t j = 0; j < full.size(); ++j)
        max_diff = std::max(max_diff, std::fabs(step.data()[j] - full[j]));
    }
    return max_diff;
  }

  std::unique_ptr<nn::TransformerDecoder> decoder;
  Variable memory;
  Tensor memory_mask;
  std::vector<int64_t> tokens;  // [kBatch, kSteps]
};

// With one layer, every key and value the step attends over comes from the
// embeddings, which do not depend on the prefix: the step's logits are the
// full forward's last row in every kernel flavor.
TEST(DecoderStepTest, OneLayerStepEqualsLastRowOfFullForward) {
  DecoderFixture fixture(/*num_layers=*/1);
  bool bit_equal = false;
  const float max_diff = fixture.MaxStepDifference(&bit_equal);
  EXPECT_TRUE(bit_equal) << "largest difference " << max_diff;
}

// From the second layer on, a cached position's keys and values were
// computed over its own prefix, the full forward's over the whole prefix
// with masked (exactly zero) weights. The scalar and NEON softmax sum
// sequentially, so the two agree bit for bit; the AVX2 softmax splits its
// sum by row length, so AVX2 logits may differ in the last bits: the
// largest difference on this fixture is 3.6e-7 on logits up to 3.2 in
// magnitude (1.5 ulp), well inside the 1e-5 bound.
TEST(DecoderStepTest, TwoLayerStepMatchesFullForward) {
  DecoderFixture fixture(/*num_layers=*/2);
  bool bit_equal = false;
  const float max_diff = fixture.MaxStepDifference(&bit_equal);
  if (std::string(kernels::SimdFlavorName()) != "avx2") {
    EXPECT_TRUE(bit_equal) << "largest difference " << max_diff;
  } else {
    EXPECT_LE(max_diff, 1e-5f);
  }
}

TEST(DecoderStepTest, SteppingPastCapacityAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DecoderFixture fixture(/*num_layers=*/1);
  NoGradGuard no_grad;
  nn::DecoderCache cache =
      fixture.decoder->StartDecode(fixture.memory, fixture.memory_mask);
  EXPECT_EQ(cache.capacity(), DecoderFixture::kSteps);
  const std::vector<int64_t> ids(DecoderFixture::kBatch, 4);
  for (int64_t t = 0; t < DecoderFixture::kSteps; ++t)
    fixture.decoder->Step(ids, cache);
  EXPECT_DEATH(fixture.decoder->Step(ids, cache), "decoder cache is full");
}

TEST(Seq2SeqTest, GenerateBatchIsThreadCountInvariant) {
  Rng rng(13);
  auto vocab = TinyVocab();
  Seq2SeqConfig config = TinySeq2SeqConfig();
  config.num_layers = 2;
  config.dim = 32;
  models::Seq2SeqModel model(config, vocab, rng);
  model.SetTraining(false);
  models::SamplingOptions sampling;
  sampling.max_len = 10;
  std::vector<std::string> sources;
  for (int i = 0; i < 16; ++i)
    sources.push_back(i % 2 ? "the quick brown fox" : "a lazy dog was great");
  auto generate = [&](int threads) {
    SetComputeThreads(threads);
    Rng gen_rng(7);
    return model.GenerateBatch(sources, sampling, gen_rng);
  };
  const std::vector<std::string> one = generate(1);
  const std::vector<std::string> four = generate(4);
  SetComputeThreads(0);
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace rotom
