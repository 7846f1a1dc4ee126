#include <atomic>
#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/filtering.h"
#include "core/finetune.h"
#include "core/rotom_trainer.h"
#include "core/ssl.h"
#include "core/weighting.h"
#include "nn/optim.h"

namespace rotom {
namespace {

using core::FilteringModel;
using core::WeightingModel;

std::shared_ptr<text::Vocabulary> TaskVocab() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w :
       {"the", "movie", "was", "great", "terrible", "really", "a", "not",
        "good", "bad", "boring", "fantastic", "product", "awful", "fine"})
    vocab->AddToken(w);
  return vocab;
}

models::ClassifierConfig TinyConfig() {
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 10;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  return config;
}

// A tiny sentiment task where class-indicative words are unambiguous.
data::TaskDataset TinyTask() {
  data::TaskDataset ds;
  ds.name = "tiny";
  ds.num_classes = 2;
  const char* pos[] = {"the movie was great", "really great movie",
                       "a fantastic movie",   "the product was good",
                       "good good movie",     "really fine product"};
  const char* neg[] = {"the movie was terrible", "really bad movie",
                       "a boring movie",         "the product was awful",
                       "bad bad movie",          "really awful product"};
  for (const char* t : pos) ds.train.push_back({t, 1});
  for (const char* t : neg) ds.train.push_back({t, 0});
  ds.valid = ds.train;
  ds.test = {{"the movie was fantastic", 1}, {"a terrible movie", 0},
             {"really good product", 1},     {"the product was boring", 0}};
  for (const auto& e : ds.train) ds.unlabeled.push_back(e.text);
  ds.unlabeled.push_back("really great product");
  ds.unlabeled.push_back("a bad boring movie");
  return ds;
}

// Simple augmenter: duplicates a token (label-preserving-ish).
std::vector<std::string> DuplicateAugmenter(const std::string& input,
                                            Rng& rng) {
  auto tokens = text::Tokenize(input);
  if (tokens.empty()) return {input};
  const size_t i = rng.UniformInt(static_cast<int64_t>(tokens.size()));
  tokens.insert(tokens.begin() + i, tokens[i]);
  return {text::Detokenize(tokens)};
}

TEST(FilteringModelTest, FeatureLayout) {
  Tensor probs_orig = Tensor::FromVector({2, 2}, {0.9f, 0.1f, 0.2f, 0.8f});
  Tensor probs_aug = Tensor::FromVector({2, 2}, {0.9f, 0.1f, 0.8f, 0.2f});
  const Tensor features =
      FilteringModel::ComputeFeatures(probs_orig, probs_aug, {1, 0});
  EXPECT_EQ(features.shape(), (std::vector<int64_t>{2, 4}));
  // One-hot part.
  EXPECT_EQ(features.at({0, 0}), 0.0f);
  EXPECT_EQ(features.at({0, 1}), 1.0f);
  EXPECT_EQ(features.at({1, 0}), 1.0f);
  // KL part: identical distributions give ~0.
  EXPECT_NEAR(features.at({0, 2}), 0.0f, 1e-5f);
  EXPECT_NEAR(features.at({0, 3}), 0.0f, 1e-5f);
  // Row 1: distributions flipped -> positive KL sum.
  EXPECT_GT(features.at({1, 2}) + features.at({1, 3}), 0.1f);
}

TEST(FilteringModelTest, ForwardIsDistribution) {
  Rng rng(1);
  FilteringModel filter(2, rng);
  Tensor features({3, 4});
  Tensor probs = filter.Forward(features).value();
  for (int64_t i = 0; i < 3; ++i)
    EXPECT_NEAR(probs.at({i, 0}) + probs.at({i, 1}), 1.0f, 1e-5f);
}

TEST(FilteringModelTest, SampleDecisionsFollowProbs) {
  Rng rng(2);
  Tensor probs = Tensor::FromVector({2, 2}, {0.0f, 1.0f, 1.0f, 0.0f});
  auto decisions = FilteringModel::SampleDecisions(probs, rng);
  EXPECT_TRUE(decisions[0]);
  EXPECT_FALSE(decisions[1]);
}

TEST(FilteringModelTest, ReinforceMovesKeepProbability) {
  // With positive validation loss, kept examples' keep-probability should
  // DECREASE after a surrogate gradient step (the estimator pushes down
  // log-probs scaled by the loss). With enough steps the filter learns to
  // drop everything, demonstrating the gradient flows.
  Rng rng(3);
  FilteringModel filter(2, rng);
  nn::Adam opt(filter.Parameters(), 0.1f);
  Tensor features = Tensor::FromVector({2, 4}, {1, 0, 0.3f, 0.2f,
                                                0, 1, 0.0f, 0.1f});
  std::vector<bool> decisions = {true, true};
  const float before = filter.Forward(features).value().at({0, 1});
  for (int step = 0; step < 20; ++step) {
    opt.ZeroGrad();
    filter.ReinforceSurrogate(features, decisions, 2.0f).Backward();
    opt.Step();
  }
  const float after = filter.Forward(features).value().at({0, 1});
  EXPECT_LT(after, before);
}

TEST(FilteringModelTest, ReinforceIgnoresDroppedExamples) {
  Rng rng(4);
  FilteringModel filter(2, rng);
  Tensor features({2, 4});
  // Nothing kept -> surrogate is 0 and no gradient flows.
  filter.ZeroGrad();
  Variable surrogate =
      filter.ReinforceSurrogate(features, {false, false}, 1.0f);
  EXPECT_NEAR(surrogate.value()[0], 0.0f, 1e-6f);
}

TEST(WeightingModelTest, WeightsInExpectedRange) {
  Rng rng(5);
  auto vocab = TaskVocab();
  WeightingModel weighting(TinyConfig(), vocab, rng);
  weighting.SetTraining(false);
  Tensor l2 = Tensor::FromVector({2}, {0.5f, 0.0f});
  Rng fwd(1);
  Tensor w =
      weighting.Weights({"the movie was great", "a boring movie"}, l2, fwd)
          .value();
  // sigmoid output in (0,1) plus the L2 term.
  EXPECT_GT(w[0], 0.5f);
  EXPECT_LT(w[0], 1.5f);
  EXPECT_GT(w[1], 0.0f);
  EXPECT_LT(w[1], 1.0f);
}

TEST(WeightingModelTest, L2TermMatchesDefinition) {
  Tensor probs = Tensor::FromVector({2, 2}, {1.0f, 0.0f, 0.5f, 0.5f});
  Tensor l2 = WeightingModel::L2Term(probs, {0, 1});
  EXPECT_NEAR(l2[0], 0.0f, 1e-5f);
  EXPECT_NEAR(l2[1], std::sqrt(0.5f), 1e-5f);
}

TEST(WeightingModelTest, L2TermSoft) {
  Tensor probs = Tensor::FromVector({1, 2}, {0.7f, 0.3f});
  Tensor soft = Tensor::FromVector({1, 2}, {0.7f, 0.3f});
  EXPECT_NEAR(WeightingModel::L2TermSoft(probs, soft)[0], 0.0f, 1e-5f);
}

TEST(WeightingModelTest, GradientsFlowToLm) {
  Rng rng(6);
  auto vocab = TaskVocab();
  WeightingModel weighting(TinyConfig(), vocab, rng);
  weighting.SetTraining(false);
  Tensor l2({1});
  Rng fwd(1);
  Variable w = weighting.Weights({"the movie was great"}, l2, fwd);
  ops::Sum(w).Backward();
  int with_grad = 0;
  for (const auto& p : weighting.Parameters()) with_grad += p.has_grad();
  EXPECT_GT(with_grad, 0);
}

TEST(SharpenTest, V1SharpensTowardArgmax) {
  Tensor probs = Tensor::FromVector({1, 3}, {0.5f, 0.3f, 0.2f});
  Tensor sharp = core::SharpenV1(probs, 0.5);
  EXPECT_GT(sharp.at({0, 0}), 0.5f);
  float sum = 0.0f;
  for (int64_t j = 0; j < 3; ++j) sum += sharp.at({0, j});
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(SharpenTest, V1TemperatureOneIsIdentity) {
  Tensor probs = Tensor::FromVector({1, 2}, {0.6f, 0.4f});
  Tensor sharp = core::SharpenV1(probs, 1.0);
  EXPECT_NEAR(sharp.at({0, 0}), 0.6f, 1e-5f);
}

TEST(SharpenTest, V2ThresholdGating) {
  Tensor probs = Tensor::FromVector({2, 2}, {0.95f, 0.05f, 0.6f, 0.4f});
  auto out = core::SharpenV2(probs, 0.8);
  EXPECT_TRUE(out.confident[0]);
  EXPECT_FALSE(out.confident[1]);
  EXPECT_EQ(out.targets.at({0, 0}), 1.0f);
  EXPECT_EQ(out.targets.at({1, 0}), 0.0f);
}

TEST(FinetuneTrainerTest, BaselineLearnsTinyTask) {
  Rng rng(7);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.epochs = 20;
  options.batch_size = 4;
  options.lr = 2e-3f;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  auto result = trainer.Train(ds);
  EXPECT_EQ(result.epochs_run, 20);
  EXPECT_GE(result.best_valid_metric, 90.0);
  // The model must at least fit its 12 training sentences; the 4-example
  // test set is too small for a stable generalization assertion.
  EXPECT_GE(eval::EvaluateModel(model, ds.train, eval::MetricKind::kAccuracy),
            90.0);
}

TEST(FinetuneTrainerTest, ReplaceModeUsesAugmenter) {
  Rng rng(8);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.epochs = 8;
  options.batch_size = 4;
  options.aug_mode = core::AugMode::kReplace;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  // Augmenters run on compute-pool workers (finetune.h), so the counter
  // must be atomic.
  std::atomic<int> augmenter_calls{0};
  auto result = trainer.Train(ds, [&](const std::string& s, Rng& r) {
    ++augmenter_calls;
    return DuplicateAugmenter(s, r)[0];
  });
  EXPECT_GT(augmenter_calls.load(), 0);
  EXPECT_GT(result.best_valid_metric, 50.0);
}

TEST(FinetuneTrainerTest, MixDaModeRuns) {
  Rng rng(9);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.epochs = 6;
  options.batch_size = 4;
  options.aug_mode = core::AugMode::kMixDa;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  auto result = trainer.Train(ds, [&](const std::string& s, Rng& r) {
    return DuplicateAugmenter(s, r)[0];
  });
  EXPECT_GT(result.best_valid_metric, 50.0);
}

TEST(FinetuneTrainerTest, AugModesRequireAugmenter) {
  Rng rng(10);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.aug_mode = core::AugMode::kReplace;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  EXPECT_DEATH(trainer.Train(ds), "TextAugmenter");
}

core::RotomOptions SmallRotomOptions() {
  core::RotomOptions options;
  options.epochs = 4;
  options.batch_size = 6;
  options.lr = 2e-3f;
  options.meta_lr = 2e-3f;
  options.augments_per_example = 1;
  options.seed = 11;
  return options;
}

TEST(RotomTrainerTest, LearnsTinyTask) {
  Rng rng(11);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy,
                             SmallRotomOptions());
  auto ds = TinyTask();
  auto result = trainer.Train(ds, DuplicateAugmenter);
  EXPECT_EQ(result.epochs_run, 4);
  EXPECT_GT(result.best_valid_metric, 60.0);
  EXPECT_GT(trainer.last_keep_fraction(), 0.0);
  EXPECT_LE(trainer.last_keep_fraction(), 1.0);
}

TEST(RotomTrainerTest, SslVariantRuns) {
  Rng rng(12);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  auto options = SmallRotomOptions();
  options.use_ssl = true;
  options.epochs = 3;
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  auto result = trainer.Train(ds, DuplicateAugmenter);
  EXPECT_EQ(result.epochs_run, 3);
  EXPECT_GE(result.best_valid_metric, 50.0);
}

TEST(RotomTrainerTest, AblationFlagsRun) {
  auto ds = TinyTask();
  for (int variant = 0; variant < 3; ++variant) {
    Rng rng(13 + variant);
    auto vocab = TaskVocab();
    models::TransformerClassifier model(TinyConfig(), vocab, rng);
    auto options = SmallRotomOptions();
    options.epochs = 2;
    if (variant == 0) options.use_filtering = false;
    if (variant == 1) options.use_weighting = false;
    if (variant == 2) options.use_l2_term = false;
    core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
    auto result = trainer.Train(ds, DuplicateAugmenter);
    EXPECT_EQ(result.epochs_run, 2) << "variant " << variant;
  }
}

TEST(RotomTrainerTest, FilterKeepsFractionBelowOneWhenAugsAreCorrupt) {
  // Augmenter that flips sentiment words: clearly label-corrupting. The
  // filter should learn to drop a noticeable share of augmentations.
  Rng rng(16);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  auto options = SmallRotomOptions();
  options.epochs = 5;
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto ds = TinyTask();
  auto corrupting = [](const std::string& input, Rng&) {
    std::string out = input;
    auto flip = [&](const std::string& from, const std::string& to) {
      const size_t pos = out.find(from);
      if (pos != std::string::npos) out.replace(pos, from.size(), to);
    };
    flip("great", "terrible");
    flip("good", "bad");
    flip("fantastic", "awful");
    return std::vector<std::string>{out};
  };
  trainer.Train(ds, corrupting);
  EXPECT_LT(trainer.last_keep_fraction(), 1.0);
}

// ---- The M_W meta-gradient against a frozen copy of the legacy estimator.
// The legacy estimator back-propagated the full weighted training loss
// through the classifier AND M_W at w_pre +/- eps * v, cloned M_W's
// gradients after each pass, and deposited -lr * (g+ - g-) / (2 eps) into
// the parameters with a Sum(Mul(p, diff)) backward. The trainer now treats
// M_W as a constant in phase 1 and back-propagates once through M_W with
// the per-example loss difference (core::BackpropWeightingMetaGradient).

constexpr float kMetaLr = 2e-3f;

const std::vector<std::string>& MetaTexts() {
  static const std::vector<std::string> texts = {
      "the movie was great", "really bad movie",      "a fantastic movie",
      "the product was awful", "good good movie",     "a boring movie"};
  return texts;
}

models::ClassifierConfig DropoutConfig() {
  models::ClassifierConfig config = TinyConfig();
  config.dropout = 0.1f;
  return config;
}

std::vector<Tensor> CopyValues(const std::vector<Variable>& params) {
  std::vector<Tensor> out;
  for (const auto& p : params) out.push_back(p.value().Clone());
  return out;
}

std::vector<Tensor> CopyGrads(const std::vector<Variable>& params) {
  std::vector<Tensor> out;
  for (const auto& p : params) {
    out.push_back(p.has_grad() ? p.grad().Clone()
                               : Tensor(p.value().shape()));
  }
  return out;
}

// One meta batch: a classifier and an M_W (dropout configured on both), the
// encoded texts, a constant L2 term and, for the SSL case, soft targets.
struct MetaFixture {
  MetaFixture(uint64_t seed, bool soft)
      : vocab(TaskVocab()),
        model_rng(seed),
        model(DropoutConfig(), vocab, model_rng),
        weighting_rng(seed + 100),
        weighting(DropoutConfig(), vocab, weighting_rng),
        batch(text::EncodeBatchForClassifier(*vocab, MetaTexts(),
                                             DropoutConfig().max_len)) {
    weighting.SetTraining(false);  // as in the trainer
    Rng data_rng(seed + 200);
    const int64_t n = batch.batch;
    l2 = Tensor::RandUniform({n}, data_rng, 0.0f, 1.4f);
    if (soft) {
      soft_targets = Tensor::RandUniform({n, 2}, data_rng, 0.05f, 1.0f);
      for (int64_t i = 0; i < n; ++i) {
        const float sum = soft_targets.at({i, 0}) + soft_targets.at({i, 1});
        for (int64_t j = 0; j < 2; ++j) soft_targets.at({i, j}) /= sum;
      }
    }
  }

  Variable Ce(Rng& rng) const {
    Variable logits = model.ForwardLogitsEncoded(batch, rng);
    return soft_targets.defined()
               ? ops::SoftCrossEntropyPerExample(logits, soft_targets)
               : ops::CrossEntropyPerExample(logits, labels);
  }
  Variable Weights(const WeightingModel& w, Rng& rng) const {
    return ops::NormalizeMeanOne(w.WeightsEncoded(batch, l2, rng));
  }
  Variable Loss(const Variable& ce, const Variable& weights) const {
    return ops::Scale(ops::Dot(ce, weights),
                      1.0f / static_cast<float>(batch.batch));
  }
  // params := w_pre + alpha * v.
  void Offset(const std::vector<Tensor>& w_pre, const std::vector<Tensor>& v,
              float alpha) {
    const auto params = model.Parameters();
    for (size_t i = 0; i < params.size(); ++i) {
      Tensor& value = const_cast<Variable&>(params[i]).value();
      value.CopyFrom(w_pre[i]);
      value.AddScaled(v[i], alpha);
    }
  }

  std::shared_ptr<text::Vocabulary> vocab;
  Rng model_rng;
  models::TransformerClassifier model;
  Rng weighting_rng;
  WeightingModel weighting;
  text::EncodedBatch batch;
  std::vector<int64_t> labels = {1, 0, 1, 0, 1, 0};
  Tensor l2;
  Tensor soft_targets;  // undefined = hard labels
};

TEST(MetaGradientTest, Phase1ClassifierGradientsMatchLegacyBitForBit) {
  for (bool soft : {false, true}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      MetaFixture f(seed, soft);
      f.model.SetTraining(true);  // dropout draws from the step Rng
      const auto params = f.model.Parameters();

      // Legacy: the loss carries M_W's graph.
      f.model.ZeroGrad();
      Rng legacy_rng(seed);
      Variable legacy_ce = f.Ce(legacy_rng);
      Variable legacy = f.Loss(legacy_ce, f.Weights(f.weighting, legacy_rng));
      legacy.Backward();
      const auto legacy_grads = CopyGrads(params);

      // Current: M_W runs without a graph and enters detached.
      f.model.ZeroGrad();
      Rng rng(seed);
      Variable ce = f.Ce(rng);
      Variable weights;
      {
        NoGradGuard guard;
        weights = f.Weights(f.weighting, rng);
      }
      Variable loss = f.Loss(ce, weights.Detach());
      loss.Backward();
      EXPECT_EQ(legacy.value()[0], loss.value()[0]);
      EXPECT_EQ(legacy_rng.Next64(), rng.Next64()) << "Rng streams diverged";
      for (size_t i = 0; i < params.size(); ++i) {
        const Tensor& g = params[i].grad();
        ASSERT_EQ(g.size(), legacy_grads[i].size());
        for (int64_t j = 0; j < g.size(); ++j) {
          ASSERT_EQ(g[j], legacy_grads[i][j])
              << "soft=" << soft << " seed=" << seed << " param " << i;
        }
      }
    }
  }
}

TEST(MetaGradientTest, WeightingGradientMatchesLegacyEstimator) {
  const std::vector<std::string> val_texts = {"the product was good",
                                              "really awful product"};
  for (bool soft : {false, true}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      MetaFixture f(seed, soft);
      // A second M_W with identical initial weights for the current path.
      Rng fresh_rng(seed + 100);
      WeightingModel fresh(DropoutConfig(), f.vocab, fresh_rng);
      fresh.SetTraining(false);
      f.model.SetTraining(false);  // the +/- passes run in eval mode
      const auto params = f.model.Parameters();

      // v = the validation gradient; eps normalized by its norm (DARTS).
      Rng rng(seed);
      f.model.ZeroGrad();
      ops::CrossEntropyMean(
          f.model.ForwardLogitsEncoded(
              text::EncodeBatchForClassifier(*f.vocab, val_texts,
                                             DropoutConfig().max_len),
              rng),
          {1, 0})
          .Backward();
      const auto v = CopyGrads(params);
      double v_sq = 0.0;
      for (const auto& t : v) v_sq += static_cast<double>(t.Norm()) * t.Norm();
      const float eps = 0.01f / (static_cast<float>(std::sqrt(v_sq)) + 1e-8f);
      const auto w_pre = CopyValues(params);

      // Legacy estimator, frozen.
      const auto legacy_params = f.weighting.Parameters();
      std::vector<std::vector<Tensor>> g_pm;
      for (float sign : {1.0f, -1.0f}) {
        f.Offset(w_pre, v, sign * eps);
        f.model.ZeroGrad();
        f.weighting.ZeroGrad();
        f.Loss(f.Ce(rng), f.Weights(f.weighting, rng)).Backward();
        g_pm.push_back(CopyGrads(legacy_params));
      }
      f.weighting.ZeroGrad();
      for (size_t i = 0; i < legacy_params.size(); ++i) {
        Tensor diff = g_pm[0][i].Clone();
        diff.AddScaled(g_pm[1][i], -1.0f);
        diff.Scale(-kMetaLr / (2.0f * eps));
        Variable p = legacy_params[i];
        ops::Sum(ops::Mul(p, Variable(diff, false))).Backward();
      }
      const auto legacy = CopyGrads(legacy_params);

      // Current estimator: M_W graph built once, classifier forwards only.
      Variable weights = f.Weights(fresh, rng);
      Tensor ce_plus, ce_minus;
      {
        NoGradGuard guard;
        f.Offset(w_pre, v, eps);
        ce_plus = f.Ce(rng).value();
        f.Offset(w_pre, v, -eps);
        ce_minus = f.Ce(rng).value();
      }
      core::BackpropWeightingMetaGradient(weights, ce_plus, ce_minus,
                                          kMetaLr, eps);

      const auto fresh_params = fresh.Parameters();
      ASSERT_EQ(fresh_params.size(), legacy.size());
      double diff_sq = 0.0, ref_sq = 0.0;
      for (size_t i = 0; i < fresh_params.size(); ++i) {
        // Every M_W parameter is reached, so Adam updates the same set.
        ASSERT_TRUE(fresh_params[i].has_grad())
            << "soft=" << soft << " seed=" << seed << " param " << i;
        const Tensor& g = fresh_params[i].grad();
        for (int64_t j = 0; j < g.size(); ++j) {
          const double d = static_cast<double>(g[j]) - legacy[i][j];
          diff_sq += d * d;
          ref_sq += static_cast<double>(legacy[i][j]) * legacy[i][j];
        }
      }
      ASSERT_GT(ref_sq, 0.0);
      EXPECT_LE(std::sqrt(diff_sq / ref_sq), 1e-4)
          << "soft=" << soft << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace rotom
