// Cross-module integration tests: checkpointing through disk, the pair-aware
// InvDA path in TaskContext, budget-restricted runs, and a miniature
// end-to-end Rotom pipeline built from the public API only.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/train_checkpoint.h"
#include "rotom.h"

namespace rotom {
namespace {

eval::ExperimentOptions TinyOptions(int64_t max_len) {
  eval::ExperimentOptions options;
  options.classifier.max_len = max_len;
  options.classifier.dim = 16;
  options.classifier.num_heads = 2;
  options.classifier.num_layers = 1;
  options.classifier.ffn_dim = 32;
  options.seq2seq.max_src_len = max_len;
  options.seq2seq.max_tgt_len = max_len;
  options.seq2seq.dim = 16;
  options.seq2seq.num_heads = 2;
  options.seq2seq.num_layers = 1;
  options.seq2seq.ffn_dim = 32;
  options.pretrain.epochs = 1;
  options.pretrain.max_corpus = 32;
  options.same_origin.steps = 10;
  options.invda.epochs = 1;
  options.invda.max_corpus = 24;
  options.invda.augments_per_example = 2;
  options.invda.sampling.max_len = max_len - 2;
  options.epochs = 2;
  options.batch_size = 8;
  return options;
}

TEST(CheckpointIntegrationTest, ClassifierSurvivesDiskRoundTrip) {
  Rng rng(1);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w : {"alpha", "beta", "gamma"}) vocab->AddToken(w);
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 8;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  models::TransformerClassifier original(config, vocab, rng);
  original.SetTraining(false);

  const std::string path = ::testing::TempDir() + "/classifier_ckpt.rtck";
  core::TrainCheckpoint ckpt;
  ckpt.tensors() = original.StateDict();
  ASSERT_TRUE(ckpt.Save(path).ok());

  models::TransformerClassifier restored(config, vocab, rng);
  auto loaded = core::TrainCheckpoint::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  restored.LoadStateDict(loaded.value().tensors());
  restored.SetTraining(false);

  Rng r1(0), r2(0);
  Tensor a = original.PredictProbs({"alpha beta gamma"}, r1);
  Tensor b = restored.PredictProbs({"alpha beta gamma"}, r2);
  EXPECT_TRUE(a.AllClose(b));
}

TEST(TaskContextIntegrationTest, PairInvDaKeepsLeftRecordIntact) {
  data::EmOptions ds_options;
  ds_options.budget = 24;
  ds_options.test_size = 16;
  ds_options.unlabeled_size = 40;
  ds_options.seed = 2;
  auto ds = data::MakeEmDataset("dblp_acm", ds_options);
  eval::TaskContext context(ds, TinyOptions(40));
  context.EnsureInvDa();

  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    const std::string& pair = ds.train[i].text;
    const std::string augmented = context.InvDaSample(pair, rng);
    const std::string left = pair.substr(0, pair.find(" [SEP] "));
    EXPECT_EQ(augmented.substr(0, left.size()), left) << pair;
    EXPECT_NE(augmented.find(" [SEP] "), std::string::npos);
  }
}

TEST(TaskContextIntegrationTest, RunWithBudgetUsesPrefix) {
  data::TextClsOptions ds_options;
  ds_options.train_size = 40;
  ds_options.test_size = 30;
  ds_options.unlabeled_size = 40;
  ds_options.seed = 4;
  auto ds = data::MakeTextClsDataset("sst2", ds_options);
  eval::TaskContext context(ds, TinyOptions(16));
  // Budget larger than the sample falls back to the full run.
  auto full = context.RunWithBudget(eval::Method::kBaseline, 1, 1000);
  auto same = context.Run(eval::Method::kBaseline, 1);
  EXPECT_DOUBLE_EQ(full.test_metric, same.test_metric);
  // A smaller budget still produces a valid run.
  auto small = context.RunWithBudget(eval::Method::kBaseline, 1, 10);
  EXPECT_GE(small.test_metric, 0.0);
  EXPECT_LE(small.test_metric, 100.0);
}

TEST(TaskContextIntegrationTest, MetricSelectionByTaskShape) {
  data::TextClsOptions t;
  t.train_size = 8;
  t.test_size = 8;
  t.unlabeled_size = 8;
  EXPECT_EQ(eval::TaskContext(data::MakeTextClsDataset("sst2", t),
                              TinyOptions(12))
                .metric(),
            eval::MetricKind::kAccuracy);
  data::EdtOptions e;
  e.budget = 16;
  e.table_rows = 60;
  EXPECT_EQ(
      eval::TaskContext(data::MakeEdtDataset("beers", e), TinyOptions(12))
          .metric(),
      eval::MetricKind::kF1);
  data::EmOptions m;
  m.budget = 16;
  m.test_size = 8;
  m.unlabeled_size = 16;
  EXPECT_EQ(
      eval::TaskContext(data::MakeEmDataset("abt_buy", m), TinyOptions(40))
          .metric(),
      eval::MetricKind::kF1);
}

TEST(EndToEndTest, PublicApiPipelineOnTinySentiment) {
  // The README's 20-line pipeline, end to end, with assertions.
  data::TaskDataset ds;
  ds.name = "tiny-e2e";
  ds.num_classes = 2;
  const char* pos[] = {"great fantastic movie", "really great movie",
                       "wonderful fantastic product", "great great product"};
  const char* neg[] = {"terrible boring movie", "really awful movie",
                       "awful boring product", "terrible awful product"};
  for (int rep = 0; rep < 3; ++rep) {
    for (const char* t : pos) ds.train.push_back({t, 1});
    for (const char* t : neg) ds.train.push_back({t, 0});
  }
  ds.valid = ds.train;
  // In-distribution held-out combinations of training vocabulary.
  ds.test = {{"really fantastic movie", 1},
             {"really boring movie", 0},
             {"great wonderful product", 1},
             {"awful terrible product", 0},
             {"fantastic great movie", 1},
             {"boring awful movie", 0},
             {"really great product", 1},
             {"really terrible product", 0}};
  for (const auto& e : ds.train) ds.unlabeled.push_back(e.text);

  auto vocab = eval::BuildTaskVocabulary(ds);
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 8;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  Rng rng(5);
  models::TransformerClassifier model(config, vocab, rng);

  core::RotomOptions options;
  options.epochs = 8;
  options.batch_size = 8;
  options.seed = 6;
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  auto result =
      trainer.Train(ds, [](const std::string& text, Rng& r) {
        return std::vector<std::string>{augment::AugmentText(
            text, augment::OperatorRegistry::Global().Require("token_del"), {},
            r)};
      });
  EXPECT_GE(result.best_valid_metric, 90.0);
  EXPECT_GE(eval::EvaluateModel(model, ds.test, eval::MetricKind::kAccuracy),
            75.0);
}

}  // namespace
}  // namespace rotom
