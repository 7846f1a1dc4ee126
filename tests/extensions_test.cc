// Tests for the extension features beyond the paper's core pipeline:
// CSV dataset loaders, beam-search decoding, the Section 8 noisy-label
// training direction, and context-dependent EDT serialization.

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/label_cleaning.h"
#include "data/edt_gen.h"
#include "data/loader.h"
#include "models/seq2seq.h"
#include "nn/optim.h"

namespace rotom {
namespace {

std::string WriteTempFile(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << body;
  return path;
}

TEST(LoaderTest, TextClsCsv) {
  const std::string path = WriteTempFile(
      "textcls.csv",
      "text,label\n"
      "the movie was great,pos\n"
      "a boring movie,neg\n"
      "\"quoted, text\",pos\n");
  std::vector<std::string> label_names;
  auto examples = data::LoadTextClsCsv(path, "text", "label", &label_names);
  ASSERT_TRUE(examples.ok()) << examples.status().message();
  ASSERT_EQ(examples.value().size(), 3u);
  EXPECT_EQ(label_names, (std::vector<std::string>{"pos", "neg"}));
  EXPECT_EQ(examples.value()[0].label, 0);
  EXPECT_EQ(examples.value()[1].label, 1);
  EXPECT_EQ(examples.value()[2].text, "quoted, text");
}

TEST(LoaderTest, TextClsCsvMissingColumn) {
  const std::string path = WriteTempFile("bad.csv", "a,b\n1,2\n");
  auto examples = data::LoadTextClsCsv(path, "text", "label", nullptr);
  EXPECT_FALSE(examples.ok());
}

TEST(LoaderTest, EmPairsCsv) {
  data::EmCsvSpec spec;
  spec.left_table_path = WriteTempFile(
      "left.csv", "id,name,price\nl1,google llc,10\nl2,apple inc,20\n");
  spec.right_table_path = WriteTempFile(
      "right.csv", "id,name,price\nr1,alphabet inc,11\nr2,apple,21\n");
  spec.pairs_path = WriteTempFile(
      "pairs.csv",
      "ltable_id,rtable_id,label\nl1,r1,1\nl2,r2,1\nl1,r2,0\n");
  auto examples = data::LoadEmPairsCsv(spec);
  ASSERT_TRUE(examples.ok()) << examples.status().message();
  ASSERT_EQ(examples.value().size(), 3u);
  EXPECT_EQ(examples.value()[0].label, 1);
  EXPECT_EQ(examples.value()[2].label, 0);
  EXPECT_EQ(examples.value()[0].text,
            "[COL] name [VAL] google llc [COL] price [VAL] 10 [SEP] "
            "[COL] name [VAL] alphabet inc [COL] price [VAL] 11");
}

TEST(LoaderTest, EmPairsCsvUnknownIdFails) {
  data::EmCsvSpec spec;
  spec.left_table_path = WriteTempFile("l2.csv", "id,n\nl1,x\n");
  spec.right_table_path = WriteTempFile("r2.csv", "id,n\nr1,y\n");
  spec.pairs_path =
      WriteTempFile("p2.csv", "ltable_id,rtable_id,label\nl1,zzz,0\n");
  EXPECT_FALSE(data::LoadEmPairsCsv(spec).ok());
}

TEST(LoaderTest, EmPairsCsvBadLabelFails) {
  data::EmCsvSpec spec;
  spec.left_table_path = WriteTempFile("l3.csv", "id,n\nl1,x\n");
  spec.right_table_path = WriteTempFile("r3.csv", "id,n\nr1,y\n");
  spec.pairs_path =
      WriteTempFile("p3.csv", "ltable_id,rtable_id,label\nl1,r1,maybe\n");
  EXPECT_FALSE(data::LoadEmPairsCsv(spec).ok());
}

TEST(LoaderTest, EdtTableCsvWithGroundTruth) {
  const std::string dirty = WriteTempFile(
      "dirty.csv", "name,zip\nspringfield,12345\nsprxngfield,99\n");
  const std::string clean = WriteTempFile(
      "clean.csv", "name,zip\nspringfield,12345\nspringfield,12345\n");
  auto examples = data::LoadEdtTableCsv(dirty, clean);
  ASSERT_TRUE(examples.ok()) << examples.status().message();
  ASSERT_EQ(examples.value().size(), 4u);
  EXPECT_EQ(examples.value()[0].label, 0);
  EXPECT_EQ(examples.value()[2].label, 1);  // sprxngfield
  EXPECT_EQ(examples.value()[3].label, 1);  // 99
  EXPECT_EQ(examples.value()[0].text, "[COL] name [VAL] springfield");
}

TEST(LoaderTest, EdtTableCsvContextDependent) {
  const std::string dirty =
      WriteTempFile("dirty2.csv", "name,zip\nspringfield,12345\n");
  auto examples = data::LoadEdtTableCsv(dirty, "", /*context_dependent=*/true);
  ASSERT_TRUE(examples.ok());
  EXPECT_NE(examples.value()[1].text.find("[SEP] [COL] zip [VAL] 12345"),
            std::string::npos);
}

TEST(LoaderTest, EdtTableCsvShapeMismatchFails) {
  const std::string dirty = WriteTempFile("d3.csv", "a\n1\n2\n");
  const std::string clean = WriteTempFile("c3.csv", "a\n1\n");
  EXPECT_FALSE(data::LoadEdtTableCsv(dirty, clean).ok());
}

TEST(LoaderTest, MakeTaskDatasetSplits) {
  std::vector<data::Example> examples;
  for (int i = 0; i < 100; ++i)
    examples.push_back({"text " + std::to_string(i), i % 2});
  auto ds = data::MakeTaskDataset(examples, /*train=*/30, /*test=*/20, 2,
                                  false, false, /*seed=*/1, "custom");
  EXPECT_EQ(ds.train.size(), 30u);
  EXPECT_EQ(ds.test.size(), 20u);
  EXPECT_EQ(ds.unlabeled.size(), 50u);
  EXPECT_EQ(ds.valid.size(), ds.train.size());
  EXPECT_EQ(ds.name, "custom");
}

TEST(BeamSearchTest, ProducesVocabTokensDeterministically) {
  Rng rng(1);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w : {"a", "b", "c", "d", "e"}) vocab->AddToken(w);
  models::Seq2SeqConfig config;
  config.max_src_len = 10;
  config.max_tgt_len = 10;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  models::Seq2SeqModel model(config, vocab, rng);
  model.SetTraining(false);
  const std::string out1 = model.GenerateBeam("a b c", 3, 6);
  const std::string out2 = model.GenerateBeam("a b c", 3, 6);
  EXPECT_EQ(out1, out2);  // beam search is deterministic
  for (const auto& token : text::Tokenize(out1))
    EXPECT_TRUE(vocab->Contains(token)) << token;
}

TEST(BeamSearchTest, TrainedCopyModelReconstructsInput) {
  Rng rng(2);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w : {"red", "green", "blue", "cat", "dog"})
    vocab->AddToken(w);
  models::Seq2SeqConfig config;
  config.max_src_len = 8;
  config.max_tgt_len = 8;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  models::Seq2SeqModel model(config, vocab, rng);
  nn::Adam optimizer(model.Parameters(), 3e-3f);
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"red cat", "red cat"}, {"green dog", "green dog"},
      {"blue cat", "blue cat"}, {"red dog", "red dog"}};
  model.SetTraining(true);
  for (int step = 0; step < 150; ++step) {
    optimizer.ZeroGrad();
    model.Loss(pairs, rng).Backward();
    optimizer.Step();
  }
  model.SetTraining(false);
  EXPECT_EQ(model.GenerateBeam("green dog", 3, 6), "green dog");
}

// Beam search continues each beam from its parent's cached prefix: after
// DecoderCache::SelectRows, a step equals the full forward over the
// selected rows' prefixes (one layer: bit for bit in every flavor).
TEST(BeamSearchTest, CacheRowSelectionContinuesParentPrefixes) {
  Rng rng(3);
  nn::TransformerConfig config;
  config.vocab_size = 11;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.max_seq_len = 6;
  nn::TransformerDecoder decoder(config, rng);
  decoder.SetTraining(false);
  const Variable memory(Tensor::Randn({2, 4, config.dim}, rng), false);
  Tensor memory_mask = Tensor::Ones({2, 4});
  memory_mask.at({0, 3}) = 0.0f;
  NoGradGuard no_grad;
  nn::DecoderCache cache = decoder.StartDecode(memory, memory_mask);
  const std::vector<std::vector<int64_t>> prefixes = {{2, 5, 7}, {2, 9, 4}};
  for (int64_t t = 0; t < 3; ++t)
    decoder.Step({prefixes[0][t], prefixes[1][t]}, cache);
  const std::vector<int64_t> parents = {1, 0, 1};
  cache.SelectRows(parents);
  ASSERT_EQ(cache.batch(), 3);
  const std::vector<int64_t> next = {6, 8, 10};
  const Tensor step = decoder.Step(next, cache).value();

  std::vector<int64_t> ids;
  Tensor memory_rows({3, 4, config.dim});
  Tensor mask_rows({3, 4});
  const int64_t mem_row = 4 * config.dim;
  for (int64_t i = 0; i < 3; ++i) {
    const auto& prefix = prefixes[parents[i]];
    ids.insert(ids.end(), prefix.begin(), prefix.end());
    ids.push_back(next[i]);
    std::memcpy(memory_rows.data() + i * mem_row,
                memory.value().data() + parents[i] * mem_row,
                sizeof(float) * mem_row);
    std::memcpy(mask_rows.data() + i * 4, memory_mask.data() + parents[i] * 4,
                sizeof(float) * 4);
  }
  Rng unused(0);
  const Tensor full =
      decoder
          .Forward(ids, 3, 4, Tensor::Ones({3, 4}),
                   Variable(memory_rows, false), mask_rows, unused)
          .value();
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::memcmp(step.data() + i * config.vocab_size,
                          full.data() + (i * 4 + 3) * config.vocab_size,
                          sizeof(float) * config.vocab_size),
              0)
        << "row " << i;
  }
}

TEST(LabelCleaningTest, RunsAndFitsCleanValidation) {
  // 30% of training labels flipped; validation labels clean. The weighted
  // meta-training should still reach a reasonable accuracy on the clean
  // test set.
  Rng rng(3);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w : {"the", "movie", "was", "great", "terrible", "really"})
    vocab->AddToken(w);
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 10;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  models::TransformerClassifier model(config, vocab, rng);

  data::TaskDataset ds;
  ds.name = "noisy";
  ds.num_classes = 2;
  Rng gen(4);
  for (int i = 0; i < 40; ++i) {
    const bool positive = i % 2 == 0;
    const std::string text = positive ? "the movie was really great"
                                      : "the movie was really terrible";
    int64_t label = positive ? 1 : 0;
    data::Example clean{text, label};
    ds.valid.push_back(clean);
    ds.test.push_back(clean);
    if (gen.Bernoulli(0.3)) label = 1 - label;  // inject label noise
    ds.train.push_back({text, label});
  }

  core::NoisyLabelOptions options;
  options.epochs = 6;
  options.batch_size = 8;
  options.seed = 5;
  auto result = core::TrainWithNoisyLabels(&model, eval::MetricKind::kAccuracy,
                                           ds, options);
  EXPECT_EQ(result.epochs_run, 6);
  EXPECT_GE(eval::EvaluateModel(model, ds.test, eval::MetricKind::kAccuracy),
            70.0);
}

TEST(EdtContextDependentTest, RowContextSerialization) {
  data::EdtOptions options;
  options.budget = 40;
  options.table_rows = 80;
  options.context_dependent = true;
  options.seed = 6;
  auto ds = data::MakeEdtDataset("beers", options);
  for (const auto& e : ds.train) {
    EXPECT_NE(e.text.find(" [SEP] [COL] "), std::string::npos);
  }
  // Same schema, same labels distribution as the cell-only variant.
  EXPECT_NEAR(data::LabelFraction(ds.train, 1), 0.5, 1e-9);
}

}  // namespace
}  // namespace rotom
