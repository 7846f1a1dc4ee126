// End-task parity gate for the int8 serving path (DESIGN.md §12): trains a
// smoke-scale entity-matching model on dblp_acm through the api facade,
// quantizes its snapshot, and scores the float and int8 sessions on the
// same held-out test pairs. The acceptance criterion is the one the int8
// path ships under: the quantized F1 stays within 0.5 points (percentage
// scale, the paper's tables' units) of the float F1. This is deliberately
// an end-to-end bound — per-tensor dequantization error is already covered
// by quant_test / rotom_quantize selftest; what an operator cares about is
// whether int8 serving changes the answers.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/em_gen.h"
#include "eval/metrics.h"
#include "rotom/api.h"

namespace rotom {
namespace {

// Smoke-scale but not degenerate: enough labeled pairs and epochs for the
// model to move off its random initialization, so the F1 comparison runs at
// a realistic operating point instead of on coin-flip logits.
api::TrainSpec ParitySpec() {
  data::EmOptions ds_options;
  ds_options.budget = 200;
  ds_options.test_size = 128;
  ds_options.unlabeled_size = 64;
  ds_options.seed = 7;

  api::TrainSpec spec;
  spec.source =
      data::DataSource::Inline(data::MakeEmDataset("dblp_acm", ds_options));
  spec.method = eval::Method::kBaseline;  // fastest trainer; serving is the DUT
  spec.options.classifier.max_len = 40;
  spec.options.classifier.dim = 32;
  spec.options.classifier.num_heads = 2;
  spec.options.classifier.num_layers = 1;
  spec.options.classifier.ffn_dim = 64;
  spec.options.pretrain.epochs = 1;
  spec.options.pretrain.max_corpus = 32;
  spec.options.epochs = 10;
  spec.options.batch_size = 8;
  spec.seed = 9;
  return spec;
}

double SessionF1(const serve::InferenceSession& session,
                 const std::vector<data::Example>& examples) {
  std::vector<std::string> texts;
  std::vector<int64_t> labels;
  texts.reserve(examples.size());
  labels.reserve(examples.size());
  for (const auto& e : examples) {
    texts.push_back(e.text);
    labels.push_back(e.label);
  }
  const auto predictions = session.PredictBatch(texts);
  std::vector<int64_t> predicted;
  predicted.reserve(predictions.size());
  for (const auto& p : predictions) predicted.push_back(p.label);
  return 100.0 * eval::BinaryPrf(predicted, labels).f1;
}

TEST(QuantParityTest, Int8F1WithinHalfPointOfFloatOnDblpAcm) {
  const api::TrainSpec spec = ParitySpec();
  auto report = api::Train(spec);
  ASSERT_TRUE(report.ok()) << report.status().message();

  auto quantized = serve::QuantizeSnapshot(report.value().snapshot);
  ASSERT_TRUE(quantized.ok()) << quantized.status().message();

  auto float_session =
      serve::InferenceSession::Create(report.value().snapshot);
  auto int8_session = serve::InferenceSession::Create(quantized.value());
  ASSERT_TRUE(float_session.ok()) << float_session.status().message();
  ASSERT_TRUE(int8_session.ok()) << int8_session.status().message();
  ASSERT_FALSE(float_session.value()->quantized());
  ASSERT_TRUE(int8_session.value()->quantized());

  const auto& test = spec.source.dataset.test;
  const double f32_f1 = SessionF1(*float_session.value(), test);
  const double int8_f1 = SessionF1(*int8_session.value(), test);

  std::printf("dblp_acm smoke F1: float %.2f, int8 %.2f, delta %.3f\n", f32_f1,
              int8_f1, std::abs(f32_f1 - int8_f1));

  // Percentage scale (0..100), matching ExperimentResult::test_metric.
  EXPECT_LE(std::abs(f32_f1 - int8_f1), 0.5)
      << "float F1 " << f32_f1 << " vs int8 F1 " << int8_f1;

  // Sanity on the operating point: the float model should not be degenerate
  // (all-negative predictions give F1 = 0 and would make the parity check
  // vacuous). The trained smoke model comfortably clears this.
  EXPECT_GT(f32_f1, 0.0) << "float model predicts no positives; parity "
                            "comparison is vacuous";
}

}  // namespace
}  // namespace rotom
