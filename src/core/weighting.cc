#include "core/weighting.h"

#include <cmath>

namespace rotom {
namespace core {

WeightingModel::WeightingModel(const models::ClassifierConfig& config,
                               std::shared_ptr<const text::Vocabulary> vocab,
                               Rng& rng)
    : lm_(models::EncoderConfigFor(config, vocab->size()), rng),
      out_(config.dim, 1, rng),
      vocab_(std::move(vocab)),
      max_len_(config.max_len) {
  RegisterSubmodule("lm", &lm_);
  RegisterSubmodule("out", &out_);
}

Variable WeightingModel::Weights(
    const std::vector<std::string>& augmented_texts, const Tensor& l2_term,
    Rng& rng) const {
  return WeightsEncoded(
      text::EncodeBatchForClassifier(*vocab_, augmented_texts, max_len_),
      l2_term, rng);
}

Variable WeightingModel::WeightsEncoded(const text::EncodedBatch& batch,
                                        const Tensor& l2_term,
                                        Rng& rng) const {
  const int64_t b = batch.batch;
  ROTOM_CHECK_EQ(l2_term.size(), b);
  ROTOM_CHECK_EQ(batch.max_len, max_len_);
  Variable cls;
  if (batch.flags.empty()) {
    const auto flags =
        text::ComputeOverlapFlags(batch.ids, batch.batch, batch.max_len);
    cls = lm_.EncodeCls(batch.ids, batch.batch, batch.max_len, batch.mask,
                        rng, &flags);
  } else {
    cls = lm_.EncodeCls(batch.ids, batch.batch, batch.max_len, batch.mask,
                        rng, &batch.flags);
  }
  Variable scores = ops::Sigmoid(ops::Reshape(out_.Forward(cls), {b}));
  // The L2 term is additive and constant (no gradient flows through it when
  // updating the target model; paper Section 4.1).
  return ops::Add(scores, Variable(l2_term, false));
}

Tensor WeightingModel::L2Term(const Tensor& probs,
                              const std::vector<int64_t>& labels) {
  ROTOM_CHECK_EQ(probs.dim(), 2);
  const int64_t b = probs.size(0);
  const int64_t c = probs.size(1);
  ROTOM_CHECK_EQ(static_cast<int64_t>(labels.size()), b);
  Tensor out({b});
  for (int64_t i = 0; i < b; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      const double target = j == labels[i] ? 1.0 : 0.0;
      const double diff = probs.at({i, j}) - target;
      acc += diff * diff;
    }
    out[i] = static_cast<float>(std::sqrt(acc));
  }
  return out;
}

Tensor WeightingModel::L2TermSoft(const Tensor& probs,
                                  const Tensor& soft_labels) {
  ROTOM_CHECK(probs.shape() == soft_labels.shape());
  const int64_t b = probs.size(0);
  const int64_t c = probs.size(1);
  Tensor out({b});
  for (int64_t i = 0; i < b; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      const double diff = probs.at({i, j}) - soft_labels.at({i, j});
      acc += diff * diff;
    }
    out[i] = static_cast<float>(std::sqrt(acc));
  }
  return out;
}

void BackpropWeightingMetaGradient(const Variable& weights,
                                   const Tensor& ce_plus,
                                   const Tensor& ce_minus, float lr,
                                   float eps) {
  const int64_t n = weights.value().size();
  ROTOM_CHECK_EQ(ce_plus.size(), n);
  ROTOM_CHECK_EQ(ce_minus.size(), n);
  Tensor diff = ce_plus.Clone();
  diff.AddScaled(ce_minus, -1.0f);
  diff.Scale(-lr / (2.0f * eps * static_cast<float>(n)));
  ops::Dot(weights, Variable(std::move(diff), false)).Backward();
}

}  // namespace core
}  // namespace rotom
