#include "models/classifier.h"

#include <string>

#include "tensor/kernels.h"

namespace rotom {
namespace models {

Status ValidateConfig(const ClassifierConfig& config) {
  const struct {
    const char* name;
    int64_t value, min;
  } sizes[] = {{"num_classes", config.num_classes, 2},
               {"max_len", config.max_len, 2},  // [CLS] and [SEP]
               {"dim", config.dim, 1},
               {"num_heads", config.num_heads, 1},
               {"num_layers", config.num_layers, 1},
               {"ffn_dim", config.ffn_dim, 1}};
  for (const auto& size : sizes) {
    if (size.value < size.min) {
      return Status::Error(std::string(size.name) + " must be >= " +
                           std::to_string(size.min) + ", got " +
                           std::to_string(size.value));
    }
  }
  if (config.dim % config.num_heads != 0) {
    return Status::Error("dim " + std::to_string(config.dim) +
                         " is not divisible by num_heads " +
                         std::to_string(config.num_heads));
  }
  if (!(config.dropout >= 0.0f && config.dropout < 1.0f)) {
    return Status::Error("dropout must be in [0, 1), got " +
                         std::to_string(config.dropout));
  }
  return Status::Ok();
}

nn::TransformerConfig EncoderConfigFor(const ClassifierConfig& config,
                                       int64_t vocab_size) {
  nn::TransformerConfig enc;
  enc.vocab_size = vocab_size;
  enc.dim = config.dim;
  enc.num_heads = config.num_heads;
  enc.num_layers = config.num_layers;
  enc.ffn_dim = config.ffn_dim;
  enc.max_seq_len = config.max_len;
  enc.dropout = config.dropout;
  return enc;
}

TransformerClassifier::TransformerClassifier(
    const ClassifierConfig& config,
    std::shared_ptr<const text::Vocabulary> vocab, Rng& rng)
    : config_(config),
      vocab_(std::move(vocab)),
      encoder_(EncoderConfigFor(config, vocab_->size()), rng),
      head_(config.dim, config.num_classes, rng) {
  RegisterSubmodule("encoder", &encoder_);
  RegisterSubmodule("head", &head_);
}

Variable TransformerClassifier::ForwardLogitsEncoded(
    const text::EncodedBatch& batch, Rng& rng) const {
  return head_.Forward(EncodeClsEncoded(batch, rng));
}

Variable TransformerClassifier::EncodeCls(const std::vector<std::string>& texts,
                                          Rng& rng) const {
  return EncodeClsEncoded(
      text::EncodeBatchForClassifier(*vocab_, texts, config_.max_len), rng);
}

Variable TransformerClassifier::EncodeClsEncoded(const text::EncodedBatch& batch,
                                                 Rng& rng) const {
  // Encode-time flags ride along in the batch; recompute only when a caller
  // mutated `ids` after encoding (e.g. MLM masking) and cleared them.
  if (batch.flags.empty()) {
    const auto flags =
        text::ComputeOverlapFlags(batch.ids, batch.batch, batch.max_len);
    return encoder_.EncodeCls(batch.ids, batch.batch, batch.max_len,
                              batch.mask, rng, &flags);
  }
  return encoder_.EncodeCls(batch.ids, batch.batch, batch.max_len, batch.mask,
                            rng, &batch.flags);
}

Variable TransformerClassifier::EncodeHidden(const text::EncodedBatch& batch,
                                             Rng& rng) const {
  if (batch.flags.empty()) {
    const auto flags =
        text::ComputeOverlapFlags(batch.ids, batch.batch, batch.max_len);
    return encoder_.Forward(batch.ids, batch.batch, batch.max_len, batch.mask,
                            rng, &flags);
  }
  return encoder_.Forward(batch.ids, batch.batch, batch.max_len, batch.mask,
                          rng, &batch.flags);
}

Tensor TransformerClassifier::PredictProbs(const std::vector<std::string>& texts,
                                           Rng& rng) const {
  return PredictProbsEncoded(
      text::EncodeBatchForClassifier(*vocab_, texts, config_.max_len), rng);
}

Tensor TransformerClassifier::PredictProbsEncoded(const text::EncodedBatch& batch,
                                                  Rng& rng) const {
  return ops::SoftmaxRows(ForwardLogitsEncoded(batch, rng).value());
}

std::vector<int64_t> TransformerClassifier::Predict(
    const std::vector<std::string>& texts, Rng& rng) const {
  const Tensor probs = PredictProbs(texts, rng);
  const int64_t c = probs.size(-1);
  std::vector<int64_t> preds(texts.size());
  for (size_t i = 0; i < texts.size(); ++i)
    preds[i] = kernels::RowArgmax(probs.data() + static_cast<int64_t>(i) * c, c);
  return preds;
}

}  // namespace models
}  // namespace rotom
