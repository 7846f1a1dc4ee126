#ifndef ROTOM_MODELS_CLASSIFIER_H_
#define ROTOM_MODELS_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/transformer.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "util/status.h"

namespace rotom {
namespace models {

/// Configuration of the sequence classifier (paper Figure 2: pre-trained LM
/// + task-specific linear/softmax head).
struct ClassifierConfig {
  int64_t num_classes = 2;
  int64_t max_len = 48;        // also the encoder's max_seq_len
  int64_t dim = 64;
  int64_t num_heads = 2;
  int64_t num_layers = 2;
  int64_t ffn_dim = 128;
  float dropout = 0.1f;
};

/// The one check that a model can be built from `config`: every size is
/// >= 1, num_classes >= 2, max_len >= 2 ([CLS] and [SEP]), dim divides into
/// num_heads equal heads, and dropout lies in [0, 1).
/// The error names the first field that fails.
/// api::Train runs it on its spec and Snapshot::Load on every file, so a
/// bad config is a Status there instead of an abort in the model.
Status ValidateConfig(const ClassifierConfig& config);

/// The target model M of the paper: a transformer encoder (our stand-in for
/// RoBERTa/DistilBERT/BERT; see DESIGN.md) with a [CLS]-pooled linear head.
/// The classifier owns a shared reference to the task vocabulary so callers
/// can pass raw serialized text.
class TransformerClassifier : public nn::Module {
 public:
  TransformerClassifier(const ClassifierConfig& config,
                        std::shared_ptr<const text::Vocabulary> vocab,
                        Rng& rng);

  /// Logits [B, num_classes] for an already-encoded batch (the pipelined
  /// path: encoding happened on a prefetch thread or came from the cache).
  /// There is deliberately no raw-text logits overload: encode once with
  /// text::EncodeBatchForClassifier (or through text::EncodingCache) so
  /// tokenization is paid once per distinct text. The supported raw-text
  /// entry point is serve::InferenceSession, which sits behind a cache.
  Variable ForwardLogitsEncoded(const text::EncodedBatch& batch,
                                Rng& rng) const;

  /// [CLS] representations [B, dim] (used for MixDA interpolation and as
  /// the weighting model's LM encoder).
  Variable EncodeCls(const std::vector<std::string>& texts, Rng& rng) const;

  /// [CLS] representations [B, dim] for an already-encoded batch.
  Variable EncodeClsEncoded(const text::EncodedBatch& batch, Rng& rng) const;

  /// Full hidden states [B, T, dim] for an encoded batch (used by masked-LM
  /// pre-training).
  Variable EncodeHidden(const text::EncodedBatch& batch, Rng& rng) const;

  /// Applies the classification head to [CLS] vectors [B, dim].
  Variable HeadLogits(const Variable& cls) const { return head_.Forward(cls); }

  /// Class probabilities [B, num_classes] with no graph (eval mode must be
  /// set by the caller via SetTraining(false) for deterministic output).
  Tensor PredictProbs(const std::vector<std::string>& texts, Rng& rng) const;

  /// PredictProbs for an already-encoded batch.
  Tensor PredictProbsEncoded(const text::EncodedBatch& batch, Rng& rng) const;

  /// Argmax predictions for a batch of texts.
  std::vector<int64_t> Predict(const std::vector<std::string>& texts,
                               Rng& rng) const;

  const ClassifierConfig& config() const { return config_; }
  const text::Vocabulary& vocab() const { return *vocab_; }
  std::shared_ptr<const text::Vocabulary> vocab_ptr() const { return vocab_; }
  const nn::TransformerEncoder& encoder() const { return encoder_; }

 private:
  ClassifierConfig config_;
  std::shared_ptr<const text::Vocabulary> vocab_;
  nn::TransformerEncoder encoder_;
  nn::Linear head_;
};

/// Builds the encoder config implied by a classifier config.
nn::TransformerConfig EncoderConfigFor(const ClassifierConfig& config,
                                       int64_t vocab_size);

}  // namespace models
}  // namespace rotom

#endif  // ROTOM_MODELS_CLASSIFIER_H_
