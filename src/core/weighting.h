#ifndef ROTOM_CORE_WEIGHTING_H_
#define ROTOM_CORE_WEIGHTING_H_

#include <memory>
#include <string>
#include <vector>

#include "models/classifier.h"

namespace rotom {
namespace core {

/// The weighting model M_W of paper Section 4.1 (Eq. 2): a language model
/// LM_W (same architecture as the target model) encoding the augmented
/// sequence, a single linear layer L_W to a scalar, a sigmoid, plus the
/// detached L2 distance between the target model's prediction on the
/// augmented sequence and the (possibly soft) label:
///   M_W(x, x_hat, y) = sigmoid(L_W(LM_W(x_hat))) + ||p_M(x_hat) - y||_2.
class WeightingModel : public nn::Module {
 public:
  WeightingModel(const models::ClassifierConfig& config,
                 std::shared_ptr<const text::Vocabulary> vocab, Rng& rng);

  /// Raw (unnormalized) weights [B] for a batch of augmented sequences.
  /// `l2_term` [B] holds the constant ||p_M(x_hat) - y||_2 values (pass
  /// zeros to ablate the term). Differentiable w.r.t. this model only.
  Variable Weights(const std::vector<std::string>& augmented_texts,
                   const Tensor& l2_term, Rng& rng) const;

  /// Weights for an already-encoded batch. LM_W shares the target model's
  /// vocabulary and max_len, so the trainer encodes each meta batch once and
  /// feeds the same text::EncodedBatch to both models.
  Variable WeightsEncoded(const text::EncodedBatch& batch,
                          const Tensor& l2_term, Rng& rng) const;

  /// Computes the L2 distance term from the target model's probabilities
  /// [B, C] and one-hot labels.
  static Tensor L2Term(const Tensor& probs, const std::vector<int64_t>& labels);

  /// Soft-label variant used in SSL (guessed label distributions [B, C]).
  static Tensor L2TermSoft(const Tensor& probs, const Tensor& soft_labels);

 private:
  nn::TransformerEncoder lm_;   // LM_W
  nn::Linear out_;              // L_W: dim -> 1
  std::shared_ptr<const text::Vocabulary> vocab_;
  int64_t max_len_;
};

/// Adds the finite-difference estimate of the Eq. 4 meta-gradient to M_W's
/// parameter gradients. `weights` [n] are the normalized M_W weights, with
/// their graph; `ce_plus` / `ce_minus` [n] are the target model's
/// per-example training losses at w_pre +/- eps * grad_val. The training
/// loss dot(ce, weights) / n is linear in ce, so the DARTS difference
/// g+ - g- of the two M_W gradients is J_w^T (ce_plus - ce_minus) / n: one
/// backward through `weights` deposits -lr * (g+ - g-) / (2 eps).
void BackpropWeightingMetaGradient(const Variable& weights,
                                   const Tensor& ce_plus,
                                   const Tensor& ce_minus, float lr, float eps);

}  // namespace core
}  // namespace rotom

#endif  // ROTOM_CORE_WEIGHTING_H_
