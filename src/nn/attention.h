#ifndef ROTOM_NN_ATTENTION_H_
#define ROTOM_NN_ATTENTION_H_

#include "nn/layers.h"

namespace rotom {
namespace nn {

/// Converts a validity mask [B,S] (1 = real token, 0 = padding) into an
/// additive attention bias (0 for valid keys, -1e9 for padding).
Tensor MaskToAttentionBias(const Tensor& mask);

/// Multi-head scaled-dot-product attention (as in "Attention Is All You
/// Need"). Supports self-attention, cross-attention, padding masks, and a
/// causal mask for decoding.
class MultiHeadAttention : public Module {
 public:
  /// Keys and values projected from a [B,T,d] input and split into heads,
  /// [B,H,T,dh] each. An incremental decode keeps them across steps
  /// (TransformerDecoder::Step) instead of re-projecting the prefix.
  struct KeyValues {
    Variable k;
    Variable v;
  };

  MultiHeadAttention(int64_t dim, int64_t num_heads, float dropout, Rng& rng);

  /// query_in [B,Tq,d], kv_in [B,Ts,d]; key_bias [B,Ts] additive bias over
  /// keys (use MaskToAttentionBias); causal adds a lower-triangular mask.
  /// `rng` drives attention dropout when training. This is
  /// Attend(query_in, ProjectKeyValues(kv_in), ...).
  Variable Forward(const Variable& query_in, const Variable& kv_in,
                   const Tensor& key_bias, bool causal, Rng& rng) const;

  /// The key and value projections of kv_in [B,T,d], split into heads.
  KeyValues ProjectKeyValues(const Variable& kv_in) const;

  /// Attention of query_in [B,Tq,d] over keys and values already projected
  /// (ProjectKeyValues), [B,H,Ts,dh]; key_bias and causal as in Forward.
  Variable Attend(const Variable& query_in, const KeyValues& kv,
                  const Tensor& key_bias, bool causal, Rng& rng) const;

 private:
  // [B,T,d] -> [B,H,T,dh].
  Variable SplitHeads(const Variable& x) const;

  int64_t dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  float dropout_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear out_proj_;
};

}  // namespace nn
}  // namespace rotom

#endif  // ROTOM_NN_ATTENTION_H_
