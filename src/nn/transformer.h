#ifndef ROTOM_NN_TRANSFORMER_H_
#define ROTOM_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"

namespace rotom {
namespace nn {

/// Hyper-parameters shared by the encoder and decoder stacks. The defaults
/// are the scaled-down "pre-trained LM" configuration this reproduction uses
/// in place of RoBERTa/DistilBERT (see DESIGN.md, Substitutions).
struct TransformerConfig {
  int64_t vocab_size = 0;  // required
  int64_t dim = 64;
  int64_t num_heads = 2;
  int64_t num_layers = 2;
  int64_t ffn_dim = 128;
  int64_t max_seq_len = 64;
  float dropout = 0.1f;
};

/// One post-LN encoder block: x = LN(x + Drop(MHA(x))); x = LN(x + Drop(FF(x))).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const TransformerConfig& config, Rng& rng);

  Variable Forward(const Variable& x, const Tensor& key_bias, Rng& rng) const;

 private:
  float dropout_;
  MultiHeadAttention attn_;
  FeedForward ffn_;
  LayerNormLayer norm1_;
  LayerNormLayer norm2_;
};

/// Token + learned-position embeddings followed by a stack of encoder
/// layers. The [CLS]-style summary vector is row 0 of the output.
///
/// An optional per-token binary "flag" stream adds a third learned embedding
/// (like BERT's segment embeddings). The sequence classifier uses it to mark
/// tokens that occur on both sides of a [SEP]-separated pair — an input-level
/// inductive bias standing in for the cross-sequence comparison ability that
/// large pre-trained LMs bring to entity matching (DESIGN.md).
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const TransformerConfig& config, Rng& rng);

  /// ids: flattened [batch * seq_len] token ids; mask [batch, seq_len] with
  /// 1 for real tokens; flags (optional): flattened [batch * seq_len] values
  /// in {0, 1}. Returns hidden states [batch, seq_len, dim].
  Variable Forward(const std::vector<int64_t>& ids, int64_t batch,
                   int64_t seq_len, const Tensor& mask, Rng& rng,
                   const std::vector<int64_t>* flags = nullptr) const;

  /// Convenience: Forward then select position 0 -> [batch, dim].
  Variable EncodeCls(const std::vector<int64_t>& ids, int64_t batch,
                     int64_t seq_len, const Tensor& mask, Rng& rng,
                     const std::vector<int64_t>* flags = nullptr) const;

  const TransformerConfig& config() const { return config_; }

 private:
  TransformerConfig config_;
  EmbeddingLayer token_emb_;
  EmbeddingLayer pos_emb_;
  EmbeddingLayer flag_emb_;
  LayerNormLayer emb_norm_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
};

/// One decoder block: causal self-attention, cross-attention over encoder
/// memory, feed-forward; post-LN residuals throughout.
class TransformerDecoderLayer : public Module {
 public:
  TransformerDecoderLayer(const TransformerConfig& config, Rng& rng);

  /// The block over a whole target sequence x [B,T,d] (teacher forcing).
  Variable Forward(const Variable& x, const Tensor& self_key_bias,
                   const Variable& memory, const Tensor& memory_key_bias,
                   Rng& rng) const;

  /// The cross-attention keys and values of encoder memory [B,Ts,d], which
  /// every Step of one decode reuses.
  MultiHeadAttention::KeyValues ProjectMemory(const Variable& memory) const;

  /// The block for one new position x [B,1,d]: appends x's self-attention
  /// keys and values to `self_cache` (the earlier positions'; undefined
  /// before the first step), then attends over all of them. Eval mode.
  Variable Step(const Variable& x, MultiHeadAttention::KeyValues& self_cache,
                const MultiHeadAttention::KeyValues& memory_kv,
                const Tensor& memory_key_bias, Rng& rng) const;

 private:
  // The block given the keys and values both attentions read.
  Variable Block(const Variable& x,
                 const MultiHeadAttention::KeyValues& self_kv,
                 const Tensor& self_key_bias, bool causal,
                 const MultiHeadAttention::KeyValues& memory_kv,
                 const Tensor& memory_key_bias, Rng& rng) const;

  float dropout_;
  MultiHeadAttention self_attn_;
  MultiHeadAttention cross_attn_;
  FeedForward ffn_;
  LayerNormLayer norm1_;
  LayerNormLayer norm2_;
  LayerNormLayer norm3_;
};

/// The state of one incremental decode (TransformerDecoder::StartDecode,
/// Step): per layer, the self-attention keys and values of the positions
/// decoded so far and the cross-attention keys and values of the encoder
/// memory, projected once. Inference only: it holds no gradient graph.
class DecoderCache {
 public:
  int64_t batch() const { return memory_bias_.size(0); }
  /// Positions decoded so far; the next Step decodes position length().
  int64_t length() const { return length_; }
  /// The most positions the cache can hold (the decoder's max_seq_len).
  int64_t capacity() const { return capacity_; }

  /// Keeps rows `rows` of every cached tensor, in that order; rows may
  /// repeat. Beam search continues each new beam from its parent's row.
  void SelectRows(const std::vector<int64_t>& rows);

 private:
  friend class TransformerDecoder;
  struct Layer {
    MultiHeadAttention::KeyValues self;    // [B,H,length,dh]
    MultiHeadAttention::KeyValues memory;  // [B,H,Ts,dh]
  };
  std::vector<Layer> layers_;
  Tensor memory_bias_;  // [B,Ts]
  int64_t length_ = 0;
  int64_t capacity_ = 0;
};

/// Decoder stack with an output projection to vocabulary logits.
class TransformerDecoder : public Module {
 public:
  TransformerDecoder(const TransformerConfig& config, Rng& rng);

  /// ids: flattened [batch * seq_len] target-side ids (teacher forcing
  /// inputs); returns logits [batch, seq_len, vocab].
  Variable Forward(const std::vector<int64_t>& ids, int64_t batch,
                   int64_t seq_len, const Tensor& target_mask,
                   const Variable& memory, const Tensor& memory_mask,
                   Rng& rng) const;

  /// Starts an incremental decode over encoder memory [B,Ts,d] with its
  /// validity mask [B,Ts]: projects each layer's cross-attention keys and
  /// values once.
  DecoderCache StartDecode(const Variable& memory,
                           const Tensor& memory_mask) const;

  /// Decodes position p = cache.length() of every row: ids [B] are the
  /// tokens at p. Returns the logits [B,1,vocab] at p, the last row of
  /// Forward over positions [0, p] (DESIGN.md §6 states where the two can
  /// differ in the last bits), and appends p's keys and values to the
  /// cache. Eval mode; aborts once the cache is full.
  Variable Step(const std::vector<int64_t>& ids, DecoderCache& cache) const;

  const TransformerConfig& config() const { return config_; }

 private:
  // Token + position embeddings of positions [first, first + seq_len) of
  // ids [batch * seq_len], normalized: [batch, seq_len, dim].
  Variable Embed(const std::vector<int64_t>& ids, int64_t batch,
                 int64_t first, int64_t seq_len, Rng& rng) const;

  TransformerConfig config_;
  EmbeddingLayer token_emb_;
  EmbeddingLayer pos_emb_;
  LayerNormLayer emb_norm_;
  std::vector<std::unique_ptr<TransformerDecoderLayer>> layers_;
  Linear vocab_proj_;
};

}  // namespace nn
}  // namespace rotom

#endif  // ROTOM_NN_TRANSFORMER_H_
