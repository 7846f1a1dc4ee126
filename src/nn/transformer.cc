#include "nn/transformer.h"

#include <cstring>

#include "tensor/kernels.h"

namespace rotom {
namespace nn {

namespace {

// Position ids [first, first + seq_len) of ONE sequence. The resulting [T,d]
// position embedding is broadcast over the batch by ops::Add, so the gather
// (and its scatter-add gradient) runs once per position instead of once per
// token.
std::vector<int64_t> PositionIds(int64_t first, int64_t seq_len,
                                 int64_t max_seq_len) {
  ROTOM_CHECK_LE(first + seq_len, max_seq_len);
  std::vector<int64_t> pos(seq_len);
  for (int64_t t = 0; t < seq_len; ++t) pos[t] = first + t;
  return pos;
}

// Rows `rows` of `in` along dim 0, in that order.
Tensor SelectRowsOf(const Tensor& in, const std::vector<int64_t>& rows) {
  for (int64_t r : rows) ROTOM_CHECK(r >= 0 && r < in.size(0));
  std::vector<int64_t> shape = in.shape();
  const int64_t row_size = in.size() / shape[0];
  shape[0] = static_cast<int64_t>(rows.size());
  Tensor out = Tensor::Uninitialized(std::move(shape));
  kernels::GatherRows(in.data(), rows.data(), out.data(), out.size(0),
                      row_size);
  return out;
}

// [B,H,T,dh] `prefix` followed by [B,H,1,dh] `next` along time:
// [B,H,T+1,dh]. An undefined prefix (T = 0) yields `next` itself.
Variable AppendPosition(const Variable& prefix, const Variable& next) {
  if (!prefix.defined()) return next;
  const Tensor& p = prefix.value();
  const Tensor& n = next.value();
  const int64_t dh = n.size(3);
  const int64_t prefix_size = p.size(2) * dh;
  Tensor out =
      Tensor::Uninitialized({p.size(0), p.size(1), p.size(2) + 1, dh});
  for (int64_t blk = 0; blk < p.size(0) * p.size(1); ++blk) {
    float* dst = out.data() + blk * (prefix_size + dh);
    std::memcpy(dst, p.data() + blk * prefix_size,
                sizeof(float) * prefix_size);
    std::memcpy(dst + prefix_size, n.data() + blk * dh, sizeof(float) * dh);
  }
  return Variable(std::move(out), false);
}

}  // namespace

TransformerEncoderLayer::TransformerEncoderLayer(
    const TransformerConfig& config, Rng& rng)
    : dropout_(config.dropout),
      attn_(config.dim, config.num_heads, config.dropout, rng),
      ffn_(config.dim, config.ffn_dim, rng),
      norm1_(config.dim),
      norm2_(config.dim) {
  RegisterSubmodule("attn", &attn_);
  RegisterSubmodule("ffn", &ffn_);
  RegisterSubmodule("norm1", &norm1_);
  RegisterSubmodule("norm2", &norm2_);
}

Variable TransformerEncoderLayer::Forward(const Variable& x,
                                          const Tensor& key_bias,
                                          Rng& rng) const {
  Variable attn_out = attn_.Forward(x, x, key_bias, /*causal=*/false, rng);
  Variable h =
      norm1_.Forward(ops::Add(x, ops::Dropout(attn_out, dropout_, rng, training())));
  Variable ffn_out = ffn_.Forward(h);
  return norm2_.Forward(
      ops::Add(h, ops::Dropout(ffn_out, dropout_, rng, training())));
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& config,
                                       Rng& rng)
    : config_(config),
      token_emb_(config.vocab_size, config.dim, rng),
      pos_emb_(config.max_seq_len, config.dim, rng),
      flag_emb_(2, config.dim, rng),
      emb_norm_(config.dim) {
  ROTOM_CHECK_GT(config.vocab_size, 0);
  RegisterSubmodule("token_emb", &token_emb_);
  RegisterSubmodule("pos_emb", &pos_emb_);
  RegisterSubmodule("flag_emb", &flag_emb_);
  RegisterSubmodule("emb_norm", &emb_norm_);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(config, rng));
    RegisterSubmodule("layer" + std::to_string(i), layers_.back().get());
  }
}

Variable TransformerEncoder::Forward(const std::vector<int64_t>& ids,
                                     int64_t batch, int64_t seq_len,
                                     const Tensor& mask, Rng& rng,
                                     const std::vector<int64_t>* flags) const {
  ROTOM_CHECK_EQ(static_cast<int64_t>(ids.size()), batch * seq_len);
  ROTOM_CHECK_EQ(mask.size(0), batch);
  ROTOM_CHECK_EQ(mask.size(1), seq_len);

  Variable x = ops::Reshape(token_emb_.Forward(ids),
                            {batch, seq_len, config_.dim});
  Variable pos = pos_emb_.Forward(
      PositionIds(0, seq_len, config_.max_seq_len));  // [T,d]
  x = ops::Add(x, pos);  // broadcast over the batch
  if (flags != nullptr) {
    ROTOM_CHECK_EQ(flags->size(), ids.size());
    x = ops::Add(x, ops::Reshape(flag_emb_.Forward(*flags),
                                 {batch, seq_len, config_.dim}));
  }
  x = emb_norm_.Forward(x);
  x = ops::Dropout(x, config_.dropout, rng, training());

  const Tensor key_bias = MaskToAttentionBias(mask);
  for (const auto& layer : layers_) {
    x = layer->Forward(x, key_bias, rng);
  }
  return x;
}

Variable TransformerEncoder::EncodeCls(const std::vector<int64_t>& ids,
                                       int64_t batch, int64_t seq_len,
                                       const Tensor& mask, Rng& rng,
                                       const std::vector<int64_t>* flags) const {
  return ops::SelectIndex(Forward(ids, batch, seq_len, mask, rng, flags), 1,
                          0);
}

TransformerDecoderLayer::TransformerDecoderLayer(
    const TransformerConfig& config, Rng& rng)
    : dropout_(config.dropout),
      self_attn_(config.dim, config.num_heads, config.dropout, rng),
      cross_attn_(config.dim, config.num_heads, config.dropout, rng),
      ffn_(config.dim, config.ffn_dim, rng),
      norm1_(config.dim),
      norm2_(config.dim),
      norm3_(config.dim) {
  RegisterSubmodule("self_attn", &self_attn_);
  RegisterSubmodule("cross_attn", &cross_attn_);
  RegisterSubmodule("ffn", &ffn_);
  RegisterSubmodule("norm1", &norm1_);
  RegisterSubmodule("norm2", &norm2_);
  RegisterSubmodule("norm3", &norm3_);
}

Variable TransformerDecoderLayer::Forward(const Variable& x,
                                          const Tensor& self_key_bias,
                                          const Variable& memory,
                                          const Tensor& memory_key_bias,
                                          Rng& rng) const {
  return Block(x, self_attn_.ProjectKeyValues(x), self_key_bias,
               /*causal=*/true, ProjectMemory(memory), memory_key_bias, rng);
}

MultiHeadAttention::KeyValues TransformerDecoderLayer::ProjectMemory(
    const Variable& memory) const {
  return cross_attn_.ProjectKeyValues(memory);
}

Variable TransformerDecoderLayer::Step(
    const Variable& x, MultiHeadAttention::KeyValues& self_cache,
    const MultiHeadAttention::KeyValues& memory_kv,
    const Tensor& memory_key_bias, Rng& rng) const {
  ROTOM_CHECK_EQ(x.value().size(1), 1);
  const MultiHeadAttention::KeyValues next = self_attn_.ProjectKeyValues(x);
  self_cache = {AppendPosition(self_cache.k, next.k),
                AppendPosition(self_cache.v, next.v)};
  // x is the last position, so the causal mask would mask nothing; every
  // cached position is a real token.
  const Tensor self_bias =
      Tensor::Zeros({x.value().size(0), self_cache.k.value().size(2)});
  return Block(x, self_cache, self_bias, /*causal=*/false, memory_kv,
               memory_key_bias, rng);
}

Variable TransformerDecoderLayer::Block(
    const Variable& x, const MultiHeadAttention::KeyValues& self_kv,
    const Tensor& self_key_bias, bool causal,
    const MultiHeadAttention::KeyValues& memory_kv,
    const Tensor& memory_key_bias, Rng& rng) const {
  Variable self_out =
      self_attn_.Attend(x, self_kv, self_key_bias, causal, rng);
  Variable h = norm1_.Forward(
      ops::Add(x, ops::Dropout(self_out, dropout_, rng, training())));
  Variable cross_out = cross_attn_.Attend(h, memory_kv, memory_key_bias,
                                          /*causal=*/false, rng);
  h = norm2_.Forward(
      ops::Add(h, ops::Dropout(cross_out, dropout_, rng, training())));
  Variable ffn_out = ffn_.Forward(h);
  return norm3_.Forward(
      ops::Add(h, ops::Dropout(ffn_out, dropout_, rng, training())));
}

void DecoderCache::SelectRows(const std::vector<int64_t>& rows) {
  ROTOM_CHECK(!rows.empty());
  auto select = [&](Variable& v) {
    if (v.defined()) v = Variable(SelectRowsOf(v.value(), rows), false);
  };
  for (Layer& layer : layers_) {
    select(layer.self.k);
    select(layer.self.v);
    select(layer.memory.k);
    select(layer.memory.v);
  }
  memory_bias_ = SelectRowsOf(memory_bias_, rows);
}

TransformerDecoder::TransformerDecoder(const TransformerConfig& config,
                                       Rng& rng)
    : config_(config),
      token_emb_(config.vocab_size, config.dim, rng),
      pos_emb_(config.max_seq_len, config.dim, rng),
      emb_norm_(config.dim),
      vocab_proj_(config.dim, config.vocab_size, rng) {
  ROTOM_CHECK_GT(config.vocab_size, 0);
  RegisterSubmodule("token_emb", &token_emb_);
  RegisterSubmodule("pos_emb", &pos_emb_);
  RegisterSubmodule("emb_norm", &emb_norm_);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerDecoderLayer>(config, rng));
    RegisterSubmodule("layer" + std::to_string(i), layers_.back().get());
  }
  RegisterSubmodule("vocab_proj", &vocab_proj_);
}

Variable TransformerDecoder::Embed(const std::vector<int64_t>& ids,
                                   int64_t batch, int64_t first,
                                   int64_t seq_len, Rng& rng) const {
  ROTOM_CHECK_EQ(static_cast<int64_t>(ids.size()), batch * seq_len);
  Variable x = ops::Reshape(token_emb_.Forward(ids),
                            {batch, seq_len, config_.dim});
  Variable pos = pos_emb_.Forward(
      PositionIds(first, seq_len, config_.max_seq_len));  // [T,d]
  x = ops::Add(x, pos);  // broadcast over the batch
  x = emb_norm_.Forward(x);
  return ops::Dropout(x, config_.dropout, rng, training());
}

Variable TransformerDecoder::Forward(const std::vector<int64_t>& ids,
                                     int64_t batch, int64_t seq_len,
                                     const Tensor& target_mask,
                                     const Variable& memory,
                                     const Tensor& memory_mask,
                                     Rng& rng) const {
  Variable x = Embed(ids, batch, 0, seq_len, rng);
  const Tensor self_bias = MaskToAttentionBias(target_mask);
  const Tensor mem_bias = MaskToAttentionBias(memory_mask);
  for (const auto& layer : layers_) {
    x = layer->Forward(x, self_bias, memory, mem_bias, rng);
  }
  return vocab_proj_.Forward(x);
}

DecoderCache TransformerDecoder::StartDecode(const Variable& memory,
                                             const Tensor& memory_mask) const {
  ROTOM_CHECK_EQ(memory.value().size(0), memory_mask.size(0));
  NoGradGuard no_grad;
  DecoderCache cache;
  cache.capacity_ = config_.max_seq_len;
  cache.memory_bias_ = MaskToAttentionBias(memory_mask);
  for (const auto& layer : layers_) {
    cache.layers_.push_back({{}, layer->ProjectMemory(memory)});
  }
  return cache;
}

Variable TransformerDecoder::Step(const std::vector<int64_t>& ids,
                                  DecoderCache& cache) const {
  ROTOM_CHECK_MSG(!training(), "decoder steps run in eval mode");
  ROTOM_CHECK_EQ(static_cast<int64_t>(ids.size()), cache.batch());
  ROTOM_CHECK_MSG(cache.length_ < cache.capacity_,
                  "decoder cache is full (max_seq_len positions)");
  NoGradGuard no_grad;
  Rng no_dropout(0);  // eval mode: dropout draws nothing
  Variable x = Embed(ids, cache.batch(), cache.length_, 1, no_dropout);
  for (size_t i = 0; i < layers_.size(); ++i) {
    DecoderCache::Layer& cached = cache.layers_[i];
    x = layers_[i]->Step(x, cached.self, cached.memory, cache.memory_bias_,
                         no_dropout);
  }
  ++cache.length_;
  return vocab_proj_.Forward(x);
}

}  // namespace nn
}  // namespace rotom
