#include "nn/attention.h"

#include <cmath>

#include "tensor/kernels.h"

namespace rotom {
namespace nn {

Tensor MaskToAttentionBias(const Tensor& mask) {
  ROTOM_CHECK_EQ(mask.dim(), 2);
  Tensor bias = Tensor::Uninitialized(mask.shape());
  kernels::Map(mask.data(), bias.data(), mask.size(),
               [](float m) { return m > 0.5f ? 0.0f : -1e9f; });
  return bias;
}

MultiHeadAttention::MultiHeadAttention(int64_t dim, int64_t num_heads,
                                       float dropout, Rng& rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      dropout_(dropout),
      q_proj_(dim, dim, rng),
      k_proj_(dim, dim, rng),
      v_proj_(dim, dim, rng),
      out_proj_(dim, dim, rng) {
  ROTOM_CHECK_EQ(head_dim_ * num_heads_, dim_);
  RegisterSubmodule("q", &q_proj_);
  RegisterSubmodule("k", &k_proj_);
  RegisterSubmodule("v", &v_proj_);
  RegisterSubmodule("out", &out_proj_);
}

Variable MultiHeadAttention::Forward(const Variable& query_in,
                                     const Variable& kv_in,
                                     const Tensor& key_bias, bool causal,
                                     Rng& rng) const {
  const int64_t b = query_in.value().size(0);
  const int64_t tq = query_in.value().size(1);
  const int64_t ts = kv_in.value().size(1);
  ROTOM_CHECK_EQ(query_in.value().size(2), dim_);
  ROTOM_CHECK_EQ(kv_in.value().size(2), dim_);

  auto split_heads = [&](const Variable& x, int64_t t) {
    // [B,T,d] -> [B,H,T,dh]
    return ops::Transpose(ops::Reshape(x, {b, t, num_heads_, head_dim_}), 1,
                          2);
  };

  Variable q = split_heads(q_proj_.Forward(query_in), tq);
  Variable k = split_heads(k_proj_.Forward(kv_in), ts);
  Variable v = split_heads(v_proj_.Forward(kv_in), ts);

  // scores [B,H,Tq,Ts]: Q . K^T via the transposed-RHS kernel, which reads K
  // in its natural layout instead of materializing a transposed copy.
  Variable scores = ops::Scale(ops::MatMulBT(q, k),
                               1.0f / std::sqrt(static_cast<float>(head_dim_)));
  scores = ops::AddSequenceMask(scores, key_bias);
  if (causal) scores = ops::AddCausalMask(scores);
  Variable attn = ops::Softmax(scores);
  attn = ops::Dropout(attn, dropout_, rng, training());

  Variable ctx = ops::MatMul(attn, v);                      // [B,H,Tq,dh]
  ctx = ops::Reshape(ops::Transpose(ctx, 1, 2), {b, tq, dim_});
  return out_proj_.Forward(ctx);
}

}  // namespace nn
}  // namespace rotom
