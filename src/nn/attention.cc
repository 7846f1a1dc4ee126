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
  return Attend(query_in, ProjectKeyValues(kv_in), key_bias, causal, rng);
}

Variable MultiHeadAttention::SplitHeads(const Variable& x) const {
  const int64_t b = x.value().size(0);
  const int64_t t = x.value().size(1);
  return ops::Transpose(ops::Reshape(x, {b, t, num_heads_, head_dim_}), 1, 2);
}

MultiHeadAttention::KeyValues MultiHeadAttention::ProjectKeyValues(
    const Variable& kv_in) const {
  ROTOM_CHECK_EQ(kv_in.value().size(2), dim_);
  return {SplitHeads(k_proj_.Forward(kv_in)),
          SplitHeads(v_proj_.Forward(kv_in))};
}

Variable MultiHeadAttention::Attend(const Variable& query_in,
                                    const KeyValues& kv,
                                    const Tensor& key_bias, bool causal,
                                    Rng& rng) const {
  const int64_t b = query_in.value().size(0);
  const int64_t tq = query_in.value().size(1);
  ROTOM_CHECK_EQ(query_in.value().size(2), dim_);
  Variable q = SplitHeads(q_proj_.Forward(query_in));

  // scores [B,H,Tq,Ts]: Q . K^T via the transposed-RHS kernel, which reads K
  // in its natural layout instead of materializing a transposed copy.
  Variable scores = ops::Scale(ops::MatMulBT(q, kv.k),
                               1.0f / std::sqrt(static_cast<float>(head_dim_)));
  scores = ops::AddSequenceMask(scores, key_bias);
  if (causal) scores = ops::AddCausalMask(scores);
  Variable attn = ops::Softmax(scores);
  attn = ops::Dropout(attn, dropout_, rng, training());

  Variable ctx = ops::MatMul(attn, kv.v);                   // [B,H,Tq,dh]
  ctx = ops::Reshape(ops::Transpose(ctx, 1, 2), {b, tq, dim_});
  return out_proj_.Forward(ctx);
}

}  // namespace nn
}  // namespace rotom
