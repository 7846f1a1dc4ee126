#include "serve/qforward.h"

#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/kernels.h"
#include "util/check.h"

namespace rotom {
namespace serve {

namespace {

constexpr float kLayerNormEps = 1e-5f;  // ops::LayerNorm's default

// Lookup helper over the snapshot's two weight lists.
class WeightMap {
 public:
  explicit WeightMap(const Snapshot& snapshot) {
    for (const auto& [name, tensor] : snapshot.weights) f32_[name] = &tensor;
    for (const auto& [name, qw] : snapshot.qweights) q8_[name] = &qw;
  }

  /// A weight that must be f32 with the given shape.
  StatusOr<Tensor> F32(const std::string& name,
                       const std::vector<int64_t>& shape) const {
    auto it = f32_.find(name);
    if (it == f32_.end()) {
      return Status::Error("snapshot weight '" + name +
                           "' is missing or not f32");
    }
    if (it->second->shape() != shape) {
      return Status::Error("snapshot weight '" + name +
                           "' has a shape mismatch");
    }
    return *it->second;
  }

  /// A Linear weight as a row-quantized [out, in] tensor: used as stored
  /// when the snapshot is already quantized, quantized here (same scheme as
  /// QuantizeSnapshot) when the snapshot carries it in f32.
  StatusOr<quant::QuantizedTensor> Q8(const std::string& name, int64_t in,
                                      int64_t out) const {
    if (auto it = q8_.find(name); it != q8_.end()) {
      const Snapshot::QuantizedWeight& qw = *it->second;
      if (!qw.transposed || qw.tensor.rows != out || qw.tensor.cols != in) {
        return Status::Error("snapshot weight '" + name +
                             "' has a shape mismatch");
      }
      return qw.tensor;
    }
    auto it = f32_.find(name);
    if (it == f32_.end()) {
      return Status::Error("snapshot weight '" + name + "' is missing");
    }
    if (it->second->shape() != std::vector<int64_t>{in, out}) {
      return Status::Error("snapshot weight '" + name +
                           "' has a shape mismatch");
    }
    const float* w = it->second->data();
    std::vector<float> wt(static_cast<size_t>(in * out));
    for (int64_t r = 0; r < in; ++r)
      for (int64_t c = 0; c < out; ++c) wt[c * in + r] = w[r * out + c];
    return quant::QuantizeRows(wt.data(), out, in);
  }

 private:
  std::unordered_map<std::string, const Tensor*> f32_;
  std::unordered_map<std::string, const Snapshot::QuantizedWeight*> q8_;
};

}  // namespace

StatusOr<std::unique_ptr<QuantizedClassifier>> QuantizedClassifier::Create(
    const Snapshot& snapshot) {
  if (snapshot.vocab == nullptr) {
    return Status::Error("snapshot has no vocabulary; cannot build a model");
  }
  const models::ClassifierConfig& cfg = snapshot.config;
  const int64_t d = cfg.dim;
  const WeightMap map(snapshot);

  // Private constructor: make_unique cannot reach it.
  std::unique_ptr<QuantizedClassifier> model(new QuantizedClassifier());
  model->config_ = cfg;

  auto linear = [&](const std::string& prefix, int64_t in, int64_t out,
                    QLinearLayer* dst) -> Status {
    auto w = map.Q8(prefix + ".weight", in, out);
    if (!w.ok()) return w.status();
    auto bias = map.F32(prefix + ".bias", {out});
    if (!bias.ok()) return bias.status();
    dst->w = std::move(w).value();
    dst->row_sums = quant::RowSums(dst->w);
    dst->bias = std::move(bias).value();
    return Status::Ok();
  };
  auto norm = [&](const std::string& prefix, Tensor* gamma,
                  Tensor* beta) -> Status {
    auto g = map.F32(prefix + ".gamma", {d});
    if (!g.ok()) return g.status();
    auto b = map.F32(prefix + ".beta", {d});
    if (!b.ok()) return b.status();
    *gamma = std::move(g).value();
    *beta = std::move(b).value();
    return Status::Ok();
  };

  const int64_t vocab_size = snapshot.vocab->size();
  auto token = map.F32("encoder.token_emb.weight", {vocab_size, d});
  if (!token.ok()) return token.status();
  model->token_emb_ = std::move(token).value();
  auto pos = map.F32("encoder.pos_emb.weight", {cfg.max_len, d});
  if (!pos.ok()) return pos.status();
  model->pos_emb_ = std::move(pos).value();
  auto flag = map.F32("encoder.flag_emb.weight", {2, d});
  if (!flag.ok()) return flag.status();
  model->flag_emb_ = std::move(flag).value();
  if (Status s = norm("encoder.emb_norm", &model->emb_norm_gamma_,
                      &model->emb_norm_beta_);
      !s.ok()) {
    return s;
  }

  model->layers_.resize(static_cast<size_t>(cfg.num_layers));
  for (int64_t i = 0; i < cfg.num_layers; ++i) {
    const std::string base = "encoder.layer" + std::to_string(i) + ".";
    Layer& layer = model->layers_[static_cast<size_t>(i)];
    for (auto [suffix, dst] : {std::pair{"attn.q", &layer.q},
                               {"attn.k", &layer.k},
                               {"attn.v", &layer.v},
                               {"attn.out", &layer.out}}) {
      if (Status s = linear(base + suffix, d, d, dst); !s.ok()) return s;
    }
    if (Status s = linear(base + "ffn.in", d, cfg.ffn_dim, &layer.ffn_in);
        !s.ok()) {
      return s;
    }
    if (Status s = linear(base + "ffn.out", cfg.ffn_dim, d, &layer.ffn_out);
        !s.ok()) {
      return s;
    }
    if (Status s = norm(base + "norm1", &layer.norm1_gamma, &layer.norm1_beta);
        !s.ok()) {
      return s;
    }
    if (Status s = norm(base + "norm2", &layer.norm2_gamma, &layer.norm2_beta);
        !s.ok()) {
      return s;
    }
  }
  if (Status s = linear("head", d, cfg.num_classes, &model->head_); !s.ok()) {
    return s;
  }
  return model;
}

Tensor QuantizedClassifier::Logits(const text::EncodedBatch& batch) const {
  const int64_t b = batch.batch;
  const int64_t t = batch.max_len;
  const int64_t d = config_.dim;
  const int64_t h = config_.num_heads;
  const int64_t dh = d / h;
  const int64_t f = config_.ffn_dim;
  const int64_t n = b * t;
  ROTOM_CHECK_EQ(static_cast<int64_t>(batch.ids.size()), n);
  ROTOM_CHECK_EQ(batch.mask.size(0), b);
  ROTOM_CHECK_EQ(batch.mask.size(1), t);

  // Encode-time flags ride along in the batch; recompute only when a caller
  // cleared them (mirrors TransformerClassifier::EncodeClsEncoded).
  std::vector<int64_t> computed_flags;
  const std::vector<int64_t>* flags = &batch.flags;
  if (batch.flags.empty()) {
    computed_flags = text::ComputeOverlapFlags(batch.ids, b, t);
    flags = &computed_flags;
  }
  ROTOM_CHECK_EQ(flags->size(), batch.ids.size());

  // Every scratch buffer below is written in full before it is read, so it
  // comes from the tensor buffer pool without the zero fill; the pool also
  // recycles it across calls.

  // Embedding sum: token + position (broadcast over the batch) + overlap
  // flag, then the embedding layer norm. All f32 gathers — see the header
  // for why embeddings are never quantized.
  Tensor x = Tensor::Uninitialized({n * d});
  {
    const float* tok = token_emb_.data();
    const float* pos = pos_emb_.data();
    const float* flg = flag_emb_.data();
    const int64_t* ids = batch.ids.data();
    const int64_t* fl = flags->data();
    float* xp = x.data();
    kernels::ParallelRows(n, 3 * d, [&](int64_t r) {
      ROTOM_CHECK_GE(ids[r], 0);
      ROTOM_CHECK_LT(ids[r], token_emb_.size(0));
      const float* trow = tok + ids[r] * d;
      const float* prow = pos + (r % t) * d;
      const float* frow = flg + (fl[r] & 1) * d;
      float* row = xp + r * d;
      for (int64_t j = 0; j < d; ++j) row[j] = trow[j] + prow[j] + frow[j];
    });
  }

  // Scratch shared across layers. The layer-norm kernel also emits xhat and
  // inv_std (backward-pass byproducts); they are dead here but cheap.
  Tensor y = Tensor::Uninitialized({n * d});
  Tensor xhat = Tensor::Uninitialized({n * d});
  Tensor inv_std = Tensor::Uninitialized({n});
  kernels::LayerNormRows(x.data(), emb_norm_gamma_.data(),
                         emb_norm_beta_.data(), kLayerNormEps, y.data(),
                         xhat.data(), inv_std.data(), n, d);
  std::swap(x, y);

  // key_bias[b,s]: 0 where attendable, -1e9 where padded (MaskToAttentionBias).
  Tensor key_bias = Tensor::Uninitialized({n});
  {
    const float* mask = batch.mask.data();
    float* kb = key_bias.data();
    for (int64_t i = 0; i < n; ++i) kb[i] = mask[i] > 0.5f ? 0.0f : -1e9f;
  }

  Tensor proj = Tensor::Uninitialized({n * d});
  Tensor heads_a = Tensor::Uninitialized({n * d});
  Tensor heads_b = Tensor::Uninitialized({n * d});
  Tensor heads_c = Tensor::Uninitialized({n * d});
  Tensor scores = Tensor::Uninitialized({b * h * t * t});
  Tensor hidden = Tensor::Uninitialized({n * f});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  // [B,T,d] row-major -> per-(batch, head) contiguous [B*H, T, dh] slices so
  // the attention GEMMs run as one batched call.
  auto split_heads = [&](const float* src, float* dst) {
    kernels::ParallelRows(n, d, [&](int64_t r) {
      const int64_t bi = r / t, ti = r % t;
      for (int64_t hi = 0; hi < h; ++hi) {
        std::memcpy(dst + ((bi * h + hi) * t + ti) * dh,
                    src + r * d + hi * dh,
                    sizeof(float) * static_cast<size_t>(dh));
      }
    });
  };

  for (const Layer& layer : layers_) {
    // Attention: int8 q/k/v projections, f32 score/context GEMMs (the
    // activations-by-activations products have no pre-quantized operand),
    // int8 output projection.
    layer.q.Apply(x.data(), proj.data(), n);
    split_heads(proj.data(), heads_a.data());
    layer.k.Apply(x.data(), proj.data(), n);
    split_heads(proj.data(), heads_b.data());
    layer.v.Apply(x.data(), proj.data(), n);
    split_heads(proj.data(), heads_c.data());

    kernels::BatchedGemmABT(heads_a.data(), heads_b.data(), scores.data(),
                            b * h, t, dh, t, t * dh,
                            kernels::OutputMode::kWrite);
    {
      float* sp = scores.data();
      const float* kb = key_bias.data();
      kernels::ParallelRows(b * h * t, 2 * t, [&](int64_t r) {
        const float* brow = kb + (r / (h * t)) * t;
        float* row = sp + r * t;
        for (int64_t j = 0; j < t; ++j) row[j] = row[j] * scale + brow[j];
      });
    }
    kernels::SoftmaxRows(scores.data(), scores.data(), b * h * t, t);

    kernels::BatchedGemmAB(scores.data(), heads_c.data(), heads_a.data(),
                           b * h, t, t, dh, t * dh,
                           kernels::OutputMode::kWrite);
    {  // merge heads: [B*H, T, dh] -> [B*T, d]
      const float* src = heads_a.data();
      float* dst = heads_b.data();
      kernels::ParallelRows(n, d, [&](int64_t r) {
        const int64_t bi = r / t, ti = r % t;
        for (int64_t hi = 0; hi < h; ++hi) {
          std::memcpy(dst + r * d + hi * dh,
                      src + ((bi * h + hi) * t + ti) * dh,
                      sizeof(float) * static_cast<size_t>(dh));
        }
      });
    }
    layer.out.Apply(heads_b.data(), proj.data(), n);

    // h = norm1(x + attn_out)
    kernels::ZipMap(x.data(), proj.data(), y.data(), n * d,
                    [](float a, float v) { return a + v; });
    kernels::LayerNormRows(y.data(), layer.norm1_gamma.data(),
                           layer.norm1_beta.data(), kLayerNormEps, x.data(),
                           xhat.data(), inv_std.data(), n, d);

    // x = norm2(h + ffn(h)) with ffn = out(gelu(in(h)))
    layer.ffn_in.Apply(x.data(), hidden.data(), n);
    // The GELU kernel ops::Gelu runs: the quantized path applies the
    // identical nonlinearity, so the parity budget goes to quantization.
    kernels::GeluForward(hidden.data(), hidden.data(), n * f);
    layer.ffn_out.Apply(hidden.data(), proj.data(), n);
    kernels::ZipMap(x.data(), proj.data(), y.data(), n * d,
                    [](float a, float v) { return a + v; });
    kernels::LayerNormRows(y.data(), layer.norm2_gamma.data(),
                           layer.norm2_beta.data(), kLayerNormEps, x.data(),
                           xhat.data(), inv_std.data(), n, d);
  }

  // CLS rows (t == 0) -> head.
  Tensor cls = Tensor::Uninitialized({b * d});
  for (int64_t bi = 0; bi < b; ++bi) {
    std::memcpy(cls.data() + bi * d, x.data() + bi * t * d,
                sizeof(float) * static_cast<size_t>(d));
  }
  Tensor logits = Tensor::Uninitialized({b, config_.num_classes});
  head_.Apply(cls.data(), logits.data(), b);
  return logits;
}

}  // namespace serve
}  // namespace rotom
