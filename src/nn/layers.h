#ifndef ROTOM_NN_LAYERS_H_
#define ROTOM_NN_LAYERS_H_

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace rotom {
namespace nn {

/// Affine map y = x W + b for inputs of shape [..., in_features].
///
/// A Linear computes in f32 through the autograd ops until SetInt8Weight
/// switches it to int8 for inference: quant::QLinear over the
/// row-quantized W^T (dynamic per-row activation quantization, exact int8
/// GEMM, dequantization plus bias at the layer boundary; DESIGN.md §12).
/// That is how a served model runs int8: the same module tree, the same
/// kernels between the linears.
class Linear : public Module {
 public:
  /// Xavier-uniform initialized weights; zero bias.
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool with_bias = true);

  /// In int8 mode the result is a constant (no graph), and the caller must
  /// hold a NoGradGuard (checked): the int8 weight has no gradient.
  Variable Forward(const Variable& x) const;

  /// Switches this layer to int8 for good. `weight_t` is W^T row-quantized,
  /// [out_features, in_features] (how QuantizeSnapshot stores a Linear
  /// weight). The f32 weight is released: the `weight` parameter stays
  /// registered but empty, so the layer can no longer be trained, exported
  /// or loaded.
  void SetInt8Weight(quant::QuantizedTensor weight_t);
  bool int8() const { return qweight_.rows != 0; }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool with_bias_;
  Variable weight_;  // [in, out]; empty in int8 mode
  Variable bias_;    // [out]
  quant::QuantizedTensor qweight_;  // int8 mode: W^T codes, [out, in]
  std::vector<int32_t> row_sums_;   // int8 mode: quant::RowSums(qweight_)
};

/// Token-id lookup table of shape [vocab, dim].
class EmbeddingLayer : public Module {
 public:
  EmbeddingLayer(int64_t vocab_size, int64_t dim, Rng& rng);

  /// ids flattened row-major; returns [ids.size(), dim]; reshape as needed.
  Variable Forward(const std::vector<int64_t>& ids) const;

  int64_t vocab_size() const { return vocab_size_; }
  int64_t dim() const { return dim_; }
  const Variable& weight() const { return weight_; }

 private:
  int64_t vocab_size_;
  int64_t dim_;
  Variable weight_;
};

/// Layer normalization over the last dimension with learnable gain/bias.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(int64_t dim);

  Variable Forward(const Variable& x) const {
    return ops::LayerNorm(x, gamma_, beta_);
  }

 private:
  Variable gamma_;
  Variable beta_;
};

/// Position-wise feed-forward block: Linear -> GELU -> Linear.
class FeedForward : public Module {
 public:
  FeedForward(int64_t dim, int64_t hidden_dim, Rng& rng);

  Variable Forward(const Variable& x) const {
    return out_.Forward(ops::Gelu(in_.Forward(x)));
  }

 private:
  Linear in_;
  Linear out_;
};

}  // namespace nn
}  // namespace rotom

#endif  // ROTOM_NN_LAYERS_H_
