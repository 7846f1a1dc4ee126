#include "nn/layers.h"

#include <cmath>

namespace rotom {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               bool with_bias)
    : in_features_(in_features),
      out_features_(out_features),
      with_bias_(with_bias) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = RegisterParameter(
      "weight", Tensor::RandUniform({in_features, out_features}, rng, -bound,
                                    bound));
  if (with_bias_) {
    bias_ = RegisterParameter("bias", Tensor({out_features}));
  }
}

Variable Linear::Forward(const Variable& x) const {
  ROTOM_CHECK_EQ(x.value().size(-1), in_features_);
  if (int8()) {
    ROTOM_CHECK_MSG(NoGradGuard::Active(),
                    "an int8 Linear runs under a NoGradGuard only");
    std::vector<int64_t> shape = x.value().shape();
    shape.back() = out_features_;
    Tensor y = Tensor::Uninitialized(std::move(shape));  // QLinear writes all
    quant::QLinear(x.value().data(), qweight_, row_sums_.data(),
                   with_bias_ ? bias_.value().data() : nullptr, y.data(),
                   x.value().size() / in_features_);
    return Variable(std::move(y));
  }
  // Flatten leading dims so MatMul runs one 2-D GEMM.
  const auto orig = x.value().shape();
  Variable flat =
      orig.size() == 2 ? x : ops::Reshape(x, {-1, in_features_});
  Variable y = ops::MatMul(flat, weight_);
  if (with_bias_) y = ops::Add(y, bias_);
  if (orig.size() == 2) return y;
  std::vector<int64_t> out_shape(orig.begin(), orig.end() - 1);
  out_shape.push_back(out_features_);
  return ops::Reshape(y, std::move(out_shape));
}

void Linear::SetInt8Weight(quant::QuantizedTensor weight_t) {
  ROTOM_CHECK_EQ(weight_t.rows, out_features_);
  ROTOM_CHECK_EQ(weight_t.cols, in_features_);
  row_sums_ = quant::RowSums(weight_t);
  qweight_ = std::move(weight_t);
  weight_.value() = Tensor();
}

EmbeddingLayer::EmbeddingLayer(int64_t vocab_size, int64_t dim, Rng& rng)
    : vocab_size_(vocab_size), dim_(dim) {
  weight_ = RegisterParameter("weight",
                              Tensor::Randn({vocab_size, dim}, rng, 0.02f));
}

Variable EmbeddingLayer::Forward(const std::vector<int64_t>& ids) const {
  return ops::Embedding(weight_, ids);
}

LayerNormLayer::LayerNormLayer(int64_t dim) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({dim}));
  beta_ = RegisterParameter("beta", Tensor({dim}));
}

FeedForward::FeedForward(int64_t dim, int64_t hidden_dim, Rng& rng)
    : in_(dim, hidden_dim, rng), out_(hidden_dim, dim, rng) {
  RegisterSubmodule("in", &in_);
  RegisterSubmodule("out", &out_);
}

}  // namespace nn
}  // namespace rotom
