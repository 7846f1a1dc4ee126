#include "serve/session.h"

#include <utility>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/variable.h"

namespace rotom {
namespace serve {

InferenceSession::InferenceSession(
    std::unique_ptr<models::TransformerClassifier> model, bool quantized,
    text::IdfTable idf, const Options& options)
    : model_(std::move(model)),
      quantized_(quantized),
      idf_(std::move(idf)),
      cache_(std::make_unique<text::EncodingCache>(
          &model_->vocab(), model_->config().max_len, options.cache_rows)) {}

StatusOr<std::unique_ptr<InferenceSession>> InferenceSession::Create(
    const Snapshot& snapshot, const Options& options) {
  Precision precision = options.precision;
  if (precision == Precision::kAuto) {
    precision =
        snapshot.qweights.empty() ? Precision::kFloat32 : Precision::kInt8;
  }
  auto model = snapshot.BuildModel(precision == Precision::kInt8);
  if (!model.ok()) return model.status();
  // Private constructor: make_unique cannot reach it.
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(std::move(model).value(),
                           precision == Precision::kInt8, snapshot.idf,
                           options));
}

StatusOr<std::unique_ptr<InferenceSession>> InferenceSession::Open(
    const std::string& path, const Options& options) {
  auto snapshot = Snapshot::Load(path);
  if (!snapshot.ok()) return snapshot.status();
  return Create(snapshot.value(), options);
}

Tensor InferenceSession::Logits(std::span<const std::string> texts) const {
  if (texts.empty()) return Tensor();
  const text::EncodedBatch batch = text::AssembleEncodedBatch(*cache_, texts);
  if (quantized_) {
    // Counts fused int8 forwards, so quantized vs float traffic is visible
    // per process (OBSERVABILITY.md).
    static obs::Counter& quantized_forwards = obs::GetCounter("serve.quantized");
    quantized_forwards.Add();
  }
  // Eval mode consumes no randomness and no-grad builds no graph (which an
  // int8 Linear requires); the Rng is only a signature requirement.
  NoGradGuard guard;
  Rng rng(0);
  return model_->ForwardLogitsEncoded(batch, rng).value();
}

std::vector<Prediction> InferenceSession::PredictBatch(
    std::span<const std::string> texts) const {
  if (texts.empty()) return {};
  const Tensor probs = ops::SoftmaxRows(Logits(texts));
  const int64_t classes = probs.size(-1);
  std::vector<Prediction> out(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    const float* row = probs.data() + static_cast<int64_t>(i) * classes;
    out[i].label = kernels::RowArgmax(row, classes);
    out[i].probs.assign(row, row + classes);
  }
  return out;
}

}  // namespace serve
}  // namespace rotom
