#include "eval/metrics.h"

#include <algorithm>

#include "obs/trace.h"
#include "tensor/kernels.h"
#include "tensor/variable.h"
#include "util/check.h"

namespace rotom {
namespace eval {

double Accuracy(const std::vector<int64_t>& predictions,
                const std::vector<int64_t>& labels) {
  ROTOM_CHECK_EQ(predictions.size(), labels.size());
  if (predictions.empty()) return 0.0;
  int64_t correct = 0;
  for (size_t i = 0; i < predictions.size(); ++i)
    correct += predictions[i] == labels[i];
  return static_cast<double>(correct) / static_cast<double>(predictions.size());
}

Prf BinaryPrf(const std::vector<int64_t>& predictions,
              const std::vector<int64_t>& labels) {
  ROTOM_CHECK_EQ(predictions.size(), labels.size());
  int64_t tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == 1 && labels[i] == 1) ++tp;
    if (predictions[i] == 1 && labels[i] == 0) ++fp;
    if (predictions[i] == 0 && labels[i] == 1) ++fn;
  }
  Prf out;
  out.precision = tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
  out.recall = tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
  out.f1 = out.precision + out.recall > 0.0
               ? 2.0 * out.precision * out.recall /
                     (out.precision + out.recall)
               : 0.0;
  return out;
}

double EvaluateModel(models::TransformerClassifier& model,
                     const std::vector<data::Example>& examples,
                     MetricKind metric, int64_t batch_size) {
  return EvaluateModel(model, examples, metric, /*cache=*/nullptr,
                       batch_size);
}

double EvaluateModel(models::TransformerClassifier& model,
                     const std::vector<data::Example>& examples,
                     MetricKind metric, text::EncodingCache* cache,
                     int64_t batch_size) {
  if (examples.empty()) return 0.0;
  ROTOM_TRACE_SPAN("eval.model");
  const bool was_training = model.training();
  model.SetTraining(false);
  Rng rng(0);  // eval forward ignores randomness (no dropout)
  NoGradGuard no_grad;  // scoring never backpropagates

  std::vector<int64_t> predictions;
  std::vector<int64_t> labels;
  predictions.reserve(examples.size());
  for (size_t begin = 0; begin < examples.size();
       begin += static_cast<size_t>(batch_size)) {
    const size_t end =
        std::min(begin + static_cast<size_t>(batch_size), examples.size());
    std::vector<std::string> texts;
    for (size_t i = begin; i < end; ++i) {
      texts.push_back(examples[i].text);
      labels.push_back(examples[i].label);
    }
    std::vector<int64_t> batch_preds;
    if (cache != nullptr) {
      const Tensor probs = model.PredictProbsEncoded(
          text::AssembleEncodedBatch(*cache, texts), rng);
      const int64_t c = probs.size(-1);
      batch_preds.resize(texts.size());
      for (size_t i = 0; i < texts.size(); ++i) {
        batch_preds[i] = kernels::RowArgmax(
            probs.data() + static_cast<int64_t>(i) * c, c);
      }
    } else {
      batch_preds = model.Predict(texts, rng);
    }
    predictions.insert(predictions.end(), batch_preds.begin(),
                       batch_preds.end());
  }
  model.SetTraining(was_training);

  const double score = metric == MetricKind::kAccuracy
                           ? Accuracy(predictions, labels)
                           : BinaryPrf(predictions, labels).f1;
  return 100.0 * score;
}

}  // namespace eval
}  // namespace rotom
