#ifndef ROTOM_CORE_FINETUNE_H_
#define ROTOM_CORE_FINETUNE_H_

#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/train_loop.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "models/classifier.h"

namespace rotom {
namespace core {

/// Produces one augmented variant of a text (simple DA op, InvDA sample,
/// ...). May return the input unchanged. Augmenters run on the training
/// loop's prefetch thread, concurrently with the step on the calling
/// thread, and get their own Rng stream per pulled example: they must not
/// mutate state the caller reads without synchronization.
using TextAugmenter = std::function<std::string(const std::string&, Rng&)>;

/// How augmented examples enter plain fine-tuning:
///  - kNone:    no augmentation (the paper's LM baseline);
///  - kReplace: each pass trains on freshly augmented versions of every
///              example (the paper's InvDA rows, and the classic EDA recipe);
///  - kMixDa:   interpolates the LM representations of the original and the
///              augmented sequence with lambda ~ Beta (the MixDA rows [58]).
enum class AugMode { kNone, kReplace, kMixDa };

struct FinetuneOptions {
  int64_t epochs = 10;
  int64_t batch_size = 16;
  float lr = 1e-3f;
  AugMode aug_mode = AugMode::kNone;
  double mixda_alpha = 0.8;
  uint64_t seed = 1;
  PipelineOptions pipeline;
};

/// Standard fine-tuning with per-epoch checkpoint selection on the
/// validation metric (paper Section 6.1). The best checkpoint is restored
/// into the model before returning.
class FinetuneTrainer {
 public:
  FinetuneTrainer(models::TransformerClassifier* model,
                  eval::MetricKind metric, FinetuneOptions options);

  /// Trains on ds.train; `augmenter` is required for kReplace/kMixDa.
  TrainResult Train(const data::TaskDataset& ds,
                    const TextAugmenter& augmenter = nullptr);

 private:
  models::TransformerClassifier* model_;
  eval::MetricKind metric_;
  FinetuneOptions options_;
};

}  // namespace core
}  // namespace rotom

#endif  // ROTOM_CORE_FINETUNE_H_
