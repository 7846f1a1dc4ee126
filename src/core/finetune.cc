#include "core/finetune.h"

#include <algorithm>
#include <utility>

#include "augment/mixda.h"
#include "nn/optim.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace rotom {
namespace core {

namespace {

// One prefetched training batch: labels plus the encoded views the active
// AugMode consumes (originals for kNone/kMixDa, augmented for
// kReplace/kMixDa). Built entirely from strings + the encoding cache, so it
// can be materialized on the prefetch thread while the previous step trains.
struct FinetuneBatch {
  std::vector<int64_t> labels;
  text::EncodedBatch originals;
  text::EncodedBatch augmented;
};

}  // namespace

FinetuneTrainer::FinetuneTrainer(models::TransformerClassifier* model,
                                 eval::MetricKind metric,
                                 FinetuneOptions options)
    : model_(model), metric_(metric), options_(options) {
  ROTOM_CHECK(model != nullptr);
}

TrainResult FinetuneTrainer::Train(const data::TaskDataset& ds,
                                   const TextAugmenter& augmenter) {
  if (options_.aug_mode != AugMode::kNone) {
    ROTOM_CHECK_MSG(augmenter != nullptr,
                    "augmented modes need a TextAugmenter");
  }
  ROTOM_TRACE_SPAN("finetune.train");
  const auto cache = MakeEncodingCache(options_.pipeline, &model_->vocab(),
                                       model_->config().max_len);
  auto runlog = obs::RunLog::Open({options_.pipeline.runlog_dir, "finetune"});
  TrainLoop loop({model_, metric_, &ds, &options_.pipeline, cache.get(),
                  runlog.get(), options_.epochs,
                  std::max<int64_t>(1, options_.batch_size), options_.seed});
  nn::Adam optimizer(model_->Parameters(), options_.lr);

  if (runlog) {
    obs::RunLogManifest manifest;
    manifest.Set("trainer", "finetune")
        .Set("aug_mode",
             options_.aug_mode == AugMode::kNone      ? "none"
             : options_.aug_mode == AugMode::kReplace ? "replace"
                                                      : "mixda")
        .Set("epochs", options_.epochs)
        .Set("batch_size", options_.batch_size)
        .Set("lr", static_cast<double>(options_.lr))
        .Set("seed", static_cast<int64_t>(options_.seed))
        .Set("threads", static_cast<int64_t>(ComputeThreads()))
        .Set("train_examples", static_cast<int64_t>(ds.train.size()));
    loop.AnnotateManifest(&manifest);
    runlog->WriteManifest(manifest);
  }

  const bool need_originals = options_.aug_mode != AugMode::kReplace;
  const bool need_augmented = options_.aug_mode != AugMode::kNone;

  TrainerParts<FinetuneBatch> parts;
  // Prefetch thread: augment each pulled example under its own Rng, encode.
  parts.produce = [&](std::vector<PulledExample> pulled) {
    FinetuneBatch batch;
    std::vector<std::string> orig_texts, aug_texts;
    for (auto& [example, rng] : pulled) {
      batch.labels.push_back(example.label);
      if (need_originals) orig_texts.push_back(example.text);
      if (need_augmented) aug_texts.push_back(augmenter(example.text, rng));
    }
    if (need_originals)
      batch.originals = text::AssembleEncodedBatch(*cache, orig_texts);
    if (need_augmented)
      batch.augmented = text::AssembleEncodedBatch(*cache, aug_texts);
    return batch;
  };
  parts.step = [&](FinetuneBatch batch, const StepInfo&, Rng& rng) {
    optimizer.ZeroGrad();
    Variable loss;
    {
      ROTOM_TRACE_SPAN("finetune.forward");
      Variable logits;
      switch (options_.aug_mode) {
        case AugMode::kNone:
          logits = model_->ForwardLogitsEncoded(batch.originals, rng);
          break;
        case AugMode::kReplace:
          logits = model_->ForwardLogitsEncoded(batch.augmented, rng);
          break;
        case AugMode::kMixDa: {
          Variable cls_orig = model_->EncodeClsEncoded(batch.originals, rng);
          Variable cls_aug = model_->EncodeClsEncoded(batch.augmented, rng);
          std::vector<double> lambdas(batch.labels.size());
          for (auto& l : lambdas)
            l = augment::MixDaLambda(options_.mixda_alpha, rng);
          Variable mixed = augment::InterpolateRepresentations(
              cls_orig, cls_aug, lambdas);
          logits = model_->HeadLogits(mixed);
          break;
        }
      }
      loss = ops::CrossEntropyMean(logits, batch.labels);
    }
    obs::RunLogStep record;
    {
      ROTOM_TRACE_SPAN("finetune.backward");
      loss.Backward();
      record.grad_norm = nn::ClipGradNorm(optimizer.params(), 5.0f);
      optimizer.Step();
    }
    record.loss = static_cast<double>(loss.value()[0]);
    record.lr = static_cast<double>(options_.lr);
    return record;
  };
  parts.save = [&](TrainCheckpoint* ckpt) {
    SaveAdam(optimizer, "opt_model.", ckpt);
  };
  parts.restore = [&](const TrainCheckpoint& ckpt) {
    return RestoreAdam(ckpt, "opt_model.", &optimizer);
  };
  return loop.Run(parts);
}

}  // namespace core
}  // namespace rotom
