#include "core/rotom_trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/ssl.h"
#include "core/train_loop.h"
#include "nn/optim.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace rotom {
namespace core {

namespace {

// One prefetched training batch of (original, augmented, label) tuples:
// each pulled example with its candidates, plus the joint encoding of
// [originals; augmented] (2B rows) that feeds the fused meta-feature pass.
// A pure function of the pulled examples and the encoding cache, so it is
// materialized on the prefetch thread while the previous step trains.
struct CandidateBatch {
  std::vector<std::string> aug_texts;
  std::vector<std::string> ops;  // operator tags ("" = untagged)
  std::vector<int64_t> labels;
  std::vector<bool> is_original;  // untouched examples bypass the filter
  text::EncodedBatch joint;  // rows [0,B) originals, rows [B,2B) augmented
};

std::vector<Tensor> CloneValues(const std::vector<Variable>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) out.push_back(p.value().Clone());
  return out;
}

// Clones gradients; parameters that received no gradient contribute zeros.
std::vector<Tensor> CloneGrads(const std::vector<Variable>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) {
    out.push_back(p.has_grad() ? p.grad().Clone()
                               : Tensor(p.value().shape()));
  }
  return out;
}

void SetValues(const std::vector<Variable>& params,
               const std::vector<Tensor>& values) {
  ROTOM_CHECK_EQ(params.size(), values.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const_cast<Variable&>(params[i]).value().CopyFrom(values[i]);
  }
}

// params := base + alpha * delta.
void SetValuesOffset(const std::vector<Variable>& params,
                     const std::vector<Tensor>& base,
                     const std::vector<Tensor>& delta, float alpha) {
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor& v = const_cast<Variable&>(params[i]).value();
    v.CopyFrom(base[i]);
    v.AddScaled(delta[i], alpha);
  }
}

float GlobalNorm(const std::vector<Tensor>& tensors) {
  double acc = 0.0;
  for (const auto& t : tensors) {
    const float n = t.Norm();
    acc += static_cast<double>(n) * n;
  }
  return static_cast<float>(std::sqrt(acc));
}

// Copies rows [row_begin, row_begin + rows) of `src` [N, C] into a fresh
// [rows, C] tensor (splits the fused 2B-row probability pass back into the
// per-view tensors the feature computation expects).
Tensor SliceRows(const Tensor& src, int64_t row_begin, int64_t rows) {
  const int64_t c = src.size(-1);
  Tensor out({rows, c});
  std::memcpy(out.data(), src.data() + row_begin * c,
              sizeof(float) * static_cast<size_t>(rows * c));
  return out;
}

}  // namespace

RotomTrainer::RotomTrainer(models::TransformerClassifier* model,
                           eval::MetricKind metric, RotomOptions options)
    : model_(model), metric_(metric), options_(options) {
  ROTOM_CHECK(model != nullptr);
}

TrainResult RotomTrainer::Train(const data::TaskDataset& ds,
                                const CandidateGenerator& candidates) {
  ROTOM_CHECK(candidates != nullptr);
  return Train(ds, TaggedCandidateGenerator(
                       [&candidates](const std::string& text, Rng& rng) {
                         std::vector<TaggedCandidate> out;
                         for (auto& aug : candidates(text, rng)) {
                           out.push_back({std::move(aug), std::string()});
                         }
                         return out;
                       }));
}

TrainResult RotomTrainer::Train(const data::TaskDataset& ds,
                                const TaggedCandidateGenerator& candidates) {
  ROTOM_CHECK(!ds.valid.empty());
  ROTOM_CHECK(candidates != nullptr);
  ROTOM_TRACE_SPAN("rotom.train");

  // One cache for the whole run: originals and validation texts are encoded
  // exactly once, augmented candidates are encoded once by the prefetcher
  // and hit again when the kept subset re-enters the training loss.
  const auto cache = MakeEncodingCache(options_.pipeline, &model_->vocab(),
                                       model_->config().max_len);
  auto runlog = obs::RunLog::Open({options_.pipeline.runlog_dir, "rotom"});
  // Originals pulled per batch so that originals + augmented candidates
  // fill roughly batch_size tuples.
  const int64_t tuples_per_pull =
      options_.augments_per_example + (options_.include_original ? 1 : 0);
  TrainLoop loop({model_, metric_, &ds, &options_.pipeline, cache.get(),
                  runlog.get(), options_.epochs,
                  std::max<int64_t>(1, options_.batch_size /
                                           std::max<int64_t>(1, tuples_per_pull)),
                  options_.seed});

  // Meta models are created lazily here so they share the task vocabulary.
  Rng init_rng(options_.seed * 31 + 7);
  filtering_ = std::make_unique<FilteringModel>(
      model_->config().num_classes, init_rng);
  weighting_ = std::make_unique<WeightingModel>(model_->config(),
                                                model_->vocab_ptr(), init_rng);
  // The weighting model runs deterministically (no dropout): a meta step
  // reuses its phase-1 graph for both finite-difference passes.
  weighting_->SetTraining(false);

  nn::Adam opt_model(model_->Parameters(), options_.lr);
  nn::Adam opt_filter(filtering_->Parameters(),
                      options_.filter_lr > 0.0f ? options_.filter_lr
                                                : options_.meta_lr);
  nn::Adam opt_weight(weighting_->Parameters(), options_.meta_lr);

  const std::vector<Variable> model_params = model_->Parameters();
  const int64_t num_classes = model_->config().num_classes;

  if (runlog) {
    obs::RunLogManifest manifest;
    manifest.Set("trainer", "rotom")
        .Set("epochs", options_.epochs)
        .Set("batch_size", options_.batch_size)
        .Set("lr", static_cast<double>(options_.lr))
        .Set("meta_lr", static_cast<double>(options_.meta_lr))
        .Set("filter_lr", static_cast<double>(options_.filter_lr))
        .Set("epsilon", static_cast<double>(options_.epsilon))
        .Set("use_filtering", options_.use_filtering)
        .Set("use_weighting", options_.use_weighting)
        .Set("use_ssl", options_.use_ssl)
        .Set("include_original", options_.include_original)
        .Set("augments_per_example", options_.augments_per_example)
        .Set("meta_update_every", options_.meta_update_every)
        .Set("seed", static_cast<int64_t>(options_.seed))
        .Set("threads", static_cast<int64_t>(ComputeThreads()))
        .Set("train_examples", static_cast<int64_t>(ds.train.size()))
        .Set("valid_examples", static_cast<int64_t>(ds.valid.size()))
        .Set("unlabeled_examples", static_cast<int64_t>(ds.unlabeled.size()))
        .Set("num_classes", model_->config().num_classes);
    loop.AnnotateManifest(&manifest);
    runlog->WriteManifest(manifest);
  }

  std::vector<std::string> unlabeled = ds.unlabeled;
  if (static_cast<int64_t>(unlabeled.size()) > options_.max_unlabeled) {
    Rng rng(options_.seed);
    rng.Shuffle(unlabeled);
    unlabeled.resize(options_.max_unlabeled);
  }
  const bool ssl_active = options_.use_ssl && !unlabeled.empty();

  size_t valid_cursor = 0;
  // Moving-average baseline for the REINFORCE estimator (standard variance
  // reduction for Eq. 3; without it the always-positive validation loss
  // uniformly crushes keep probabilities).
  double reward_baseline = 0.0;
  bool baseline_ready = false;
  // Filter accounting of the current validation round (last_keep_fraction_
  // is its aggregate).
  int64_t kept_count = 0, total_count = 0;

  TrainerParts<CandidateBatch> parts;
  // Prefetch thread: each pulled example followed by its candidates, then
  // the joint encoding.
  parts.produce = [&](std::vector<PulledExample> pulled) {
    CandidateBatch batch;
    std::vector<std::string> joint_texts;
    auto add = [&](const data::Example& example, std::string text,
                   std::string op, bool is_original) {
      joint_texts.push_back(example.text);
      batch.aug_texts.push_back(std::move(text));
      batch.ops.push_back(std::move(op));
      batch.labels.push_back(example.label);
      batch.is_original.push_back(is_original);
    };
    for (auto& [example, rng] : pulled) {
      auto augs = candidates(example.text, rng);
      if (static_cast<int64_t>(augs.size()) > options_.augments_per_example)
        augs.resize(options_.augments_per_example);
      if (options_.include_original)
        add(example, example.text, "original", true);
      for (auto& aug : augs)
        add(example, std::move(aug.text), std::move(aug.op), false);
    }
    joint_texts.insert(joint_texts.end(), batch.aug_texts.begin(),
                       batch.aug_texts.end());
    batch.joint = text::AssembleEncodedBatch(*cache, joint_texts);
    return batch;
  };

  // ---- One optimizer step: Algorithm 2 phases 1 and 2. ----
  parts.step = [&](CandidateBatch batch, const StepInfo& info, Rng& rng) {
    const int64_t b = static_cast<int64_t>(batch.labels.size());
    const std::vector<int64_t>& labels = batch.labels;
    const std::vector<bool>& is_original = batch.is_original;

    // ---- Fused inference pass for the meta features (no graph; the
    // deterministic eval-mode predictions of the CURRENT model). The
    // original and augmented views ride in one 2B-row forward — rows are
    // independent in eval mode, so the halves match the two separate
    // passes bit-for-bit at half the dispatch cost. ----
    model_->SetTraining(false);
    Tensor probs_aug, features;
    std::vector<bool> decisions(b, true);
    {
      ROTOM_TRACE_SPAN("rotom.meta_forward");
      Tensor probs_orig;
      {
        NoGradGuard guard;
        const Tensor probs_joint =
            model_->PredictProbsEncoded(batch.joint, rng);
        probs_orig = SliceRows(probs_joint, 0, b);
        probs_aug = SliceRows(probs_joint, b, b);
      }
      features =
          FilteringModel::ComputeFeatures(probs_orig, probs_aug, labels);

      if (options_.use_filtering) {
        Tensor keep_probs;
        {
          NoGradGuard guard;
          keep_probs = filtering_->Forward(features).value();
        }
        decisions = FilteringModel::SampleDecisions(keep_probs, rng);
        // Original (unaugmented) training examples are trusted: the filter
        // only arbitrates augmented candidates (paper Section 4.1 defines
        // M_F over augmented examples). The label-cleaning extension
        // (Section 8) opts originals back in via filter_originals.
        if (!options_.filter_originals) {
          for (int64_t i = 0; i < b; ++i) {
            if (is_original[i]) decisions[i] = true;
          }
        }
        if (std::none_of(decisions.begin(), decisions.end(),
                         [](bool d) { return d; })) {
          // Avoid an empty batch (paper refills over-filtered batches).
          decisions.assign(b, true);
        }
      }
    }
    std::vector<std::string> kept_texts;
    std::vector<int64_t> kept_labels;
    std::vector<int64_t> kept_rows;
    for (int64_t i = 0; i < b; ++i) {
      if (!decisions[i]) continue;
      kept_texts.push_back(batch.aug_texts[i]);
      kept_labels.push_back(labels[i]);
      kept_rows.push_back(i);
    }
    kept_count += static_cast<int64_t>(kept_rows.size());
    total_count += b;

    // ---- Optional SSL batch (Section 5): guessed labels, no filter. ----
    std::vector<std::string> ssl_texts;
    Tensor ssl_targets;
    if (ssl_active && info.round >= options_.ssl_warmup_epochs) {
      ROTOM_TRACE_SPAN("rotom.ssl");
      std::vector<std::string> pool;
      const int64_t ssl_pool_size = std::max<int64_t>(
          2, static_cast<int64_t>(options_.ssl_batch_ratio *
                                  static_cast<double>(options_.batch_size)));
      for (int64_t i = 0; i < ssl_pool_size; ++i) {
        pool.push_back(
            unlabeled[rng.UniformInt(static_cast<int64_t>(unlabeled.size()))]);
      }
      Tensor probs_u;
      {
        NoGradGuard guard;
        probs_u = model_->PredictProbsEncoded(
            text::AssembleEncodedBatch(*cache, pool), rng);
      }
      const Tensor sharp_v1 =
          SharpenV1(probs_u, options_.sharpen_temperature);
      const PseudoLabels sharp_v2 =
          SharpenV2(probs_u, options_.pseudo_threshold);
      std::vector<std::vector<float>> target_rows;
      // Class-balance cap: count how many examples of each guessed class
      // (argmax) enter the batch and stop accepting a class past its cap.
      const int64_t class_cap = std::max<int64_t>(
          1, static_cast<int64_t>(options_.ssl_class_cap *
                                  static_cast<double>(pool.size())));
      std::vector<int64_t> class_counts(num_classes, 0);
      for (size_t i = 0; i < pool.size(); ++i) {
        const bool use_v2 = (i % 2 == 1);
        if (use_v2 && !sharp_v2.confident[i]) continue;
        const Tensor& src = use_v2 ? sharp_v2.targets : sharp_v1;
        int64_t guess = 0;
        for (int64_t j = 1; j < num_classes; ++j) {
          if (src.at({static_cast<int64_t>(i), j}) >
              src.at({static_cast<int64_t>(i), guess}))
            guess = j;
        }
        if (class_counts[guess] >= class_cap) continue;
        ++class_counts[guess];
        // Augment the unlabeled sequence for consistency regularization.
        auto augs = candidates(pool[i], rng);
        ssl_texts.push_back(augs.empty() ? pool[i] : augs[0].text);
        std::vector<float> row(num_classes);
        for (int64_t j = 0; j < num_classes; ++j)
          row[j] = src.at({static_cast<int64_t>(i), j});
        target_rows.push_back(std::move(row));
      }
      if (!ssl_texts.empty()) {
        ssl_targets = Tensor(
            {static_cast<int64_t>(ssl_texts.size()), num_classes});
        for (size_t i = 0; i < target_rows.size(); ++i)
          for (int64_t j = 0; j < num_classes; ++j)
            ssl_targets.at({static_cast<int64_t>(i), j}) = target_rows[i][j];
      }
    }
    const int64_t n_ssl = static_cast<int64_t>(ssl_texts.size());
    const int64_t n_all = static_cast<int64_t>(kept_texts.size()) + n_ssl;

    std::vector<std::string> all_texts = kept_texts;
    all_texts.insert(all_texts.end(), ssl_texts.begin(), ssl_texts.end());
    // Encode the meta batch once; the classifier (once per step, plus the
    // two finite-difference passes of a meta step) and the weighting model
    // all read this same EncodedBatch. Kept texts were just encoded by the
    // prefetcher, so these are cache hits.
    const text::EncodedBatch all_batch =
        text::AssembleEncodedBatch(*cache, all_texts);

    // L2 term of Eq. 2 (constant w.r.t. all gradients). Labeled rows
    // reuse the probs_aug inference pass; only SSL rows need a fresh one.
    Tensor l2({n_all});
    if (options_.use_l2_term) {
      for (int64_t i = 0; i < static_cast<int64_t>(kept_rows.size()); ++i) {
        const int64_t src_row = kept_rows[i];
        double acc = 0.0;
        for (int64_t j = 0; j < num_classes; ++j) {
          const double target = j == kept_labels[i] ? 1.0 : 0.0;
          const double diff = probs_aug.at({src_row, j}) - target;
          acc += diff * diff;
        }
        l2[i] = static_cast<float>(std::sqrt(acc));
      }
      if (n_ssl > 0) {
        NoGradGuard guard;
        const Tensor probs_ssl = model_->PredictProbsEncoded(
            text::AssembleEncodedBatch(*cache, ssl_texts), rng);
        for (int64_t i = 0; i < n_ssl; ++i) {
          const int64_t row = static_cast<int64_t>(kept_rows.size()) + i;
          double acc = 0.0;
          for (int64_t j = 0; j < num_classes; ++j) {
            const double diff = probs_ssl.at({i, j}) - ssl_targets.at({i, j});
            acc += diff * diff;
          }
          l2[row] = static_cast<float>(std::sqrt(acc));
        }
      }
    }
    model_->SetTraining(true);  // inference passes done

    // Phase 2 runs every meta_update_every steps; only then are the
    // parameter snapshots and the M_W graph needed.
    const bool meta_step =
        (options_.use_filtering || options_.use_weighting) &&
        (info.step % std::max<int64_t>(1, options_.meta_update_every) == 0);

    // Per-example training loss of the CURRENT model parameters: hard
    // labels, or one-hot rows plus the SSL guesses as soft targets.
    Tensor soft_targets;
    if (n_ssl > 0) {
      const int64_t n_l = static_cast<int64_t>(kept_texts.size());
      soft_targets = Tensor({n_all, num_classes});
      for (int64_t i = 0; i < n_l; ++i)
        soft_targets.at({i, kept_labels[i]}) = 1.0f;
      for (int64_t i = 0; i < n_ssl; ++i)
        for (int64_t j = 0; j < num_classes; ++j)
          soft_targets.at({n_l + i, j}) = ssl_targets.at({i, j});
    }
    auto train_ce = [&]() -> Variable {
      Variable logits = model_->ForwardLogitsEncoded(all_batch, rng);
      return n_ssl == 0 ? ops::CrossEntropyPerExample(logits, kept_labels)
                        : ops::SoftCrossEntropyPerExample(logits, soft_targets);
    };

    // ---- Phase 1: update the target model (Algorithm 2 lines 5-7). M_W's
    // weights are a constant to the target model, so its graph is built
    // only on meta steps, where phase 2 back-propagates through it. ----
    opt_model.ZeroGrad();
    filtering_->ZeroGrad();
    Variable weights;
    float loss_value = 0.0f;
    {
      Variable loss_train;
      {
        ROTOM_TRACE_SPAN("rotom.forward");
        Variable ce = train_ce();
        if (!options_.use_weighting) {
          weights = Variable(Tensor::Ones({n_all}), false);
        } else if (meta_step) {
          weights = ops::NormalizeMeanOne(
              weighting_->WeightsEncoded(all_batch, l2, rng));
        } else {
          NoGradGuard guard;
          weights = ops::NormalizeMeanOne(
              weighting_->WeightsEncoded(all_batch, l2, rng));
        }
        loss_train = ops::Scale(ops::Dot(ce, weights.Detach()),
                                1.0f / static_cast<float>(n_all));
      }
      ROTOM_TRACE_SPAN("rotom.backward");
      loss_train.Backward();
      loss_value = loss_train.value()[0];
    }
    const float grad_norm = nn::ClipGradNorm(model_params, 5.0f);
    std::vector<Tensor> w_pre, g_train, w_post;
    if (meta_step) {
      w_pre = CloneValues(model_params);
      g_train = CloneGrads(model_params);
    }
    opt_model.Step();
    if (meta_step) w_post = CloneValues(model_params);

    obs::RunLogStep record;
    record.loss = static_cast<double>(loss_value);
    record.lr = static_cast<double>(options_.lr);
    record.grad_norm = static_cast<double>(grad_norm);
    if (runlog) {
      record.keep_rate = static_cast<double>(kept_rows.size()) /
                         static_cast<double>(b);
      const Tensor& step_weights = weights.value();
      if (options_.use_weighting && step_weights.size() > 0) {
        record.has_weights = true;
        double sum = 0.0;
        record.weight_min = record.weight_max = step_weights[0];
        for (int64_t i = 0; i < step_weights.size(); ++i) {
          const double w = static_cast<double>(step_weights[i]);
          record.weight_min = std::min(record.weight_min, w);
          record.weight_max = std::max(record.weight_max, w);
          sum += w;
        }
        record.weight_mean = sum / static_cast<double>(step_weights.size());
      }
      for (int64_t row : kept_rows) {
        const std::string& op = batch.ops[row];
        if (!op.empty()) ++record.op_counts[op];
      }
      for (int64_t i = 0; i < b; ++i) {
        const std::string& op = batch.ops[i];
        if (!op.empty()) ++record.op_offered[op];
      }
    }

    // ---- Phase 2: update M_F and M_W (lines 8-11). ----
    if (meta_step) {
      ROTOM_TRACE_SPAN("rotom.weighting");
      // Virtual step M' = M - eta * grad (line 8).
      SetValuesOffset(model_params, w_pre, g_train, -options_.lr);

      // Validation batch (cycled); the cache makes these re-encodes free
      // after the first cycle through the validation set.
      std::vector<std::string> val_texts;
      std::vector<int64_t> val_labels;
      for (int64_t i = 0; i < options_.batch_size; ++i) {
        const auto& e = ds.valid[valid_cursor % ds.valid.size()];
        ++valid_cursor;
        val_texts.push_back(e.text);
        val_labels.push_back(e.label);
      }
      model_->SetTraining(false);  // deterministic validation pass
      opt_model.ZeroGrad();
      Variable loss_val = ops::CrossEntropyMean(
          model_->ForwardLogitsEncoded(
              text::AssembleEncodedBatch(*cache, val_texts), rng),
          val_labels);
      loss_val.Backward();
      const float val_value = loss_val.value()[0];
      const std::vector<Tensor> v_grad = CloneGrads(model_params);

      if (!baseline_ready) {
        reward_baseline = val_value;
        baseline_ready = true;
      }
      const float advantage =
          static_cast<float>(val_value - reward_baseline);
      reward_baseline = 0.9 * reward_baseline + 0.1 * val_value;

      if (options_.use_filtering) {
        // REINFORCE estimator (Eq. 3) with the moving-average baseline.
        opt_filter.ZeroGrad();
        std::vector<bool> surrogate_decisions = decisions;
        if (!options_.filter_originals) {
          for (int64_t i = 0; i < b; ++i) {
            if (is_original[i]) surrogate_decisions[i] = false;
          }
        }
        Variable surrogate = filtering_->ReinforceSurrogate(
            features, surrogate_decisions, advantage);
        surrogate.Backward();
        opt_filter.Step();
      }

      if (options_.use_weighting) {
        // Finite-difference 2nd-order estimate (Eq. 4), with epsilon
        // normalized by ||grad_val|| as in DARTS [52]. The model is a
        // constant here: the +/- passes need only its per-example losses,
        // and one backward through the phase-1 M_W graph yields the
        // difference of the two M_W gradients (DESIGN.md §4, Algorithm 2).
        const float v_norm = GlobalNorm(v_grad);
        const float eps = options_.epsilon / (v_norm + 1e-8f);
        Tensor ce_plus, ce_minus;
        {
          ROTOM_TRACE_SPAN("rotom.forward");
          NoGradGuard guard;
          SetValuesOffset(model_params, w_pre, v_grad, eps);
          ce_plus = train_ce().value();
          SetValuesOffset(model_params, w_pre, v_grad, -eps);
          ce_minus = train_ce().value();
        }
        opt_weight.ZeroGrad();
        BackpropWeightingMetaGradient(weights, ce_plus, ce_minus, options_.lr,
                                      eps);
        nn::ClipGradNorm(weighting_->Parameters(), 5.0f);
        opt_weight.Step();
      }

      SetValues(model_params, w_post);  // resume from the real update
      opt_model.ZeroGrad();
      model_->SetTraining(true);
    }
    return record;
  };

  parts.end_round = [&] {
    last_keep_fraction_ = total_count > 0
                              ? static_cast<double>(kept_count) /
                                    static_cast<double>(total_count)
                              : 1.0;
    kept_count = 0;
    total_count = 0;
    return last_keep_fraction_;
  };
  parts.save = [&](TrainCheckpoint* ckpt) {
    ckpt->SetInt("valid_cursor", static_cast<int64_t>(valid_cursor));
    ckpt->SetDouble("reward_baseline", reward_baseline);
    ckpt->SetInt("baseline_ready", baseline_ready ? 1 : 0);
    SaveModule(*filtering_, "filter.", ckpt);
    SaveModule(*weighting_, "weight.", ckpt);
    SaveAdam(opt_model, "opt_model.", ckpt);
    SaveAdam(opt_filter, "opt_filter.", ckpt);
    SaveAdam(opt_weight, "opt_weight.", ckpt);
  };
  parts.restore = [&](const TrainCheckpoint& ckpt) -> Status {
    auto cursor = ckpt.GetInt("valid_cursor");
    auto baseline = ckpt.GetDouble("reward_baseline");
    auto ready = ckpt.GetInt("baseline_ready");
    for (const Status* s : {&cursor.status(), &baseline.status(),
                            &ready.status()}) {
      if (!s->ok()) return *s;
    }
    if (cursor.value() < 0)
      return Status::Error("checkpoint valid_cursor is negative");
    Status s = RestoreAdam(ckpt, "opt_model.", &opt_model);
    if (s.ok()) s = RestoreAdam(ckpt, "opt_filter.", &opt_filter);
    if (s.ok()) s = RestoreAdam(ckpt, "opt_weight.", &opt_weight);
    if (s.ok()) s = RestoreModule(ckpt, "filter.", filtering_.get());
    if (s.ok()) s = RestoreModule(ckpt, "weight.", weighting_.get());
    if (!s.ok()) return s;
    valid_cursor = static_cast<size_t>(cursor.value());
    reward_baseline = baseline.value();
    baseline_ready = ready.value() != 0;
    return Status::Ok();
  };
  return loop.Run(parts);
}

}  // namespace core
}  // namespace rotom
