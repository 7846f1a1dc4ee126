#ifndef ROTOM_CORE_ROTOM_TRAINER_H_
#define ROTOM_CORE_ROTOM_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/filtering.h"
#include "core/finetune.h"
#include "core/weighting.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "models/classifier.h"

namespace rotom {
namespace core {

/// Options for the meta-learning trainer (paper Algorithm 2 + Section 5).
struct RotomOptions {
  int64_t epochs = 8;
  int64_t batch_size = 16;
  float lr = 1e-3f;       // target-model learning rate; also the virtual
                          // step size eta in Algorithm 2 line 8
  float meta_lr = 1e-3f;  // weighting model learning rate
  // Filter learning rate; the filter is a 2x(2|V|)-parameter perceptron and
  // tolerates a much larger step than the weighting LM. 0 = use meta_lr.
  float filter_lr = 1e-2f;
  float epsilon = 0.01f;  // finite-difference constant (normalized by the
                          // validation-gradient norm, as in DARTS [52])

  // Ablation knobs (all on = full Rotom).
  bool use_filtering = true;
  bool use_weighting = true;
  bool use_l2_term = true;        // the ||p_M(x_hat) - y||_2 term of Eq. 2
  bool include_original = true;   // original examples join the candidates
  // By default original (unaugmented) training examples bypass the filter
  // (Section 4.1 defines M_F over augmented examples). The label-cleaning
  // extension of Section 8 flips this so the meta models arbitrate the
  // original, possibly mislabeled, examples too.
  bool filter_originals = false;
  int64_t augments_per_example = 2;

  // Semi-supervised extension (Section 5).
  bool use_ssl = false;
  double sharpen_temperature = 0.5;  // sharpen_v1 T
  double pseudo_threshold = 0.8;     // sharpen_v2 theta
  int64_t max_unlabeled = 10000;     // paper: at most 10k unlabeled examples
  // Stability guards for the small-model regime: skip SSL during the first
  // epochs (guesses from a cold model are noise) and cap the share of any
  // single guessed class within an SSL batch (pseudo-labeling on imbalanced
  // tasks otherwise collapses to the majority class).
  int64_t ssl_warmup_epochs = 1;
  double ssl_class_cap = 0.7;
  /// Unlabeled examples drawn per batch, as a fraction of batch_size (the
  /// paper uses 1.0; benches reduce it to trade SSL signal for wall time).
  double ssl_batch_ratio = 1.0;

  /// Run Algorithm 2's phase 2 (the meta update of M_F/M_W) every k-th
  /// batch. 1 reproduces the paper exactly; benches may use 2 to halve the
  /// meta overhead with nearly identical learning dynamics.
  int64_t meta_update_every = 1;

  uint64_t seed = 1;

  /// Data-path configuration (encoding cache + background prefetch). Pure
  /// performance knobs: every combination yields bit-identical training.
  PipelineOptions pipeline;
};

/// Produces augmented candidate texts for one original text (simple DA ops,
/// InvDA samples, or a mix — the trainer is agnostic; paper Section 4 trains
/// on the union of all operators' outputs). Candidate generation runs on
/// the training loop's prefetch thread (core/train_loop.h), one call per
/// pulled example with its own Rng stream keyed by the source draw; with
/// use_ssl the step also calls it on the calling thread for unlabeled
/// texts. Generators must therefore be safe to call concurrently: read-only
/// access to captured state, or synchronized mutation.
using CandidateGenerator =
    std::function<std::vector<std::string>(const std::string&, Rng&)>;

/// An augmented candidate carrying the id of the operator that produced it
/// — an augment::Operator::name() ("token_del", "span_shuffle", ...; see
/// augment/registry.h) or a source tag like "invda". The trainer
/// aggregates, per optimizer step, how many candidates each operator
/// offered and how many survived filtering, recorded as the `gen.<name>`
/// and `op.<name>` fields of the run log's step events (obs/runlog.h):
/// the per-operator keep rate is the most direct view of what the
/// filtering policy learned. An empty `op` is allowed and simply not
/// counted.
struct TaggedCandidate {
  std::string text;
  std::string op;
};

/// Tagged variant of CandidateGenerator; same concurrency contract.
using TaggedCandidateGenerator =
    std::function<std::vector<TaggedCandidate>(const std::string&, Rng&)>;

/// Rotom's meta-learning trainer: jointly optimizes the target model, the
/// filtering model M_F, and the weighting model M_W by alternating Algorithm
/// 2's two phases. With use_ssl it additionally consumes unlabeled data via
/// consistency regularization with sharpened guessed labels.
class RotomTrainer {
 public:
  RotomTrainer(models::TransformerClassifier* model, eval::MetricKind metric,
               RotomOptions options);

  /// Runs meta-training; `candidates` supplies augmented variants. The
  /// untagged overload forwards with empty operator tags (run-log step
  /// events then carry no `op.<name>` counts).
  TrainResult Train(const data::TaskDataset& ds,
                    const CandidateGenerator& candidates);
  TrainResult Train(const data::TaskDataset& ds,
                    const TaggedCandidateGenerator& candidates);

  const FilteringModel& filtering_model() const { return *filtering_; }
  const WeightingModel& weighting_model() const { return *weighting_; }

  /// Fraction of augmented examples the filter kept, averaged over the last
  /// validation round (diagnostic).
  double last_keep_fraction() const { return last_keep_fraction_; }

 private:
  models::TransformerClassifier* model_;
  eval::MetricKind metric_;
  RotomOptions options_;
  std::unique_ptr<FilteringModel> filtering_;
  std::unique_ptr<WeightingModel> weighting_;
  double last_keep_fraction_ = 1.0;
};

}  // namespace core
}  // namespace rotom

#endif  // ROTOM_CORE_ROTOM_TRAINER_H_
