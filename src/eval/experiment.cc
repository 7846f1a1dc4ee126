#include "eval/experiment.h"

#include <map>
#include <set>

#include "core/finetune.h"
#include "text/tokenizer.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rotom {
namespace eval {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kBaseline: return "Baseline";
    case Method::kMixDa: return "MixDA";
    case Method::kInvDa: return "InvDA";
    case Method::kRotom: return "Rotom";
    case Method::kRotomSsl: return "Rotom+SSL";
  }
  return "?";
}

const std::vector<Method>& AllMethods() {
  static const std::vector<Method>* methods = new std::vector<Method>{
      Method::kBaseline, Method::kMixDa, Method::kInvDa, Method::kRotom,
      Method::kRotomSsl};
  return *methods;
}

std::shared_ptr<text::Vocabulary> BuildTaskVocabulary(
    const data::TaskDataset& dataset, int64_t max_size) {
  // The unlabeled pool keeps its natural value multiplicities (they carry
  // the frequency signal min_count relies on), but labeled texts that are
  // literally drawn from that pool must not be counted twice: double
  // counting would let a one-off corrupted value slip past the min_count
  // filter at train time while its test-time siblings map to [UNK].
  std::set<std::string> in_unlabeled(dataset.unlabeled.begin(),
                                     dataset.unlabeled.end());
  std::vector<std::vector<std::string>> docs;
  for (const auto& t : dataset.unlabeled) docs.push_back(text::Tokenize(t));
  std::set<std::string> added;
  for (const auto& e : dataset.train) {
    if (in_unlabeled.count(e.text) == 0 && added.insert(e.text).second)
      docs.push_back(text::Tokenize(e.text));
  }
  for (const auto& e : dataset.valid) {
    if (in_unlabeled.count(e.text) == 0 && added.insert(e.text).second)
      docs.push_back(text::Tokenize(e.text));
  }
  const bool is_edt = dataset.is_record_task && !dataset.is_pair_task;
  return std::make_shared<text::Vocabulary>(
      text::Vocabulary::BuildFromCorpus(docs, max_size, is_edt ? 2 : 1));
}

TaskContext::TaskContext(data::TaskDataset dataset, ExperimentOptions options)
    : dataset_(std::move(dataset)),
      options_(std::move(options)),
      metric_(dataset_.is_record_task || dataset_.is_pair_task
                  ? MetricKind::kF1
                  : MetricKind::kAccuracy),
      vocab_(BuildTaskVocabulary(dataset_)) {
  options_.classifier.num_classes = dataset_.num_classes;

  std::vector<std::vector<std::string>> docs;
  for (const auto& e : dataset_.train) docs.push_back(text::Tokenize(e.text));
  for (const auto& t : dataset_.unlabeled)
    docs.push_back(text::Tokenize(t));
  idf_ = text::IdfTable::Build(docs);
  aug_context_.idf = &idf_;
  aug_context_.synonyms = &augment::SynonymLexicon::Default();
  task_ops_ = augment::OperatorRegistry::Global().Resolve(
      options_.pipeline.op_set, dataset_.is_pair_task, dataset_.is_record_task);
  const std::string& mixda_name = dataset_.is_pair_task
                                      ? options_.mixda_op_em
                                      : dataset_.is_record_task
                                            ? options_.mixda_op_edt
                                            : options_.mixda_op_textcls;
  mixda_op_ = &augment::OperatorRegistry::Global().Require(mixda_name);
}

void TaskContext::set_pipeline(const core::PipelineOptions& pipeline) {
  options_.pipeline = pipeline;
  // op_set is the one semantic pipeline knob: re-resolve the task's
  // operator set so subsequent runs draw from the new space.
  task_ops_ = augment::OperatorRegistry::Global().Resolve(
      options_.pipeline.op_set, dataset_.is_pair_task, dataset_.is_record_task);
}

namespace {

constexpr const char kPairSep[] = " [SEP] ";

// Splits "left [SEP] right"; returns {text, ""} when unpaired.
std::pair<std::string, std::string> SplitPair(const std::string& text) {
  const size_t pos = text.find(kPairSep);
  if (pos == std::string::npos) return {text, ""};
  return {text.substr(0, pos), text.substr(pos + sizeof(kPairSep) - 1)};
}

// RoundTripBackend over the task's InvDA cache, for the `invda_roundtrip`
// registry operator. Cached-only (InvDa::SampleCached) so it is thread-safe
// from the candidate-generation pool and never pays live seq2seq decoding
// inside a training step; pair inputs rewrite the right-hand record, like
// TaskContext::InvDaSample.
class InvDaRoundTrip final : public augment::RoundTripBackend {
 public:
  InvDaRoundTrip(const invda::InvDa* invda, bool is_pair_task)
      : invda_(invda), is_pair_task_(is_pair_task) {}

  std::string RoundTrip(const std::string& input, Rng& rng) const override {
    if (!is_pair_task_) return invda_->SampleCached(input, rng);
    auto [left, right] = SplitPair(input);
    if (right.empty()) return invda_->SampleCached(left, rng);
    std::string rewritten = invda_->SampleCached(right, rng);
    if (rewritten.empty()) return rewritten;  // uncached -> no-op
    return left + kPairSep + rewritten;
  }

 private:
  const invda::InvDa* invda_;
  bool is_pair_task_;
};

}  // namespace

void TaskContext::EnsurePretrained() {
  if (pretrained_ready_) return;
  Rng rng(0xC0FFEE);
  models::TransformerClassifier model(options_.classifier, vocab_, rng);
  std::vector<std::string> corpus = dataset_.unlabeled;
  for (const auto& e : dataset_.train) corpus.push_back(e.text);
  // One pipeline config (cache/prefetch/runlog_dir) drives every stage.
  models::PretrainOptions pretrain = options_.pretrain;
  pretrain.pipeline = options_.pipeline;
  models::PretrainMaskedLm(model, corpus, rng, pretrain);
  if (dataset_.is_pair_task && options_.same_origin.steps > 0) {
    // EM: add the self-supervised same-origin stage (substitution for the
    // comparison ability a large pre-trained LM brings; DESIGN.md).
    std::vector<std::string> records;
    for (const auto& t : dataset_.unlabeled) {
      auto [left, right] = SplitPair(t);
      records.push_back(std::move(left));
      if (!right.empty()) records.push_back(std::move(right));
    }
    models::SameOriginOptions same_origin = options_.same_origin;
    same_origin.pipeline = options_.pipeline;
    models::PretrainSameOrigin(model, records, rng, same_origin);
  }
  // Only the encoder transfers; the task head is re-initialized per run.
  pretrained_state_ = model.StateDict();
  pretrained_ready_ = true;
}

void TaskContext::EnsureInvDa() {
  if (invda_ != nullptr) return;
  invda_ = std::make_unique<invda::InvDa>(
      options_.seq2seq, vocab_, aug_context_, /*is_pair_task=*/false,
      dataset_.is_record_task, /*seed=*/0xDA7A);
  // For pair tasks the seq2seq model works at single-record granularity
  // (see InvDaSample): shorter sequences, easier reconstruction, and the
  // augmented pair keeps a pristine left record to compare against.
  std::vector<std::string> corpus;
  std::vector<std::string> inputs;
  if (dataset_.is_pair_task) {
    for (const auto& t : dataset_.unlabeled) {
      auto [left, right] = SplitPair(t);
      corpus.push_back(std::move(left));
      if (!right.empty()) corpus.push_back(std::move(right));
    }
    for (const auto& e : dataset_.train) {
      auto [left, right] = SplitPair(e.text);
      inputs.push_back(right.empty() ? left : right);
    }
  } else {
    corpus = dataset_.unlabeled;
    for (const auto& e : dataset_.train) inputs.push_back(e.text);
  }
  invda::InvDaOptions invda_options = options_.invda;
  invda_options.pipeline = options_.pipeline;
  invda_->Train(corpus, invda_options);
  invda_->PrecomputeCache(inputs, invda_options);
  // From here on round-trip operators in the resolved set (if any) can
  // sample the cache.
  round_trip_ =
      std::make_unique<InvDaRoundTrip>(invda_.get(), dataset_.is_pair_task);
  aug_context_.round_trip = round_trip_.get();
}

std::string TaskContext::InvDaSample(const std::string& input, Rng& rng) {
  if (!dataset_.is_pair_task) return invda_->Sample(input, rng);
  auto [left, right] = SplitPair(input);
  if (right.empty()) return invda_->Sample(left, rng);
  return left + kPairSep + invda_->Sample(right, rng);
}

bool TaskContext::InvDaHasCached(const std::string& input) const {
  if (invda_ == nullptr) return false;
  if (!dataset_.is_pair_task)
    return !invda_->CachedAugmentations(input).empty();
  auto [left, right] = SplitPair(input);
  return !invda_->CachedAugmentations(right.empty() ? left : right).empty();
}

std::unique_ptr<models::TransformerClassifier> TaskContext::FreshModel(
    uint64_t seed) {
  EnsurePretrained();
  Rng rng(seed * 2654435761ULL + 1);
  auto model = std::make_unique<models::TransformerClassifier>(
      options_.classifier, vocab_, rng);
  // Transfer the pre-trained encoder; keep the fresh task head.
  std::map<std::string, const Tensor*> pretrained;
  for (const auto& [name, tensor] : pretrained_state_) {
    if (name.rfind("encoder.", 0) == 0) pretrained[name] = &tensor;
  }
  NamedTensors full = model->StateDict();
  for (auto& [name, tensor] : full) {
    auto it = pretrained.find(name);
    if (it != pretrained.end()) tensor.CopyFrom(*it->second);
  }
  model->LoadStateDict(full);
  return model;
}

std::string TaskContext::RandomSimpleAugment(const std::string& input,
                                             Rng& rng,
                                             const char** op_name) const {
  const augment::Operator& op =
      *task_ops_[rng.UniformInt(static_cast<int64_t>(task_ops_.size()))];
  augment::TaggedAugment aug =
      augment::AugmentTextTagged(input, op, aug_context_, rng);
  if (op_name != nullptr) *op_name = aug.op;
  return std::move(aug.text);
}

std::string TaskContext::MixDaAugment(const std::string& input,
                                      Rng& rng) const {
  return augment::AugmentText(input, *mixda_op_, aug_context_, rng);
}

const NamedTensors& TaskContext::PretrainedState() {
  EnsurePretrained();
  return pretrained_state_;
}

ExperimentResult TaskContext::Run(
    Method method, uint64_t seed,
    std::unique_ptr<models::TransformerClassifier>* trained) {
  return RunOnDataset(dataset_, method, seed, trained);
}

ExperimentResult TaskContext::RunWithBudget(Method method, uint64_t seed,
                                            int64_t budget) {
  data::TaskDataset view = dataset_;
  if (budget < static_cast<int64_t>(view.train.size())) {
    view.train.resize(budget);
  }
  if (budget < static_cast<int64_t>(view.valid.size())) {
    view.valid.resize(budget);
  }
  return RunOnDataset(view, method, seed);
}

ExperimentResult TaskContext::RunOnDataset(
    const data::TaskDataset& ds, Method method, uint64_t seed,
    std::unique_ptr<models::TransformerClassifier>* trained) {
  ExperimentResult result;
  auto model = FreshModel(seed);

  core::TrainResult train;
  switch (method) {
    case Method::kBaseline: {
      core::FinetuneOptions options;
      options.epochs = options_.epochs;
      options.batch_size = options_.batch_size;
      options.lr = options_.lr;
      options.seed = seed;
      options.pipeline = options_.pipeline;
      core::FinetuneTrainer trainer(model.get(), metric_, options);
      train = trainer.Train(ds);
      break;
    }
    case Method::kMixDa: {
      core::FinetuneOptions options;
      options.epochs = options_.epochs;
      options.batch_size = options_.batch_size;
      options.lr = options_.lr;
      options.seed = seed;
      options.aug_mode = core::AugMode::kMixDa;
      options.pipeline = options_.pipeline;
      core::FinetuneTrainer trainer(model.get(), metric_, options);
      train = trainer.Train(ds, [this](const std::string& s, Rng& r) {
        return MixDaAugment(s, r);
      });
      break;
    }
    case Method::kInvDa: {
      // Paper Section 6.1: same procedure as MixDA with the operator
      // replaced by InvDA (generation is precomputed and cached).
      EnsureInvDa();
      core::FinetuneOptions options;
      options.epochs = options_.epochs;
      options.batch_size = options_.batch_size;
      options.lr = options_.lr;
      options.seed = seed;
      options.aug_mode = core::AugMode::kMixDa;
      options.pipeline = options_.pipeline;
      core::FinetuneTrainer trainer(model.get(), metric_, options);
      train = trainer.Train(
          ds,
          [this](const std::string& s, Rng& r) { return InvDaSample(s, r); });
      break;
    }
    case Method::kRotom:
    case Method::kRotomSsl: {
      EnsureInvDa();
      core::RotomOptions options;
      options.epochs = options_.epochs;
      options.batch_size = options_.batch_size;
      options.lr = options_.lr;
      options.meta_lr = options_.meta_lr;
      options.augments_per_example = options_.augments_per_example;
      options.meta_update_every = options_.meta_update_every;
      options.ssl_batch_ratio = options_.ssl_batch_ratio;
      options.seed = seed;
      options.use_ssl = method == Method::kRotomSsl;
      options.use_filtering = options_.use_filtering;
      options.pipeline = options_.pipeline;
      core::RotomTrainer trainer(model.get(), metric_, options);
      // Candidate pool: one simple-op augmentation + one InvDA sample
      // (Section 6.1: Rotom combines InvDA with MixDA's operators). For
      // texts outside the precomputed InvDA cache (e.g. SSL's unlabeled
      // sequences) only the cheap simple op is used — live seq2seq decoding
      // inside the training loop would dominate wall time. Candidates carry
      // operator tags so the run log reports per-operator survival counts.
      train = trainer.Train(
          ds, core::TaggedCandidateGenerator(
                  [this](const std::string& s, Rng& r) {
                    std::vector<core::TaggedCandidate> out;
                    const char* op_name = "";
                    std::string aug = RandomSimpleAugment(s, r, &op_name);
                    out.push_back({std::move(aug), op_name});
                    if (InvDaHasCached(s)) {
                      out.push_back({InvDaSample(s, r), "invda"});
                    }
                    return out;
                  }));
      break;
    }
  }
  if (!train.status.ok()) {
    result.status = train.status;
    return result;
  }
  result.valid_metric = train.best_valid_metric;
  result.train_seconds = train.seconds;
  result.train_steps = train.steps;
  result.steps_per_sec =
      train.seconds > 0.0 ? static_cast<double>(train.steps) / train.seconds
                          : 0.0;

  result.test_metric = EvaluateModel(*model, ds.test, metric_);
  if (trained != nullptr) *trained = std::move(model);
  return result;
}

}  // namespace eval
}  // namespace rotom
