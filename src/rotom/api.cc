#include "rotom/api.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace rotom {
namespace api {

namespace {

// Returns a non-OK status if any example's label falls outside
// [0, num_classes); `split` names the offending split in the message.
Status CheckLabels(const std::vector<data::Example>& examples,
                   int64_t num_classes, const char* split) {
  for (size_t i = 0; i < examples.size(); ++i) {
    const int64_t label = examples[i].label;
    if (label < 0 || label >= num_classes) {
      return Status::Error("TrainSpec: " + std::string(split) + " example " +
                           std::to_string(i) + " has label " +
                           std::to_string(label) + ", outside [0, " +
                           std::to_string(num_classes) + ")");
    }
  }
  return Status::Ok();
}

Status ValidateDataset(const data::TaskDataset& dataset, bool streaming) {
  if (!streaming && dataset.train.empty())
    return Status::Error("TrainSpec: dataset.train is empty");
  if (dataset.num_classes < 2) {
    return Status::Error("TrainSpec: num_classes must be >= 2, got " +
                         std::to_string(dataset.num_classes));
  }
  const int64_t classes = dataset.num_classes;
  if (Status s = CheckLabels(dataset.train, classes, "train"); !s.ok())
    return s;
  if (Status s = CheckLabels(dataset.valid, classes, "valid"); !s.ok())
    return s;
  if (Status s = CheckLabels(dataset.test, classes, "test"); !s.ok())
    return s;
  return Status::Ok();
}

// The classifier as TaskContext will build it (num_classes comes from the
// dataset) and the InvDA seq2seq model, through the same check.
Status ValidateModelConfigs(const eval::ExperimentOptions& options,
                            int64_t num_classes) {
  models::ClassifierConfig classifier = options.classifier;
  classifier.num_classes = num_classes;
  if (Status s = models::ValidateConfig(classifier); !s.ok())
    return Status::Error("TrainSpec: options.classifier: " + s.message());
  const models::Seq2SeqConfig& s2s = options.seq2seq;
  const models::ClassifierConfig seq2seq{
      .max_len = std::min(s2s.max_src_len, s2s.max_tgt_len),
      .dim = s2s.dim,
      .num_heads = s2s.num_heads,
      .num_layers = s2s.num_layers,
      .ffn_dim = s2s.ffn_dim,
      .dropout = s2s.dropout};
  if (Status s = models::ValidateConfig(seq2seq); !s.ok())
    return Status::Error("TrainSpec: options.seq2seq: " + s.message());
  return Status::Ok();
}

}  // namespace

StatusOr<TrainReport> Train(const TrainSpec& spec) {
  if (spec.source.kind == data::DataSource::Kind::kNone) {
    return Status::Error("TrainSpec: no data source (set TrainSpec.source)");
  }
  auto opened = data::OpenSource(spec.source);
  if (!opened.ok()) return opened.status();

  const bool streaming = opened.value().stream != nullptr;
  data::TaskDataset dataset = std::move(opened.value().dataset);
  if (Status s = ValidateDataset(dataset, streaming); !s.ok()) return s;
  if (Status s = ValidateModelConfigs(spec.options, dataset.num_classes);
      !s.ok()) {
    return s;
  }
  if (dataset.valid.empty()) dataset.valid = dataset.train;
  if (streaming && dataset.valid.empty()) {
    return Status::Error(
        "TrainSpec: streaming source produced an empty validation split");
  }

  eval::ExperimentOptions options = spec.options;
  if (streaming) {
    const data::DataSource::StreamSpec& stream_spec =
        opened.value().stream_spec;
    core::StreamingOptions& streaming_options = options.pipeline.streaming;
    streaming_options.source = opened.value().stream;
    streaming_options.max_steps = stream_spec.max_steps;
    streaming_options.valid_every = stream_spec.valid_every;
    streaming_options.checkpoint_path = stream_spec.checkpoint_path;
    streaming_options.resume_from = stream_spec.resume_from;
  }

  eval::TaskContext context(std::move(dataset), std::move(options));
  std::unique_ptr<models::TransformerClassifier> model;
  TrainReport report;
  report.metrics = context.Run(spec.method, spec.seed, &model);
  if (!report.metrics.status.ok()) return report.metrics.status;
  ROTOM_CHECK(model != nullptr);
  report.snapshot = serve::Snapshot::FromModel(*model, context.idf());
  return report;
}

}  // namespace api
}  // namespace rotom
