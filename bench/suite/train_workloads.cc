// The two training workloads.
//
// em_rotom  Rotom (filtering + weighting meta-learner, epoch loop) on the
//           EM dblp_acm stand-in, through eval::TaskContext: the meta step
//           is half of the training time here, and set-up (vocabulary, MLM
//           and same-origin pre-training, InvDA training and caching) is a
//           large share of the wall time.
// ag_stream MixDA fine-tuning through api::Train over two CSV shards
//           streamed with weights 0.7/0.3, validated and checkpointed every
//           round: no meta step, tiny shapes, so op dispatch and the thread
//           pool dominate. The control for meta-step changes and the
//           streaming side of the training loop.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/train_checkpoint.h"
#include "data/em_gen.h"
#include "data/textcls_gen.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "rotom/api.h"
#include "suite.h"
#include "util/csv.h"

namespace rotom {
namespace suite {

namespace {

namespace fs = std::filesystem;

using Ms = std::chrono::duration<double, std::milli>;

// The classifier/seq2seq scale of the paper-table benches (2 layers, dim
// 32), with the meta step every second batch and half-size SSL batches.
eval::ExperimentOptions BaseOptions(int64_t max_len, int64_t seq_len) {
  eval::ExperimentOptions o;
  o.classifier.max_len = max_len;
  o.classifier.dim = 32;
  o.classifier.num_heads = 2;
  o.classifier.num_layers = 2;
  o.classifier.ffn_dim = 64;
  o.classifier.dropout = 0.1f;
  o.seq2seq.max_src_len = seq_len;
  o.seq2seq.max_tgt_len = seq_len;
  o.seq2seq.dim = 32;
  o.seq2seq.num_heads = 2;
  o.seq2seq.num_layers = 2;
  o.seq2seq.ffn_dim = 64;
  o.pretrain.epochs = 2;
  o.invda.augments_per_example = 3;
  o.invda.sampling.max_len = seq_len - 2;
  o.batch_size = 16;
  o.meta_update_every = 2;
  o.ssl_batch_ratio = 0.5;
  return o;
}

// A run does a fixed amount of work, sized so that it takes about
// --seconds on a 4-core x86 host: every commit then measures the same calls
// with the same seeds, however fast it runs them.
constexpr double kEmRunSeconds = 5.0;   // one Rotom run
constexpr double kAgCallSeconds = 4.0;  // one streamed api::Train call

int WorkUnits(const RunConfig& config, double unit_seconds) {
  if (config.smoke) return 1;
  return std::max(1, static_cast<int>(config.seconds / unit_seconds + 0.5));
}

uint64_t HashExamples(uint64_t hash, const std::vector<data::Example>& xs) {
  for (const auto& e : xs)
    hash = HashBytes(hash, e.text + "\x1f" + std::to_string(e.label) + "\n");
  return hash;
}

uint64_t HashFile(uint64_t hash, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return HashBytes(hash, bytes.str());
}

// Checks shared by both training workloads: a finite score in range and an
// exported snapshot that scores the same on the test split as the trainer
// did. Returns "" when every check passes.
std::string CheckTrained(const eval::ExperimentResult& r,
                         const serve::Snapshot& snapshot,
                         const std::vector<std::string>& test_texts,
                         const std::vector<int64_t>& test_labels,
                         eval::MetricKind metric) {
  if (r.train_steps <= 0) return "no optimizer steps";
  if (!std::isfinite(r.test_metric) || r.test_metric < 0.0 ||
      r.test_metric > 100.0 || !std::isfinite(r.valid_metric)) {
    return "non-finite or out-of-range score";
  }
  auto served = PredictLabels(snapshot, test_texts);
  if (!served.ok()) return "export: " + served.status().message();
  const double score =
      100.0 * (metric == eval::MetricKind::kF1
                   ? eval::BinaryPrf(served.value(), test_labels).f1
                   : eval::Accuracy(served.value(), test_labels));
  if (std::fabs(score - r.test_metric) > 1e-6) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "exported snapshot scores %.4f, trainer reported %.4f",
                  score, r.test_metric);
    return buf;
  }
  return "";
}

// The probe shape of a training workload: its batch and classifier.
ProbeShape TrainingShape(const eval::ExperimentOptions& options,
                         int64_t classes, int64_t vocab) {
  ProbeShape shape;
  shape.batch = options.batch_size;
  shape.seq = options.classifier.max_len;
  shape.dim = options.classifier.dim;
  shape.heads = options.classifier.num_heads;
  shape.ffn = options.classifier.ffn_dim;
  shape.classes = classes;
  shape.vocab = vocab;
  return shape;
}

// Mean "keep_rate" over the step events of the Rotom run logs in `dir`.
double MeanKeepRate(const std::string& dir) {
  double sum = 0.0;
  int64_t n = 0;
  if (!fs::is_directory(dir)) return 0.0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("rotom-", 0) != 0) continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      const size_t at = line.find("\"keep_rate\": ");
      if (line.find("\"event\": \"step\"") == std::string::npos ||
          at == std::string::npos)
        continue;
      sum += std::atof(line.c_str() + at + 13);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

// Per-layer metrics of a training window, from the program's spans (self
// time) and the obs delta over the same window. `trainer` is the span
// prefix of the trainer ("rotom" or "finetune").
void SetTrainingLayerMetrics(const std::string& trainer,
                             const std::vector<Span>& spans, int64_t steps,
                             const ObsView& delta, MetricSet* layer) {
  const auto totals = SelfTimes(spans);
  auto self_ms = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_us / 1000.0;
  };
  auto total_ms = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_us / 1000.0;
  };
  const double per_step = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
  for (const char* phase : {"meta_forward", "forward", "backward", "weighting"})
    layer->Set(std::string("core.") + phase + ".self_ms_per_step",
               self_ms(trainer + "." + phase) * per_step);
  const double train_ms = total_ms(trainer + ".train");
  const double other_ms = self_ms(trainer + ".train");
  layer->Set("core.step_other.self_ms_per_step", other_ms * per_step);
  layer->Set("core.attributed_share",
             train_ms > 0.0 ? (train_ms - other_ms) / train_ms : 0.0);
  layer->Set("core.datapath_ms_per_step",
             (total_ms(trainer + ".augment") + total_ms(trainer + ".encode") +
              total_ms("stream.batch")) *
                 per_step);
  layer->Set("core.steps", static_cast<double>(steps));
  layer->Set("stream.batch_ms_per_step", total_ms("stream.batch") * per_step);
  layer->Set("eval.model_ms_per_call",
             delta.HistMean("span.eval.model.us") / 1000.0);
  layer->Set("core.checkpoint.writes",
             delta.Counter("stream.checkpoint.writes"));
}

}  // namespace

WorkloadOutput RunEmRotom(const RunConfig& config) {
  WorkloadOutput out;
  const bool smoke = config.smoke;
  BenchTracer tracer(config.trace);

  data::EmOptions em;
  em.budget = smoke ? 40 : 120;
  em.test_size = smoke ? 40 : 100;
  em.unlabeled_size = smoke ? 80 : 300;
  em.seed = config.seed;
  const data::TaskDataset dataset = data::MakeEmDataset("dblp_acm", em);
  out.input_hash = HashExamples(out.input_hash, dataset.train);
  out.input_hash = HashExamples(out.input_hash, dataset.test);
  for (const auto& t : dataset.unlabeled)
    out.input_hash = HashBytes(out.input_hash, t + "\n");
  std::vector<std::string> test_texts;
  std::vector<int64_t> test_labels;
  for (const auto& e : dataset.test) {
    test_texts.push_back(e.text);
    test_labels.push_back(e.label);
  }

  eval::ExperimentOptions options = BaseOptions(/*max_len=*/56, /*seq_len=*/32);
  options.pretrain.max_corpus = 256;
  options.same_origin.steps = smoke ? 10 : 50;
  options.invda.max_corpus = 192;
  options.invda.epochs = smoke ? 1 : 2;
  // Records need conservative sampling and light corruption (as in the
  // paper-table benches' EM configuration).
  options.invda.sampling.top_k = 3;
  options.invda.corruption_ops = 1;
  options.epochs = smoke ? 1 : 3;
  const std::string runlog_dir = config.trace_dir + "/em_rotom.runlog";
  if (config.trace) options.pipeline.runlog_dir = runlog_dir;

  // Set-up, repeated so its median is steady: vocabulary + IDF, MLM and
  // same-origin pre-training, InvDA training + cache.
  const int setups = smoke ? 2 : 3;
  std::unique_ptr<eval::TaskContext> context;
  std::vector<double> setup_s;
  double invda_s = 0.0;
  const ObsView before_setup = ObsView::Now();
  for (int rep = 0; rep < setups; ++rep) {
    data::TaskDataset copy = dataset;
    context.reset();
    const auto t0 = Clock::now();
    context = std::make_unique<eval::TaskContext>(std::move(copy), options);
    const auto t1 = Clock::now();
    context->PretrainedState();
    const auto t2 = Clock::now();
    context->EnsureInvDa();
    const auto t3 = Clock::now();
    setup_s.push_back(std::chrono::duration<double>(t3 - t0).count());
    invda_s += std::chrono::duration<double>(t3 - t2).count();
    const uint64_t id = tracer.Add("TaskContext set-up", t0, t3);
    tracer.Add("TaskContext", t0, t1, id);
    tracer.Add("TaskContext::PretrainedState", t1, t2, id);
    tracer.Add("TaskContext::EnsureInvDa", t2, t3, id);
  }
  const ObsView setup_delta = ObsView::Delta(before_setup, ObsView::Now());

  // Measured work: Rotom runs with seeds seed, seed+1, ...
  ProgramTrace trace(config.trace, config.trace_dir + "/em_rotom.program.json");
  const ObsView before = ObsView::Now();
  std::vector<double> call_ms, steps_per_s, scores;
  int64_t steps = 0;
  for (int i = 0; i < WorkUnits(config, kEmRunSeconds); ++i) {
    ++out.attempted;
    std::unique_ptr<models::TransformerClassifier> model;
    const auto t0 = Clock::now();
    const eval::ExperimentResult r = context->Run(
        eval::Method::kRotom, config.seed + static_cast<uint64_t>(i), &model);
    const auto t1 = Clock::now();
    tracer.Add("TaskContext::Run(kRotom)", t0, t1);
    trace.Collect();
    call_ms.push_back(Ms(t1 - t0).count());
    steps += r.train_steps;
    steps_per_s.push_back(r.steps_per_sec);
    scores.push_back(r.test_metric);
    const std::string error =
        model == nullptr
            ? "no trained model"
            : CheckTrained(r,
                           serve::Snapshot::FromModel(*model, context->idf()),
                           test_texts, test_labels, context->metric());
    if (!error.empty()) {
      ++out.failed;
      out.errors.push_back("run " + std::to_string(i) + ": " + error);
    }
  }
  const ObsView after = ObsView::Now();

  out.e2e.Set("setup_s", Median(setup_s));
  out.e2e.Set("throughput_per_s", Median(steps_per_s));
  out.e2e.Set("latency_p50_ms", Median(call_ms));
  out.e2e.Set("peak_rss_mb", PeakRssMb());
  if (!config.trace) return out;

  MetricSet& layer = out.layer;
  const ObsView delta = ObsView::Delta(before, after);
  SetTrainingLayerMetrics("rotom", trace.spans(), steps, delta, &layer);
  SetCommonLayerMetrics(delta, after, &layer);
  layer.Set("core.filter.keep_rate", MeanKeepRate(runlog_dir));
  layer.Set("eval.test_score",
            std::accumulate(scores.begin(), scores.end(), 0.0) /
                static_cast<double>(scores.size()));
  const double per_setup = 1.0 / setups;
  layer.Set("models.pretrain_mlm_s",
            setup_delta.HistSum("span.pretrain.mlm.us") / 1e6 * per_setup);
  layer.Set("models.pretrain_same_origin_s",
            setup_delta.HistSum("span.pretrain.same_origin.us") / 1e6 *
                per_setup);
  const double invda_train_s =
      setup_delta.HistSum("span.invda.train.us") / 1e6 * per_setup;
  layer.Set("invda.train_s", invda_train_s);
  layer.Set("invda.precompute_s", invda_s * per_setup - invda_train_s);
  {
    const auto t0 = Clock::now();
    auto opened = data::OpenSource(data::DataSource::Inline(dataset));
    layer.Set("data.open_source_s", SecondsSince(t0));
    if (!opened.ok())
      out.errors.push_back("OpenSource: " + opened.status().message());
  }
  ProbeLayers(TrainingShape(options, dataset.num_classes,
                            context->vocab_ptr()->size()),
              smoke, &layer);
  SetTraceCounts(trace, &layer);
  tracer.WriteChromeJson(config.trace_dir + "/em_rotom.bench.json");
  return out;
}

WorkloadOutput RunAgStream(const RunConfig& config) {
  WorkloadOutput out;
  const bool smoke = config.smoke;
  BenchTracer tracer(config.trace);

  // Inputs: the `ag` rows as two CSV shards (70/30 by row index) plus a
  // held-out eval file. Label strings are enumerated by first appearance
  // across shard_a, shard_b, eval -- the order data::OpenSource uses.
  data::TextClsOptions ag;
  ag.train_size = smoke ? 600 : 4000;
  ag.valid_size = 0;
  ag.test_size = smoke ? 100 : 500;
  ag.unlabeled_size = 0;
  ag.seed = config.seed;
  const data::TaskDataset rows = data::MakeTextClsDataset("ag", ag);
  CsvTable shard_a{{"text", "label"}, {}};
  CsvTable shard_b{{"text", "label"}, {}};
  CsvTable eval_rows{{"text", "label"}, {}};
  auto label_name = [](int64_t id) { return "topic_" + std::to_string(id); };
  for (size_t i = 0; i < rows.train.size(); ++i) {
    (i % 10 < 7 ? shard_a : shard_b)
        .rows.push_back({rows.train[i].text, label_name(rows.train[i].label)});
  }
  for (const auto& e : rows.test)
    eval_rows.rows.push_back({e.text, label_name(e.label)});
  const std::string path_a = config.work_dir + "/ag_shard_a.csv";
  const std::string path_b = config.work_dir + "/ag_shard_b.csv";
  const std::string path_eval = config.work_dir + "/ag_eval.csv";
  const std::string checkpoint = config.work_dir + "/ag_stream.rtck";
  for (const auto& [path, table] : {std::pair{path_a, &shard_a},
                                    {path_b, &shard_b},
                                    {path_eval, &eval_rows}}) {
    if (Status s = WriteCsvFile(path, *table); !s.ok()) {
      out.errors.push_back("write " + path + ": " + s.message());
      return out;
    }
    out.input_hash = HashFile(out.input_hash, path);
  }
  std::vector<std::string> order;
  auto id_of = [&order](const std::string& name) {
    auto it = std::find(order.begin(), order.end(), name);
    if (it != order.end()) return static_cast<int64_t>(it - order.begin());
    order.push_back(name);
    return static_cast<int64_t>(order.size()) - 1;
  };
  for (const CsvTable* t : {&shard_a, &shard_b})
    for (const auto& row : t->rows) id_of(row[1]);
  std::vector<std::string> test_texts;
  std::vector<int64_t> test_labels;
  for (const auto& row : eval_rows.rows) {
    test_texts.push_back(row[0]);
    test_labels.push_back(id_of(row[1]));
  }

  const int64_t max_steps = smoke ? 30 : 300;
  eval::ExperimentOptions options = BaseOptions(/*max_len=*/24, /*seq_len=*/24);
  options.pretrain.max_corpus = 384;
  auto make_spec = [&](uint64_t seed) {
    data::DataSource::StreamSpec stream;
    stream.max_steps = max_steps;
    stream.valid_every = max_steps / 3;
    stream.seed = seed;
    stream.checkpoint_path = checkpoint;
    stream.eval.path = path_eval;
    data::DataSource::SplitSpec split;
    split.name = "ag";
    split.seed = seed;
    api::TrainSpec spec;
    spec.source = data::DataSource::Stream(
        {{path_a, "text", "label", 0.7}, {path_b, "text", "label", 0.3}},
        stream, split);
    spec.method = eval::Method::kMixDa;
    spec.options = options;
    spec.seed = seed;
    return spec;
  };

  ProgramTrace trace(config.trace,
                     config.trace_dir + "/ag_stream.program.json");
  const ObsView before = ObsView::Now();
  std::vector<double> call_ms, setup_s, steps_per_s, scores;
  int64_t steps = 0;
  int64_t vocab_size = 0;
  for (int i = 0; i < WorkUnits(config, kAgCallSeconds); ++i) {
    ++out.attempted;
    const api::TrainSpec spec =
        make_spec(config.seed + static_cast<uint64_t>(i));
    const auto t0 = Clock::now();
    auto report = api::Train(spec);
    const auto t1 = Clock::now();
    tracer.Add("api::Train(kMixDa, stream)", t0, t1);
    trace.Collect();
    std::string error;
    if (!report.ok()) {
      error = report.status().message();
    } else {
      const eval::ExperimentResult& r = report.value().metrics;
      const double wall_s = std::chrono::duration<double>(t1 - t0).count();
      call_ms.push_back(wall_s * 1000.0);
      setup_s.push_back(wall_s - r.train_seconds);
      steps += r.train_steps;
      steps_per_s.push_back(r.steps_per_sec);
      scores.push_back(r.test_metric);
      vocab_size = report.value().snapshot.vocab->size();
      error = CheckTrained(r, report.value().snapshot, test_texts, test_labels,
                           eval::MetricKind::kAccuracy);
      if (error.empty() && r.train_steps != max_steps)
        error = "wrong step count";
      if (error.empty()) {
        auto ckpt = core::TrainCheckpoint::Load(checkpoint);
        if (!ckpt.ok()) {
          error = "checkpoint: " + ckpt.status().message();
        } else if (auto step = ckpt.value().GetInt("step");
                   !step.ok() || step.value() != max_steps) {
          error = "checkpoint does not hold the final step";
        }
      }
    }
    if (!error.empty()) {
      ++out.failed;
      out.errors.push_back("call " + std::to_string(i) + ": " + error);
    }
  }
  const ObsView after = ObsView::Now();

  out.e2e.Set("setup_s", Median(setup_s));
  out.e2e.Set("throughput_per_s", Median(steps_per_s));
  out.e2e.Set("latency_p50_ms", Median(call_ms));
  out.e2e.Set("peak_rss_mb", PeakRssMb());
  if (!config.trace || scores.empty()) return out;

  MetricSet& layer = out.layer;
  const ObsView delta = ObsView::Delta(before, after);
  SetTrainingLayerMetrics("finetune", trace.spans(), steps, delta, &layer);
  SetCommonLayerMetrics(delta, after, &layer);
  layer.Set("eval.test_score",
            std::accumulate(scores.begin(), scores.end(), 0.0) /
                static_cast<double>(scores.size()));
  layer.Set("models.pretrain_mlm_s",
            delta.HistSum("span.pretrain.mlm.us") / 1e6 /
                static_cast<double>(scores.size()));
  {
    // Warm CSV cache, like every call after the first.
    const auto t0 = Clock::now();
    auto opened = data::OpenSource(make_spec(config.seed).source);
    layer.Set("data.open_source_s", SecondsSince(t0));
    if (!opened.ok())
      out.errors.push_back("OpenSource: " + opened.status().message());
  }
  {
    // Save cost of the run's own checkpoint (the streaming loop writes one
    // per validation round).
    auto ckpt = core::TrainCheckpoint::Load(checkpoint);
    std::vector<double> save_ms;
    for (int rep = 0; ckpt.ok() && rep < 5; ++rep) {
      const auto t0 = Clock::now();
      const Status s = ckpt.value().Save(config.work_dir + "/probe.rtck");
      save_ms.push_back(Ms(Clock::now() - t0).count());
      if (!s.ok()) out.errors.push_back("checkpoint save: " + s.message());
    }
    layer.Set("core.checkpoint.save_ms", Median(save_ms));
  }
  ProbeLayers(TrainingShape(options, static_cast<int64_t>(order.size()),
                            vocab_size),
              smoke, &layer);
  SetTraceCounts(trace, &layer);
  tracer.WriteChromeJson(config.trace_dir + "/ag_stream.bench.json");
  return out;
}

}  // namespace suite
}  // namespace rotom
