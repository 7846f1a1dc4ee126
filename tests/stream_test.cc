// The streaming data layer (stream/, DESIGN.md §14) and its trainer
// integration: stage determinism (every random decision derived from
// per-stage split seeds + draw counters), checkpointable stream state with
// restore-by-replay, the DataSource factory, and the two headline
// trainer-level guarantees — batch sequences bit-identical across prefetch
// thread counts, and kill-and-resume from a TrainCheckpoint reproducing the
// uninterrupted loss trajectory float-for-float. scripts/check.sh
// additionally runs this binary under TSan at several pool sizes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/finetune.h"
#include "core/rotom_trainer.h"
#include "core/train_checkpoint.h"
#include "data/loader.h"
#include "data/source.h"
#include "rotom/api.h"
#include "stream/augment_stage.h"
#include "stream/csv_source.h"
#include "stream/stream.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

namespace rotom {
namespace {

std::shared_ptr<text::Vocabulary> TaskVocab() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w :
       {"the", "movie", "was", "great", "terrible", "really", "a", "not",
        "good", "bad", "boring", "fantastic", "product", "awful", "fine"})
    vocab->AddToken(w);
  return vocab;
}

models::ClassifierConfig TinyConfig() {
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 10;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.1f;  // dropout on: it must not disturb determinism
  return config;
}

std::vector<data::Example> PosExamples() {
  return {{"the movie was great", 1},   {"really great movie", 1},
          {"a fantastic movie", 1},     {"the product was good", 1},
          {"good good movie", 1},       {"really fine product", 1}};
}

std::vector<data::Example> NegExamples() {
  return {{"the movie was terrible", 0}, {"really bad movie", 0},
          {"a boring movie", 0},         {"the product was awful", 0},
          {"bad bad movie", 0},          {"really awful product", 0}};
}

data::TaskDataset TinyTask() {
  data::TaskDataset ds;
  ds.name = "tiny";
  ds.num_classes = 2;
  for (const auto& e : PosExamples()) ds.train.push_back(e);
  for (const auto& e : NegExamples()) ds.train.push_back(e);
  ds.valid = ds.train;
  ds.test = {{"the movie was fantastic", 1}, {"a terrible movie", 0}};
  for (const auto& e : ds.train) ds.unlabeled.push_back(e.text);
  return ds;
}

// Deterministic, thread-safe augmenter: duplicates an rng-chosen token.
std::string DuplicateToken(const std::string& input, Rng& rng) {
  auto tokens = text::Tokenize(input);
  if (tokens.empty()) return input;
  const size_t i = rng.UniformInt(static_cast<int64_t>(tokens.size()));
  tokens.insert(tokens.begin() + i, tokens[i]);
  return text::Detokenize(tokens);
}

class ThreadGuard {
 public:
  explicit ThreadGuard(int n) { SetComputeThreads(n); }
  ~ThreadGuard() { SetComputeThreads(0); }
};

// The reference pipeline of the trainer-level tests: a weighted mix of two
// vector sources behind a shuffle buffer — every stage type that carries
// state, in one stack.
std::shared_ptr<stream::ExampleStream> MixOfTwoStream(uint64_t seed = 21) {
  std::vector<std::unique_ptr<stream::ExampleStream>> children;
  children.push_back(
      std::make_unique<stream::VectorSource>("pos", PosExamples()));
  children.push_back(
      std::make_unique<stream::VectorSource>("neg", NegExamples()));
  auto mix = stream::Mix::Create(std::move(children), {1.0, 1.0}, seed);
  EXPECT_TRUE(mix.ok());
  return std::make_shared<stream::ShuffleBuffer>(std::move(mix).value(),
                                                 /*capacity=*/8, seed + 1);
}

// A temp file private to the running TEST: ctest runs every test case as
// its own process, so two cases that named the same file would race.
std::string TempPath(const char* name) {
  std::string prefix;
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    prefix = std::string(info->test_suite_name()) + "." + info->name() + ".";
    std::replace(prefix.begin(), prefix.end(), '/', '_');
  }
  return std::string(::testing::TempDir()) + "/" + prefix + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------- state --

TEST(StreamStateTest, RoundTripsThroughSerialize) {
  stream::StreamState state;
  state.Set("root", 42);
  state.Set("root.inner", 50);
  state.Set("root.inner.s0", 30);
  EXPECT_EQ(state.Get("root"), 42);
  EXPECT_EQ(state.Get("absent", -7), -7);
  EXPECT_TRUE(state.Has("root.inner"));
  auto parsed = stream::StreamState::Parse(state.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), state);
  state.Set("root", 43);
  EXPECT_NE(parsed.value(), state);
}

TEST(StreamStateTest, ParseRejectsGarbage) {
  EXPECT_FALSE(stream::StreamState::Parse("no-equals-sign").ok());
  EXPECT_FALSE(stream::StreamState::Parse("key=notanumber").ok());
}

// -------------------------------------------------------------- sources --

TEST(VectorSourceTest, WrapsAroundForever) {
  stream::VectorSource source("v", PosExamples());
  const size_t n = PosExamples().size();
  for (size_t i = 0; i < 2 * n + 3; ++i) {
    auto e = source.Next();
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().text, PosExamples()[i % n].text);
  }
  EXPECT_EQ(source.draws(), static_cast<int64_t>(2 * n + 3));
}

TEST(VectorSourceTest, ShuffledPassesArePermutations) {
  const auto examples = PosExamples();
  const size_t n = examples.size();
  std::vector<std::string> sorted;
  for (const auto& e : examples) sorted.push_back(e.text);
  std::sort(sorted.begin(), sorted.end());

  stream::VectorSource a("v", examples, /*shuffle_seed=*/3);
  stream::VectorSource b("v", examples, /*shuffle_seed=*/3);
  std::vector<std::vector<std::string>> passes(4);
  for (auto& pass : passes) {
    for (size_t i = 0; i < n; ++i) {
      auto ea = a.Next();
      auto eb = b.Next();
      ASSERT_TRUE(ea.ok());
      ASSERT_TRUE(eb.ok());
      ASSERT_EQ(ea.value().text, eb.value().text);  // keyed by seed + pass
      pass.push_back(ea.value().text);
    }
    std::vector<std::string> seen = pass;
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, sorted);  // every example exactly once per pass
  }
  EXPECT_TRUE(passes[0] != passes[1] || passes[1] != passes[2] ||
              passes[2] != passes[3]);  // each pass reshuffles
}

TEST(CsvFileSourceTest, MatchesMaterializedLoaderAndWraps) {
  const std::string path = TempPath("stream_src.csv");
  WriteFile(path,
            "text,label\n"
            "the movie was great,pos\n"
            "a boring movie,neg\n"
            "really fine product,pos\n");
  std::vector<std::string> label_names;
  auto materialized = data::LoadTextClsCsv(path, "text", "label",
                                           &label_names);
  ASSERT_TRUE(materialized.ok());

  auto labels = std::make_shared<stream::LabelTable>();
  auto source = stream::CsvFileSource::Open(path, {}, labels);
  ASSERT_TRUE(source.ok());
  // Two passes: the first must match the materialized load example for
  // example, the second (after the transparent re-open) must repeat it.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& want : materialized.value()) {
      auto got = source.value()->Next();
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value().text, want.text);
      EXPECT_EQ(got.value().label, want.label);
    }
  }
  EXPECT_EQ(source.value()->passes(), 1);
  EXPECT_EQ(labels->names(), label_names);
}

TEST(CsvFileSourceTest, ReportsErrors) {
  auto labels = std::make_shared<stream::LabelTable>();
  EXPECT_FALSE(
      stream::CsvFileSource::Open("/nonexistent/x.csv", {}, labels).ok());

  const std::string path = TempPath("stream_badcol.csv");
  WriteFile(path, "body,label\nhello,pos\n");
  EXPECT_FALSE(stream::CsvFileSource::Open(path, {}, labels).ok());

  const std::string ragged = TempPath("stream_ragged.csv");
  WriteFile(ragged, "text,label\nok,pos\nonly-one-field\n");
  auto source = stream::CsvFileSource::Open(ragged, {}, labels);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(source.value()->Next().ok());
  EXPECT_FALSE(source.value()->Next().ok());
}

// ------------------------------------------------------------------ mix --

TEST(MixTest, ValidatesSpec) {
  auto make_children = [] {
    std::vector<std::unique_ptr<stream::ExampleStream>> children;
    children.push_back(
        std::make_unique<stream::VectorSource>("a", PosExamples()));
    children.push_back(
        std::make_unique<stream::VectorSource>("b", NegExamples()));
    return children;
  };
  EXPECT_FALSE(stream::Mix::Create({}, {}, 1).ok());
  EXPECT_FALSE(stream::Mix::Create(make_children(), {1.0}, 1).ok());
  EXPECT_FALSE(stream::Mix::Create(make_children(), {1.0, 0.0}, 1).ok());
  EXPECT_FALSE(stream::Mix::Create(make_children(), {1.0, -2.0}, 1).ok());
  EXPECT_TRUE(stream::Mix::Create(make_children(), {1.0, 3.0}, 1).ok());
}

TEST(MixTest, DeterministicAndRoughlyProportional) {
  auto build = [] {
    std::vector<std::unique_ptr<stream::ExampleStream>> children;
    children.push_back(
        std::make_unique<stream::VectorSource>("pos", PosExamples()));
    children.push_back(
        std::make_unique<stream::VectorSource>("neg", NegExamples()));
    auto mix = stream::Mix::Create(std::move(children), {3.0, 1.0}, 99);
    EXPECT_TRUE(mix.ok());
    return std::move(mix).value();
  };
  auto a = build();
  auto b = build();
  int64_t pos = 0;
  const int64_t draws = 3000;
  for (int64_t i = 0; i < draws; ++i) {
    auto ea = a->Next();
    auto eb = b->Next();
    ASSERT_TRUE(ea.ok());
    ASSERT_TRUE(eb.ok());
    ASSERT_EQ(ea.value().text, eb.value().text);  // same seed, same sequence
    pos += ea.value().label;
  }
  // Weight 3:1 → ~75% positive; generous band to stay noise-proof.
  EXPECT_GT(pos, draws * 0.65);
  EXPECT_LT(pos, draws * 0.85);
}

// -------------------------------------------------------------- shuffle --

TEST(ShuffleBufferTest, DeterministicPermutationOfInner) {
  auto build = [](uint64_t seed) {
    return stream::ShuffleBuffer(
        std::make_unique<stream::VectorSource>("v", PosExamples()), 4, seed);
  };
  auto a = build(7);
  auto b = build(7);
  auto c = build(8);
  bool c_diverged = false;
  for (int i = 0; i < 40; ++i) {
    auto ea = a.Next();
    auto eb = b.Next();
    auto ec = c.Next();
    ASSERT_TRUE(ea.ok());
    ASSERT_EQ(ea.value().text, eb.value().text);
    c_diverged = c_diverged || ec.value().text != ea.value().text;
  }
  EXPECT_TRUE(c_diverged);  // a different seed shuffles differently
}

TEST(ShuffleBufferTest, CapacityOneIsPassThrough) {
  stream::ShuffleBuffer buffer(
      std::make_unique<stream::VectorSource>("v", PosExamples()), 1, 7);
  const auto want = PosExamples();
  for (size_t i = 0; i < 2 * want.size(); ++i) {
    auto e = buffer.Next();
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().text, want[i % want.size()].text);
  }
}

// -------------------------------------------------------------- augment --

TEST(AugmentStageTest, DeterministicPerDrawAndReplayable) {
  auto build = [] {
    return stream::AugmentStage(
        std::make_unique<stream::VectorSource>("v", PosExamples()),
        DuplicateToken, /*seed=*/33);
  };
  auto a = build();
  auto b = build();
  std::vector<std::string> first_pass;
  const size_t n = PosExamples().size();
  for (size_t i = 0; i < 2 * n; ++i) {
    auto ea = a.Next();
    auto eb = b.Next();
    ASSERT_TRUE(ea.ok());
    ASSERT_EQ(ea.value().text, eb.value().text);  // same seed, same augments
    EXPECT_EQ(ea.value().label, PosExamples()[i % n].label);
    if (i < n) {
      first_pass.push_back(ea.value().text);
    } else {
      // Second pass over the same source example draws a fresh augmentation
      // (draw-counter-keyed RNG), not a repeat of pass one — SOTASTREAM's
      // on-the-fly property. At least one of the six must differ.
      if (ea.value().text != first_pass[i % n]) return;
    }
  }
  FAIL() << "second pass repeated every first-pass augmentation";
}

// ----------------------------------------------------- capture / replay --

TEST(RestoreByReplayTest, ResumesExactSequence) {
  auto full = MixOfTwoStream();
  std::vector<std::string> expected;
  for (int i = 0; i < 30; ++i) {
    auto e = full->Next();
    ASSERT_TRUE(e.ok());
    if (i >= 12) expected.push_back(e.value().text);
  }

  auto replayed = MixOfTwoStream();
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(replayed->Next().ok());
  const stream::StreamState at12 = stream::CaptureState(*replayed);

  auto resumed = MixOfTwoStream();  // fresh pipeline, same spec
  ASSERT_TRUE(stream::RestoreByReplay(*resumed, at12).ok());
  EXPECT_EQ(stream::CaptureState(*resumed), at12);
  for (const auto& want : expected) {
    auto e = resumed->Next();
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().text, want);
  }
}

TEST(RestoreByReplayTest, RejectsSpecDriftAndUsedPipelines) {
  auto original = MixOfTwoStream();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(original->Next().ok());
  const stream::StreamState target = stream::CaptureState(*original);

  // Different shuffle capacity = different spec: the replayed counters
  // cannot line up, and the mismatch must be an error, not a silent resume
  // of a different stream.
  std::vector<std::unique_ptr<stream::ExampleStream>> children;
  children.push_back(
      std::make_unique<stream::VectorSource>("pos", PosExamples()));
  children.push_back(
      std::make_unique<stream::VectorSource>("neg", NegExamples()));
  auto mix = stream::Mix::Create(std::move(children), {1.0, 1.0}, 21);
  ASSERT_TRUE(mix.ok());
  stream::ShuffleBuffer drifted(std::move(mix).value(), /*capacity=*/3, 22);
  EXPECT_FALSE(stream::RestoreByReplay(drifted, target).ok());

  // A pipeline that already drew past the target cannot rewind.
  auto used = MixOfTwoStream();
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(used->Next().ok());
  EXPECT_FALSE(stream::RestoreByReplay(*used, target).ok());

  // A state with no root entry is rejected outright.
  stream::StreamState empty;
  auto fresh = MixOfTwoStream();
  EXPECT_FALSE(stream::RestoreByReplay(*fresh, empty).ok());
}

// ----------------------------------------------- trainer: thread counts --

core::TrainResult RunStreamFinetune(int threads, bool prefetch,
                                    int64_t max_steps = 9,
                                    const std::string& checkpoint = "",
                                    const std::string& resume = "") {
  ThreadGuard guard(threads);
  Rng rng(7);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.batch_size = 4;
  options.aug_mode = core::AugMode::kReplace;
  options.seed = 5;
  options.pipeline.prefetch = prefetch;
  options.pipeline.streaming.source = MixOfTwoStream();
  options.pipeline.streaming.max_steps = max_steps;
  options.pipeline.streaming.valid_every = 3;
  options.pipeline.streaming.checkpoint_path = checkpoint;
  options.pipeline.streaming.resume_from = resume;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  return trainer.Train(TinyTask(), DuplicateToken);
}

core::TrainResult RunStreamRotom(int threads, bool prefetch,
                                 int64_t max_steps = 8,
                                 const std::string& checkpoint = "",
                                 const std::string& resume = "",
                                 int64_t meta_update_every = 1) {
  ThreadGuard guard(threads);
  Rng rng(11);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::RotomOptions options;
  options.batch_size = 6;
  options.augments_per_example = 2;
  options.meta_update_every = meta_update_every;
  options.seed = 5;
  options.pipeline.prefetch = prefetch;
  options.pipeline.streaming.source = MixOfTwoStream();
  options.pipeline.streaming.max_steps = max_steps;
  options.pipeline.streaming.valid_every = 4;
  options.pipeline.streaming.checkpoint_path = checkpoint;
  options.pipeline.streaming.resume_from = resume;
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  return trainer.Train(TinyTask(), [](const std::string& s, Rng& r) {
    return std::vector<std::string>{DuplicateToken(s, r),
                                    DuplicateToken(s, r)};
  });
}

void ExpectIdentical(const core::TrainResult& reference,
                     const core::TrainResult& candidate, const char* label) {
  EXPECT_EQ(reference.steps, candidate.steps) << label;
  ASSERT_EQ(reference.loss_history.size(), candidate.loss_history.size())
      << label;
  for (size_t i = 0; i < reference.loss_history.size(); ++i) {
    // Bit-identical, not approximately equal: prefetch depth and thread
    // count must not touch the trajectory at all.
    ASSERT_EQ(reference.loss_history[i], candidate.loss_history[i])
        << label << " diverged at step " << i;
  }
  EXPECT_EQ(reference.best_valid_metric, candidate.best_valid_metric) << label;
}

TEST(StreamingTrainerTest, FinetuneBatchSequenceIsThreadCountInvariant) {
  const auto reference = RunStreamFinetune(/*threads=*/1, /*prefetch=*/false);
  EXPECT_EQ(reference.steps, 9);
  ExpectIdentical(reference, RunStreamFinetune(1, true), "prefetch/1t");
  ExpectIdentical(reference, RunStreamFinetune(4, true), "prefetch/4t");
}

TEST(StreamingTrainerTest, RotomBatchSequenceIsThreadCountInvariant) {
  const auto reference = RunStreamRotom(/*threads=*/1, /*prefetch=*/false);
  EXPECT_EQ(reference.steps, 8);
  ASSERT_FALSE(reference.loss_history.empty());
  ExpectIdentical(reference, RunStreamRotom(1, true), "prefetch/1t");
  ExpectIdentical(reference, RunStreamRotom(4, true), "prefetch/4t");
}

// -------------------------------------------- trainer: kill-and-resume --

TEST(StreamingTrainerTest, FinetuneResumeReproducesUninterruptedRun) {
  const auto uninterrupted = RunStreamFinetune(2, true, /*max_steps=*/9);

  // "Kill" after 3 steps: the round boundary at step 3 wrote a checkpoint.
  const std::string ckpt = TempPath("finetune_resume.ckpt");
  const auto before = RunStreamFinetune(2, true, /*max_steps=*/3, ckpt);
  ASSERT_EQ(before.steps, 3);
  // Resume with a fresh model and a freshly built same-spec pipeline.
  const auto after = RunStreamFinetune(2, true, /*max_steps=*/9, "", ckpt);
  ASSERT_EQ(after.steps, 6);

  std::vector<float> stitched = before.loss_history;
  stitched.insert(stitched.end(), after.loss_history.begin(),
                  after.loss_history.end());
  ASSERT_EQ(stitched.size(), uninterrupted.loss_history.size());
  for (size_t i = 0; i < stitched.size(); ++i) {
    ASSERT_EQ(stitched[i], uninterrupted.loss_history[i])
        << "resume diverged at step " << i;
  }
  EXPECT_EQ(after.best_valid_metric, uninterrupted.best_valid_metric);
}

void ExpectRotomResumeReproducesUninterruptedRun(int64_t meta_update_every) {
  const auto uninterrupted =
      RunStreamRotom(2, true, /*max_steps=*/8, "", "", meta_update_every);

  const std::string ckpt = TempPath("rotom_resume.ckpt");
  const auto before =
      RunStreamRotom(2, true, /*max_steps=*/4, ckpt, "", meta_update_every);
  ASSERT_EQ(before.steps, 4);
  const auto after =
      RunStreamRotom(2, true, /*max_steps=*/8, "", ckpt, meta_update_every);
  ASSERT_EQ(after.steps, 4);

  std::vector<float> stitched = before.loss_history;
  stitched.insert(stitched.end(), after.loss_history.begin(),
                  after.loss_history.end());
  ASSERT_EQ(stitched.size(), uninterrupted.loss_history.size());
  for (size_t i = 0; i < stitched.size(); ++i) {
    ASSERT_EQ(stitched[i], uninterrupted.loss_history[i])
        << "resume diverged at step " << i;
  }
  EXPECT_EQ(after.best_valid_metric, uninterrupted.best_valid_metric);
}

TEST(StreamingTrainerTest, RotomResumeReproducesUninterruptedRun) {
  ExpectRotomResumeReproducesUninterruptedRun(1);
}

TEST(StreamingTrainerTest, RotomResumeAtEveryOtherMetaStepReproducesRun) {
  // The bench cadence: resumed steps must keep the global meta schedule.
  ExpectRotomResumeReproducesUninterruptedRun(2);
}

// ----------------------------------------------------------- DataSource --

TEST(DataSourceTest, ValidatesSpecs) {
  EXPECT_FALSE(data::ValidateSource(data::DataSource{}).ok());

  data::DataSource::FileSpec missing;
  missing.path = "/nonexistent/data.csv";
  EXPECT_FALSE(data::ValidateSource(data::DataSource::File(missing)).ok());

  EXPECT_FALSE(data::ValidateSource(data::DataSource::Mixture({})).ok());

  const std::string path = TempPath("source_ok.csv");
  WriteFile(path, "text,label\nhello,pos\nbye,neg\n");
  data::DataSource::FileSpec good;
  good.path = path;
  data::DataSource::FileSpec bad_weight = good;
  bad_weight.weight = 0.0;
  EXPECT_FALSE(
      data::ValidateSource(data::DataSource::Mixture({good, bad_weight}))
          .ok());
  EXPECT_TRUE(
      data::ValidateSource(data::DataSource::Mixture({good, good})).ok());

  // Stream without a step budget.
  EXPECT_FALSE(
      data::ValidateSource(data::DataSource::Stream({good}, {})).ok());
  data::DataSource::StreamSpec stream_spec;
  stream_spec.max_steps = 10;
  EXPECT_TRUE(
      data::ValidateSource(data::DataSource::Stream({good}, stream_spec))
          .ok());
}

TEST(DataSourceTest, OpensFileWithSplits) {
  const std::string path = TempPath("source_file.csv");
  std::string content = "text,label\n";
  for (int i = 0; i < 10; ++i) {
    content += "example number " + std::to_string(i) + "," +
               (i % 2 == 0 ? "even" : "odd") + "\n";
  }
  WriteFile(path, content);
  data::DataSource::FileSpec file;
  file.path = path;
  data::DataSource::SplitSpec split;
  split.train_size = 4;
  split.test_size = 3;
  split.name = "evens";
  auto opened = data::OpenSource(data::DataSource::File(file, split));
  ASSERT_TRUE(opened.ok());
  const data::TaskDataset& ds = opened.value().dataset;
  EXPECT_EQ(ds.name, "evens");
  EXPECT_EQ(ds.num_classes, 2);
  EXPECT_EQ(ds.train.size(), 4u);
  EXPECT_EQ(ds.test.size(), 3u);
  EXPECT_EQ(ds.valid.size(), ds.train.size());
  EXPECT_EQ(ds.unlabeled.size(), 3u);  // 10 - 4 - 3
  ASSERT_EQ(opened.value().label_names.size(), 2u);
  EXPECT_EQ(opened.value().label_names[0], "even");
  EXPECT_EQ(opened.value().stream, nullptr);
}

TEST(DataSourceTest, OpensFileStreamWithSharedLabelSpace) {
  const std::string even_path = TempPath("source_stream_even.csv");
  const std::string odd_path = TempPath("source_stream_odd.csv");
  WriteFile(even_path,
            "text,label\neven one,even\neven two,even\nodd intruder,odd\n");
  WriteFile(odd_path, "text,label\nodd one,odd\nodd two,odd\n");
  data::DataSource::FileSpec even_file, odd_file;
  even_file.path = even_path;
  odd_file.path = odd_path;
  odd_file.weight = 2.0;
  data::DataSource::StreamSpec stream_spec;
  stream_spec.max_steps = 20;
  auto opened = data::OpenSource(
      data::DataSource::Stream({even_file, odd_file}, stream_spec));
  ASSERT_TRUE(opened.ok());
  ASSERT_NE(opened.value().stream, nullptr);
  EXPECT_EQ(opened.value().dataset.num_classes, 2);
  EXPECT_FALSE(opened.value().dataset.valid.empty());
  ASSERT_EQ(opened.value().label_names.size(), 2u);
  // "even" enumerated first (file order), and the stream's draws must map
  // labels through the same enumeration as the materialized examples.
  EXPECT_EQ(opened.value().label_names[0], "even");
  for (int i = 0; i < 30; ++i) {
    auto e = opened.value().stream->Next();
    ASSERT_TRUE(e.ok());
    const bool is_even = e.value().text.rfind("even", 0) == 0;
    EXPECT_EQ(e.value().label, is_even ? 0 : 1) << e.value().text;
  }
}

TEST(ApiTrainSpecTest, RejectsMissingSource) {
  api::TrainSpec neither;
  EXPECT_FALSE(api::Train(neither).ok());
}

// ------------------------------------------------- api: bad resume_from --

// The smallest end-to-end configuration that still runs every stage Train
// runs (pre-training, InvDA for Rotom, the method's training loop).
api::TrainSpec ResumeSpec(eval::Method method, const std::string& checkpoint,
                          const std::string& resume) {
  api::TrainSpec spec;
  spec.source = data::DataSource::Inline(TinyTask());
  spec.method = method;
  spec.seed = 3;
  eval::ExperimentOptions& options = spec.options;
  options.classifier.max_len = 12;
  options.classifier.dim = 16;
  options.classifier.num_heads = 2;
  options.classifier.num_layers = 1;
  options.classifier.ffn_dim = 32;
  options.seq2seq.max_src_len = 12;
  options.seq2seq.max_tgt_len = 12;
  options.seq2seq.dim = 16;
  options.seq2seq.num_layers = 1;
  options.seq2seq.ffn_dim = 32;
  options.invda.epochs = 1;
  options.invda.max_corpus = 12;
  options.invda.augments_per_example = 1;
  options.invda.sampling.max_len = 12;
  options.pretrain.epochs = 1;
  options.pretrain.max_corpus = 12;
  options.epochs = 2;
  options.batch_size = 4;
  options.pipeline.streaming.checkpoint_path = checkpoint;
  options.pipeline.streaming.resume_from = resume;
  return spec;
}

// Train must return an error naming resume_from and `cause`.
void ExpectResumeError(const api::TrainSpec& spec, const char* cause) {
  auto report = api::Train(spec);
  ASSERT_FALSE(report.ok()) << cause;
  const std::string& message = report.status().message();
  EXPECT_NE(message.find("resume_from"), std::string::npos) << message;
  EXPECT_NE(message.find(cause), std::string::npos) << message;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// An epoch-mode Finetune checkpoint written through the facade.
std::string FinetuneCheckpoint(const char* name) {
  const std::string path = TempPath(name);
  auto report = api::Train(ResumeSpec(eval::Method::kBaseline, path, ""));
  EXPECT_TRUE(report.ok()) << report.status().message();
  return path;
}

TEST(ApiResumeTest, MissingCheckpointIsAnError) {
  ExpectResumeError(
      ResumeSpec(eval::Method::kBaseline, "", TempPath("no_such.ckpt")),
      "cannot open");
}

TEST(ApiResumeTest, TruncatedOrCorruptedCheckpointIsAnError) {
  const std::string bytes = ReadBytes(FinetuneCheckpoint("intact.ckpt"));
  ASSERT_GT(bytes.size(), 64u);
  // The intact file resumes (at its recorded step, which ends the run).
  auto intact = api::Train(
      ResumeSpec(eval::Method::kBaseline, "", TempPath("intact.ckpt")));
  EXPECT_TRUE(intact.ok()) << intact.status().message();

  const std::string bad = TempPath("bad.ckpt");
  auto expect_rejected = [&](const std::string& content, const char* cause) {
    WriteFile(bad, content);
    ExpectResumeError(ResumeSpec(eval::Method::kBaseline, "", bad), cause);
  };
  expect_rejected(bytes.substr(0, bytes.size() / 2), "truncated");
  expect_rejected(bytes.substr(0, bytes.size() - 1), "truncated tensor data");
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  expect_rejected(bad_magic, "bad checkpoint magic");
  // The first scalar key's length field (right after magic + count),
  // blown up past the file size.
  std::string bad_length = bytes;
  bad_length[6 + 8 + 7] = '\x7f';
  expect_rejected(bad_length, "truncated scalar");
  // The first tensor's first dim, past the magic, the length-prefixed
  // scalar keys and values, the tensor count, its name and its rank,
  // blown up to 2^40: checked against the bytes left before allocating.
  std::string bad_dim = bytes;
  const auto u64_at = [&](size_t offset) {
    uint64_t value = 0;
    std::memcpy(&value, bad_dim.data() + offset, sizeof(value));
    return value;
  };
  size_t at = 6;
  const uint64_t num_scalars = u64_at(at);
  at += 8;
  for (uint64_t i = 0; i < 2 * num_scalars; ++i) at += 8 + u64_at(at);
  at += 8;
  at += 8 + u64_at(at);
  ASSERT_GE(u64_at(at), 1u);  // the rank
  at += 8;
  const uint64_t huge_dim = uint64_t{1} << 40;
  std::memcpy(bad_dim.data() + at, &huge_dim, sizeof(huge_dim));
  expect_rejected(bad_dim, "truncated tensor data");

  // Every truncation point fails to load cleanly, never aborting.
  for (size_t cut = 0; cut < bytes.size(); cut += 1 + bytes.size() / 97) {
    WriteFile(bad, bytes.substr(0, cut));
    EXPECT_FALSE(core::TrainCheckpoint::Load(bad).ok()) << "cut at " << cut;
  }
}

TEST(ApiResumeTest, FinetuneCheckpointInRotomRunIsAnError) {
  const std::string finetune = FinetuneCheckpoint("finetune_for_rotom.ckpt");
  // Rotom's extra state (M_F/M_W, their Adam moments, the meta-step
  // scalars) is absent.
  ExpectResumeError(ResumeSpec(eval::Method::kRotom, "", finetune),
                    "not found");
}

TEST(ApiResumeTest, DriftedStreamSpecIsAnError) {
  data::DataSource::StreamSpec stream_spec;
  stream_spec.max_steps = 6;
  stream_spec.valid_every = 3;
  stream_spec.shuffle_capacity = 8;
  stream_spec.checkpoint_path = TempPath("drift.ckpt");
  api::TrainSpec spec = ResumeSpec(eval::Method::kBaseline, "", "");
  spec.source = data::DataSource::StreamOf(TinyTask(), stream_spec);
  auto written = api::Train(spec);
  ASSERT_TRUE(written.ok()) << written.status().message();

  // Same checkpoint, a pipeline of a different spec: the replayed stream
  // cursors cannot line up.
  stream_spec.checkpoint_path.clear();
  stream_spec.resume_from = TempPath("drift.ckpt");
  stream_spec.shuffle_capacity = 3;
  spec.source = data::DataSource::StreamOf(TinyTask(), stream_spec);
  ExpectResumeError(spec, "RestoreByReplay");

  // An epoch-mode run over the same data cannot resume a streamed run.
  ExpectResumeError(
      ResumeSpec(eval::Method::kBaseline, "", TempPath("drift.ckpt")),
      "RestoreByReplay");
}

// -------------------------------------------- trainer: epoch kill/resume --

// An epoch-budgeted run (no stream source): `epochs` passes over the train
// split, each a fresh permutation, one validation round per pass.
core::TrainResult RunEpochFinetune(int threads, int64_t epochs,
                                   const std::string& checkpoint = "",
                                   const std::string& resume = "") {
  ThreadGuard guard(threads);
  Rng rng(7);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.epochs = epochs;
  options.batch_size = 4;
  options.aug_mode = core::AugMode::kReplace;
  options.seed = 5;
  options.pipeline.streaming.checkpoint_path = checkpoint;
  options.pipeline.streaming.resume_from = resume;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  return trainer.Train(TinyTask(), DuplicateToken);
}

core::TrainResult RunEpochRotom(int threads, int64_t epochs,
                                const std::string& checkpoint = "",
                                const std::string& resume = "") {
  ThreadGuard guard(threads);
  Rng rng(11);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::RotomOptions options;
  options.epochs = epochs;
  options.batch_size = 6;
  options.augments_per_example = 2;
  options.seed = 5;
  options.pipeline.streaming.checkpoint_path = checkpoint;
  options.pipeline.streaming.resume_from = resume;
  core::RotomTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  return trainer.Train(TinyTask(), [](const std::string& s, Rng& r) {
    return std::vector<std::string>{DuplicateToken(s, r),
                                    DuplicateToken(s, r)};
  });
}

using EpochRun = core::TrainResult (*)(int, int64_t, const std::string&,
                                       const std::string&);

// Kills a 3-epoch run at the first epoch boundary (a 1-epoch budget writes
// its checkpoint there) and resumes it under the full budget.
void ExpectEpochResumeReproducesRun(EpochRun run, const char* name) {
  const std::string ckpt = TempPath((std::string(name) + "_epoch.ckpt").c_str());
  const auto reference = run(1, 3, "", "");
  for (int threads : {1, 4}) {
    const std::string label = std::string(name) + "/" +
                              std::to_string(threads) + "t";
    const auto uninterrupted = run(threads, 3, "", "");
    ExpectIdentical(reference, uninterrupted, label.c_str());
    EXPECT_EQ(uninterrupted.epochs_run, 3) << label;

    const auto before = run(threads, 1, ckpt, "");
    ASSERT_TRUE(before.status.ok()) << before.status.message();
    ASSERT_EQ(before.epochs_run, 1) << label;
    const auto after = run(threads, 3, "", ckpt);
    ASSERT_TRUE(after.status.ok()) << after.status.message();
    EXPECT_EQ(after.epochs_run, 3) << label;

    std::vector<float> stitched = before.loss_history;
    stitched.insert(stitched.end(), after.loss_history.begin(),
                    after.loss_history.end());
    ASSERT_EQ(stitched.size(), uninterrupted.loss_history.size()) << label;
    for (size_t i = 0; i < stitched.size(); ++i) {
      ASSERT_EQ(stitched[i], uninterrupted.loss_history[i])
          << label << ": resume diverged at step " << i;
    }
    EXPECT_EQ(after.best_valid_metric, uninterrupted.best_valid_metric)
        << label;
  }
}

TEST(EpochTrainerTest, FinetuneEpochResumeReproducesUninterruptedRun) {
  // 12 examples, 4 per step: 3 steps per epoch.
  EXPECT_EQ(RunEpochFinetune(1, 3).steps, 9);
  ExpectEpochResumeReproducesRun(RunEpochFinetune, "finetune");
}

TEST(EpochTrainerTest, RotomEpochResumeReproducesUninterruptedRun) {
  // 6 tuples per step = 2 examples with 2 candidates and the original
  // each: 6 steps per epoch.
  EXPECT_EQ(RunEpochRotom(1, 3).steps, 18);
  ExpectEpochResumeReproducesRun(RunEpochRotom, "rotom");
}

}  // namespace
}  // namespace rotom
