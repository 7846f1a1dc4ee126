// Trainer-level determinism of the pipelined data path: the encoding cache,
// the background prefetcher, and the compute-pool size are pure performance
// knobs, so every configuration must produce bit-identical loss trajectories
// (core/pipeline.h contract; DESIGN.md §8). These tests train the real
// trainers on a tiny task under each configuration and compare
// TrainResult::loss_history float-for-float. scripts/check.sh additionally
// runs this binary under TSan at several pool sizes.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "augment/ops.h"
#include "augment/registry.h"
#include "augment/synonyms.h"
#include "core/finetune.h"
#include "core/rotom_trainer.h"
#include "models/pretrain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/idf.h"
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
  config.dropout = 0.1f;  // keep dropout on: it must not disturb determinism
  return config;
}

data::TaskDataset TinyTask() {
  data::TaskDataset ds;
  ds.name = "tiny";
  ds.num_classes = 2;
  const char* pos[] = {"the movie was great", "really great movie",
                       "a fantastic movie",   "the product was good",
                       "good good movie",     "really fine product"};
  const char* neg[] = {"the movie was terrible", "really bad movie",
                       "a boring movie",         "the product was awful",
                       "bad bad movie",          "really awful product"};
  for (const char* t : pos) ds.train.push_back({t, 1});
  for (const char* t : neg) ds.train.push_back({t, 0});
  ds.valid = ds.train;
  ds.test = {{"the movie was fantastic", 1}, {"a terrible movie", 0}};
  for (const auto& e : ds.train) ds.unlabeled.push_back(e.text);
  ds.unlabeled.push_back("really great product");
  ds.unlabeled.push_back("a bad boring movie");
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

struct PipelineConfig {
  const char* label;
  core::PipelineOptions options;
  int threads;
};

// The serial reference (no cache, inline production, 1 pool thread) plus
// every knob flipped individually and all together.
std::vector<PipelineConfig> AllConfigs() {
  core::PipelineOptions off;
  off.cache_rows = 0;
  off.prefetch = false;
  core::PipelineOptions cache_only = off;
  cache_only.cache_rows = 1 << 12;
  core::PipelineOptions prefetch_only = off;
  prefetch_only.prefetch = true;
  core::PipelineOptions full;  // defaults: cache + prefetch
  return {{"serial/1t", off, 1},
          {"cache/1t", cache_only, 1},
          {"prefetch/1t", prefetch_only, 1},
          {"full/1t", full, 1},
          {"full/4t", full, 4}};
}

class ThreadGuard {
 public:
  explicit ThreadGuard(int n) { SetComputeThreads(n); }
  ~ThreadGuard() { SetComputeThreads(0); }
};

core::TrainResult RunFinetune(const PipelineConfig& config,
                              core::AugMode mode) {
  ThreadGuard guard(config.threads);
  Rng rng(7);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::FinetuneOptions options;
  options.epochs = 3;
  options.batch_size = 4;
  options.aug_mode = mode;
  options.seed = 5;
  options.pipeline = config.options;
  core::FinetuneTrainer trainer(&model, eval::MetricKind::kAccuracy, options);
  return trainer.Train(TinyTask(), DuplicateToken);
}

core::TrainResult RunRotom(const PipelineConfig& config, bool use_ssl,
                           int64_t meta_update_every = 1) {
  ThreadGuard guard(config.threads);
  Rng rng(11);
  auto vocab = TaskVocab();
  models::TransformerClassifier model(TinyConfig(), vocab, rng);
  core::RotomOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.augments_per_example = 2;
  options.use_ssl = use_ssl;
  options.ssl_warmup_epochs = 0;
  options.meta_update_every = meta_update_every;
  options.seed = 5;
  options.pipeline = config.options;
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
    // Bit-identical, not approximately equal: the data path must not touch
    // numerics at all.
    ASSERT_EQ(reference.loss_history[i], candidate.loss_history[i])
        << label << " diverged at step " << i;
  }
  EXPECT_EQ(reference.best_valid_metric, candidate.best_valid_metric) << label;
}

TEST(PipelineDeterminismTest, FinetuneReplaceModeIsConfigInvariant) {
  const auto configs = AllConfigs();
  const auto reference = RunFinetune(configs[0], core::AugMode::kReplace);
  EXPECT_GT(reference.steps, 0);
  ASSERT_FALSE(reference.loss_history.empty());
  for (size_t c = 1; c < configs.size(); ++c) {
    ExpectIdentical(reference,
                    RunFinetune(configs[c], core::AugMode::kReplace),
                    configs[c].label);
  }
}

TEST(PipelineDeterminismTest, FinetuneMixDaModeIsConfigInvariant) {
  const auto configs = AllConfigs();
  const auto reference = RunFinetune(configs[0], core::AugMode::kMixDa);
  ASSERT_FALSE(reference.loss_history.empty());
  for (size_t c = 1; c < configs.size(); ++c) {
    ExpectIdentical(reference,
                    RunFinetune(configs[c], core::AugMode::kMixDa),
                    configs[c].label);
  }
}

TEST(PipelineDeterminismTest, RotomTrainerIsConfigInvariant) {
  const auto configs = AllConfigs();
  const auto reference = RunRotom(configs[0], /*use_ssl=*/false);
  EXPECT_GT(reference.steps, 0);
  ASSERT_FALSE(reference.loss_history.empty());
  for (size_t c = 1; c < configs.size(); ++c) {
    ExpectIdentical(reference, RunRotom(configs[c], /*use_ssl=*/false),
                    configs[c].label);
  }
}

TEST(PipelineDeterminismTest, RotomSslIsConfigInvariant) {
  const auto configs = AllConfigs();
  const auto reference = RunRotom(configs[0], /*use_ssl=*/true);
  ASSERT_FALSE(reference.loss_history.empty());
  // SSL adds the unlabeled-pool scoring path (cache-assembled batches);
  // spot-check the serial reference against the full pipeline at 1 and 4
  // threads to bound runtime.
  ExpectIdentical(reference, RunRotom(configs[3], /*use_ssl=*/true),
                  configs[3].label);
  ExpectIdentical(reference, RunRotom(configs[4], /*use_ssl=*/true),
                  configs[4].label);
}

TEST(PipelineDeterminismTest, RotomEveryOtherMetaStepIsConfigInvariant) {
  // The bench cadence: phase 2 on every second step, so half the steps skip
  // the parameter snapshots and run M_W without a graph.
  const auto configs = AllConfigs();
  for (bool use_ssl : {false, true}) {
    const auto reference = RunRotom(configs[0], use_ssl, 2);
    ASSERT_FALSE(reference.loss_history.empty());
    ExpectIdentical(reference, RunRotom(configs[2], use_ssl, 2),
                    use_ssl ? "ssl prefetch/1t" : "prefetch/1t");
    ExpectIdentical(reference, RunRotom(configs[4], use_ssl, 2),
                    use_ssl ? "ssl full/4t" : "full/4t");
  }
}

TEST(PipelineDeterminismTest, InstrumentationIsResultInvariant) {
  // Metrics counters + trace spans must be pure observers: running the full
  // pipelined trainer with everything recording has to reproduce the
  // trajectory of a run with instrumentation switched off, bit for bit
  // (obs/metrics.h and obs/trace.h determinism contract).
  const auto configs = AllConfigs();
  const bool was_enabled = obs::Enabled();
  const std::string was_path = obs::TracePath();

  obs::SetEnabled(false);
  const auto reference = RunRotom(configs[4], /*use_ssl=*/true);
  ASSERT_FALSE(reference.loss_history.empty());

  obs::SetEnabled(true);
  const std::string trace_path =
      testing::TempDir() + "/rotom_determinism_trace.json";
  obs::SetTracePath(trace_path);
  const auto instrumented = RunRotom(configs[4], /*use_ssl=*/true);

  obs::SetTracePath(was_path);
  obs::SetEnabled(was_enabled);
  obs::ClearTrace();
  std::remove(trace_path.c_str());

  ExpectIdentical(reference, instrumented, "metrics+tracing on");
}

TEST(PipelineDeterminismTest, RunLogStreamIsConfigInvariant) {
  // The flight recorder's step/epoch events must be pure functions of the
  // training trajectory (obs/runlog.h determinism contract): byte-identical
  // across thread counts and cache/prefetch settings. Manifest and end
  // events are excluded — they intentionally carry wall-clock time and the
  // thread configuration.
  auto trajectory = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"event\": \"step\"") != std::string::npos ||
          line.find("\"event\": \"epoch\"") != std::string::npos)
        lines.push_back(line);
    }
    return lines;
  };
  auto run = [&](PipelineConfig config) {
    config.options.runlog_dir = testing::TempDir() + "/runlog_determinism";
    const auto result = RunRotom(config, /*use_ssl=*/false);
    EXPECT_FALSE(result.runlog_path.empty()) << config.label;
    auto lines = trajectory(result.runlog_path);
    std::remove(result.runlog_path.c_str());
    return lines;
  };
  const auto configs = AllConfigs();
  const auto reference = run(configs[0]);
  ASSERT_FALSE(reference.empty());
  for (size_t c = 1; c < configs.size(); ++c) {
    const auto candidate = run(configs[c]);
    ASSERT_EQ(reference.size(), candidate.size()) << configs[c].label;
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(reference[i], candidate[i])
          << configs[c].label << " diverged at event " << i;
    }
  }
}

TEST(PipelineDeterminismTest, MaskedLmPretrainIsConfigInvariant) {
  auto ds = TinyTask();
  auto run = [&](const PipelineConfig& config) {
    ThreadGuard guard(config.threads);
    Rng rng(13);
    auto vocab = TaskVocab();
    models::TransformerClassifier model(TinyConfig(), vocab, rng);
    models::PretrainOptions options;
    options.epochs = 2;
    options.batch_size = 4;
    options.pipeline = config.options;
    Rng train_rng(21);
    return PretrainMaskedLm(model, ds.unlabeled, train_rng, options);
  };
  const auto configs = AllConfigs();
  const float reference = run(configs[0]);
  for (size_t c = 1; c < configs.size(); ++c) {
    EXPECT_EQ(reference, run(configs[c])) << configs[c].label;
  }
}

TEST(PipelineDeterminismTest, SameOriginPretrainIsConfigInvariant) {
  auto ds = TinyTask();
  auto run = [&](const PipelineConfig& config) {
    ThreadGuard guard(config.threads);
    Rng rng(17);
    auto vocab = TaskVocab();
    models::TransformerClassifier model(TinyConfig(), vocab, rng);
    models::SameOriginOptions options;
    options.steps = 6;
    options.batch_size = 4;
    options.pipeline = config.options;
    Rng train_rng(23);
    return PretrainSameOrigin(model, ds.unlabeled, train_rng, options);
  };
  const auto configs = AllConfigs();
  const float reference = run(configs[0]);
  for (size_t c = 1; c < configs.size(); ++c) {
    EXPECT_EQ(reference, run(configs[c])) << configs[c].label;
  }
}

// ---------------------------------------------------------------------------
// Registry-vs-legacy operator equivalence: the OperatorRegistry refactor
// (DESIGN.md §11) must not change a single RNG draw for the nine original
// Table-3 operators. `legacy` below is a frozen copy of the pre-registry
// switch-dispatch implementations; every registered original must reproduce
// it bit-identically under the same SplitSeed stream. The one intended
// divergence: legacy token_del could empty a single-token input, the
// registry operator returns it unchanged (drawing nothing either way).
// ---------------------------------------------------------------------------

namespace legacy {

using augment::AugmentContext;
using augment::ColumnSpan;
using Tokens = std::vector<std::string>;

bool IsStructural(const std::string& token) {
  return token.size() >= 2 && token.front() == '[' && token.back() == ']';
}

std::vector<size_t> ContentPositions(const Tokens& tokens) {
  std::vector<size_t> out;
  for (size_t i = 0; i < tokens.size(); ++i)
    if (!IsStructural(tokens[i])) out.push_back(i);
  return out;
}

size_t SampleContentPosition(const Tokens& tokens,
                             const std::vector<size_t>& positions,
                             const AugmentContext& context, Rng& rng) {
  if (context.idf == nullptr) {
    return positions[rng.UniformInt(static_cast<int64_t>(positions.size()))];
  }
  std::vector<double> weights;
  weights.reserve(positions.size());
  for (size_t p : positions)
    weights.push_back(context.idf->CorruptionWeight(tokens[p]));
  return positions[rng.WeightedIndex(weights)];
}

std::vector<ColumnSpan> FindColumns(const Tokens& tokens, size_t range_begin,
                                    size_t range_end) {
  std::vector<ColumnSpan> cols;
  range_end = std::min(range_end, tokens.size());
  for (size_t i = range_begin; i < range_end; ++i) {
    if (tokens[i] == "[COL]") {
      if (!cols.empty()) cols.back().end = i;
      cols.push_back({i, range_end});
    }
  }
  return cols;
}

size_t FindEntitySep(const Tokens& tokens) {
  for (size_t i = 0; i < tokens.size(); ++i)
    if (tokens[i] == "[SEP]") return i;
  return tokens.size();
}

Tokens TokenDel(const Tokens& tokens, const AugmentContext& context,
                Rng& rng) {
  auto positions = ContentPositions(tokens);
  if (positions.empty()) return tokens;
  const size_t victim =
      legacy::SampleContentPosition(tokens, positions, context, rng);
  Tokens out;
  for (size_t i = 0; i < tokens.size(); ++i)
    if (i != victim) out.push_back(tokens[i]);
  return out;
}

Tokens TokenRepl(const Tokens& tokens, const AugmentContext& context,
                 Rng& rng) {
  auto positions = ContentPositions(tokens);
  if (positions.empty()) return tokens;
  if (context.synonyms != nullptr) {
    std::vector<size_t> with_syn;
    for (size_t p : positions)
      if (context.synonyms->HasSynonyms(tokens[p])) with_syn.push_back(p);
    if (!with_syn.empty()) positions = std::move(with_syn);
  }
  const size_t victim =
      legacy::SampleContentPosition(tokens, positions, context, rng);
  Tokens out = tokens;
  if (context.synonyms != nullptr &&
      context.synonyms->HasSynonyms(tokens[victim])) {
    const auto& syns = context.synonyms->Synonyms(tokens[victim]);
    out[victim] = syns[rng.UniformInt(static_cast<int64_t>(syns.size()))];
  }
  return out;
}

Tokens TokenSwap(const Tokens& tokens, Rng& rng) {
  auto positions = ContentPositions(tokens);
  if (positions.size() < 2) return tokens;
  const int64_t n = static_cast<int64_t>(positions.size());
  const size_t a = positions[rng.UniformInt(n)];
  size_t b = positions[rng.UniformInt(n)];
  int attempts = 0;
  while (b == a && attempts++ < 8) b = positions[rng.UniformInt(n)];
  Tokens out = tokens;
  std::swap(out[a], out[b]);
  return out;
}

Tokens TokenInsert(const Tokens& tokens, const AugmentContext& context,
                   Rng& rng) {
  auto positions = ContentPositions(tokens);
  if (positions.empty()) return tokens;
  const size_t anchor =
      legacy::SampleContentPosition(tokens, positions, context, rng);
  std::string inserted = tokens[anchor];
  if (context.synonyms != nullptr &&
      context.synonyms->HasSynonyms(tokens[anchor])) {
    const auto& syns = context.synonyms->Synonyms(tokens[anchor]);
    inserted = syns[rng.UniformInt(static_cast<int64_t>(syns.size()))];
  }
  Tokens out = tokens;
  out.insert(out.begin() + static_cast<int64_t>(anchor) + 1, inserted);
  return out;
}

std::pair<size_t, size_t> ContentRunAround(const Tokens& tokens,
                                           size_t start) {
  size_t lo = start;
  while (lo > 0 && !IsStructural(tokens[lo - 1])) --lo;
  size_t hi = start + 1;
  while (hi < tokens.size() && !IsStructural(tokens[hi])) ++hi;
  return {lo, hi};
}

Tokens SpanDel(const Tokens& tokens, const AugmentContext& context,
               Rng& rng) {
  auto positions = ContentPositions(tokens);
  if (positions.empty()) return tokens;
  const size_t anchor =
      legacy::SampleContentPosition(tokens, positions, context, rng);
  auto [lo, hi] = ContentRunAround(tokens, anchor);
  size_t span_len = std::min<size_t>(2 + rng.UniformInt(3), hi - lo);
  if (hi - lo == tokens.size() && span_len == tokens.size()) {
    span_len = tokens.size() - 1;
  }
  if (span_len == 0) return tokens;
  const size_t begin =
      lo + rng.UniformInt(static_cast<int64_t>(hi - lo - span_len) + 1);
  Tokens out;
  for (size_t i = 0; i < tokens.size(); ++i)
    if (i < begin || i >= begin + span_len) out.push_back(tokens[i]);
  return out;
}

Tokens SpanShuffle(const Tokens& tokens, const AugmentContext& context,
                   Rng& rng) {
  auto positions = ContentPositions(tokens);
  if (positions.empty()) return tokens;
  const size_t anchor =
      legacy::SampleContentPosition(tokens, positions, context, rng);
  auto [lo, hi] = ContentRunAround(tokens, anchor);
  const size_t span_len = std::min<size_t>(2 + rng.UniformInt(3), hi - lo);
  const size_t begin =
      lo + rng.UniformInt(static_cast<int64_t>(hi - lo - span_len) + 1);
  Tokens out = tokens;
  Tokens span(out.begin() + begin, out.begin() + begin + span_len);
  rng.Shuffle(span);
  std::copy(span.begin(), span.end(), out.begin() + begin);
  return out;
}

Tokens ColShuffle(const Tokens& tokens, Rng& rng) {
  const size_t sep = FindEntitySep(tokens);
  size_t begin = 0, end = tokens.size();
  if (sep < tokens.size()) {
    if (rng.Bernoulli(0.5)) {
      end = sep;
    } else {
      begin = sep + 1;
    }
  }
  auto cols = FindColumns(tokens, begin, end);
  if (cols.size() < 2) return tokens;
  const int64_t n = static_cast<int64_t>(cols.size());
  int64_t a = rng.UniformInt(n);
  int64_t b = rng.UniformInt(n);
  int attempts = 0;
  while (b == a && attempts++ < 8) b = rng.UniformInt(n);
  if (a == b) return tokens;
  if (a > b) std::swap(a, b);
  Tokens out(tokens.begin(), tokens.begin() + static_cast<int64_t>(begin));
  for (int64_t c = 0; c < n; ++c) {
    int64_t src = c == a ? b : (c == b ? a : c);
    out.insert(out.end(),
               tokens.begin() + static_cast<int64_t>(cols[src].begin),
               tokens.begin() + static_cast<int64_t>(cols[src].end));
  }
  out.insert(out.end(), tokens.begin() + static_cast<int64_t>(end),
             tokens.end());
  return out;
}

Tokens ColDel(const Tokens& tokens, Rng& rng) {
  const size_t sep = FindEntitySep(tokens);
  size_t begin = 0, end = tokens.size();
  if (sep < tokens.size()) {
    if (rng.Bernoulli(0.5)) {
      end = sep;
    } else {
      begin = sep + 1;
    }
  }
  auto cols = FindColumns(tokens, begin, end);
  if (cols.size() < 2) return tokens;
  const auto& victim = cols[rng.UniformInt(static_cast<int64_t>(cols.size()))];
  Tokens out;
  for (size_t i = 0; i < tokens.size(); ++i)
    if (i < victim.begin || i >= victim.end) out.push_back(tokens[i]);
  return out;
}

Tokens EntitySwap(const Tokens& tokens) {
  const size_t sep = FindEntitySep(tokens);
  if (sep >= tokens.size()) return tokens;
  Tokens out(tokens.begin() + static_cast<int64_t>(sep) + 1, tokens.end());
  out.push_back("[SEP]");
  out.insert(out.end(), tokens.begin(),
             tokens.begin() + static_cast<int64_t>(sep));
  return out;
}

Tokens Apply(const std::string& name, const Tokens& tokens,
             const AugmentContext& context, Rng& rng) {
  if (tokens.empty()) return tokens;
  if (name == "token_del") return TokenDel(tokens, context, rng);
  if (name == "token_repl") return TokenRepl(tokens, context, rng);
  if (name == "token_swap") return TokenSwap(tokens, rng);
  if (name == "token_insert") return TokenInsert(tokens, context, rng);
  if (name == "span_del") return SpanDel(tokens, context, rng);
  if (name == "span_shuffle") return SpanShuffle(tokens, context, rng);
  if (name == "col_shuffle") return ColShuffle(tokens, rng);
  if (name == "col_del") return ColDel(tokens, rng);
  if (name == "entity_swap") return EntitySwap(tokens);
  ADD_FAILURE() << "no legacy reference for " << name;
  return tokens;
}

}  // namespace legacy

TEST(RegistryEquivalenceTest, OriginalOperatorsMatchLegacyBitForBit) {
  const std::vector<std::string> originals = {
      "token_del",  "token_repl",   "token_swap",  "token_insert", "span_del",
      "span_shuffle", "col_shuffle", "col_del",    "entity_swap"};
  const std::vector<std::string> inputs = {
      "where is the orange bowl ?",
      "really great movie",
      "[COL] title [VAL] efficient query processing [COL] year [VAL] 1999",
      "[COL] name [VAL] google llc [COL] phone [VAL] 123 [SEP] "
      "[COL] name [VAL] alphabet inc [COL] phone [VAL] 456",
      "great",
      "a b",
  };
  std::vector<std::vector<std::string>> docs;
  for (const auto& input : inputs) docs.push_back(text::Tokenize(input));
  const text::IdfTable idf = text::IdfTable::Build(docs);

  // Three context shapes: bare, synonyms-only, idf+synonyms — each arm of
  // the legacy branching.
  augment::AugmentContext bare;
  augment::AugmentContext with_syn;
  with_syn.synonyms = &augment::SynonymLexicon::Default();
  augment::AugmentContext full = with_syn;
  full.idf = &idf;

  for (const auto& name : originals) {
    const augment::Operator& op =
        augment::OperatorRegistry::Global().Require(name);
    for (const auto* context : {&bare, &with_syn, &full}) {
      for (uint64_t epoch_seed : {1u, 2u, 3u}) {
        for (size_t i = 0; i < inputs.size(); ++i) {
          // The per-example stream the trainers use (SplitSeed), so the
          // comparison runs under realistic seeds, many per operator.
          Rng new_rng(SplitSeed(epoch_seed, i));
          Rng old_rng(SplitSeed(epoch_seed, i));
          const auto tokens = text::Tokenize(inputs[i]);
          for (int trial = 0; trial < 8; ++trial) {
            const auto got = op.Apply(tokens, *context, new_rng);
            const auto want = legacy::Apply(name, tokens, *context, old_rng);
            if (name == "token_del" && tokens.size() == 1 && want.empty()) {
              // The one intended fix: never empty the sequence.
              EXPECT_EQ(got, tokens) << name;
            } else {
              ASSERT_EQ(got, want)
                  << name << " on '" << inputs[i] << "' trial " << trial;
            }
          }
          // Both sides must have consumed the same number of draws or the
          // streams of everything sampled afterwards would shift. The
          // single-token token_del fix is again the one exception: legacy
          // drew a position before emptying, the registry operator returns
          // early without drawing.
          if (!(name == "token_del" && tokens.size() == 1)) {
            EXPECT_EQ(new_rng.Next64(), old_rng.Next64()) << name;
          }
        }
      }
    }
  }
}

TEST(RegistryEquivalenceTest, DefaultOpsMatchLegacyOpsForTask) {
  // OpsForTask(is_pair, is_record) sized 6 / 8 / 9 in the enum order the
  // trainers indexed with rng.UniformInt — DefaultOps must list the same
  // names in the same order or candidate sampling shifts.
  auto names = [](bool pair, bool record) {
    std::vector<std::string> out;
    for (const auto* op :
         augment::OperatorRegistry::Global().DefaultOps(pair, record)) {
      out.push_back(op->name());
    }
    return out;
  };
  const std::vector<std::string> base = {"token_del",  "token_repl",
                                         "token_swap", "token_insert",
                                         "span_del",   "span_shuffle"};
  EXPECT_EQ(names(false, false), base);
  auto record = base;
  record.push_back("col_shuffle");
  record.push_back("col_del");
  EXPECT_EQ(names(false, true), record);
  auto pair_record = record;
  pair_record.push_back("entity_swap");
  EXPECT_EQ(names(true, true), pair_record);
}

}  // namespace
}  // namespace rotom
