#include "models/pretrain.h"

#include <algorithm>
#include <span>
#include <utility>

#include "augment/ops.h"
#include "augment/registry.h"
#include "nn/optim.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/prefetcher.h"

namespace rotom {
namespace models {

float PretrainMaskedLm(TransformerClassifier& model,
                       const std::vector<std::string>& corpus, Rng& rng,
                       const PretrainOptions& options) {
  if (corpus.empty()) return 0.0f;
  ROTOM_TRACE_SPAN("pretrain.mlm");
  const text::Vocabulary& vocab = model.vocab();
  const int64_t vocab_size = vocab.size();
  const int64_t max_len = model.config().max_len;
  const int64_t dim = model.config().dim;

  std::vector<std::string> texts = corpus;
  if (static_cast<int64_t>(texts.size()) > options.max_corpus) {
    rng.Shuffle(texts);
    texts.resize(options.max_corpus);
  }

  // Temporary MLM head over the encoder's hidden states; discarded after
  // pre-training, mirroring how LM pre-training heads are dropped before
  // fine-tuning.
  nn::Linear mlm_head(dim, vocab_size, rng);

  std::vector<Variable> params = model.Parameters();
  for (auto& p : mlm_head.Parameters()) params.push_back(p);
  nn::Adam optimizer(params, options.lr);

  // Encoding consumes no randomness, so prefetching encoded batches leaves
  // the masking rng sequence — and therefore the loss trajectory — exactly
  // as the serial loop produces it.
  const auto cache = core::MakeEncodingCache(options.pipeline, &vocab,
                                             max_len);

  auto runlog = obs::RunLog::Open({options.pipeline.runlog_dir, "mlm"});
  if (runlog) {
    obs::RunLogManifest manifest;
    manifest.Set("trainer", "mlm")
        .Set("epochs", options.epochs)
        .Set("batch_size", options.batch_size)
        .Set("lr", static_cast<double>(options.lr))
        .Set("mask_prob", options.mask_prob)
        .Set("corpus_examples", static_cast<int64_t>(texts.size()));
    runlog->WriteManifest(manifest);
  }

  model.SetTraining(true);
  int64_t steps = 0;
  float last_loss = 0.0f;
  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(texts);
    const size_t batch_size = static_cast<size_t>(options.batch_size);
    const size_t num_batches = (texts.size() + batch_size - 1) / batch_size;
    auto produce = [&](size_t bi) -> text::EncodedBatch {
      const size_t begin = bi * batch_size;
      const size_t end = std::min(begin + batch_size, texts.size());
      return text::AssembleEncodedBatch(
          *cache, std::span<const std::string>(texts).subspan(begin,
                                                              end - begin));
    };
    Prefetcher<text::EncodedBatch> prefetcher(produce, num_batches,
                                              options.pipeline.prefetch,
                                              options.pipeline.prefetch_depth);
    while (auto next = prefetcher.Next()) {
      if (options.max_steps >= 0 && steps >= options.max_steps) break;
      text::EncodedBatch batch = std::move(*next);

      // Select maskable positions and corrupt inputs in place.
      std::vector<int64_t> positions;  // flat indices into [B*T]
      std::vector<int64_t> targets;
      for (size_t i = 0; i < batch.ids.size(); ++i) {
        const int64_t id = batch.ids[i];
        if (text::Vocabulary::IsSpecial(id)) continue;
        if (!rng.Bernoulli(options.mask_prob)) continue;
        positions.push_back(static_cast<int64_t>(i));
        targets.push_back(id);
        const double roll = rng.Uniform();
        if (roll < 0.8) {
          batch.ids[i] = text::SpecialTokens::kMask;
        } else if (roll < 0.9) {
          batch.ids[i] = text::SpecialTokens::kCount +
                         rng.UniformInt(vocab_size - text::SpecialTokens::kCount);
        }  // else keep
      }
      // Ids changed under the encode-time flags; drop them so EncodeHidden
      // recomputes overlap on the corrupted sequence.
      batch.flags.clear();
      if (positions.empty()) continue;

      optimizer.ZeroGrad();
      Variable hidden = model.EncodeHidden(batch, rng);
      Variable flat = ops::Reshape(hidden, {-1, dim});
      // Gather masked rows (Embedding doubles as a differentiable row
      // gather over any 2-D variable).
      Variable gathered = ops::Embedding(flat, positions);
      Variable logits = mlm_head.Forward(gathered);
      Variable loss = ops::CrossEntropyMean(logits, targets);
      loss.Backward();
      const float grad_norm = nn::ClipGradNorm(optimizer.params(), 5.0f);
      optimizer.Step();
      last_loss = loss.value()[0];
      ++steps;
      if (runlog) {
        obs::RunLogStep record;
        record.step = steps;
        record.epoch = epoch;
        record.loss = static_cast<double>(last_loss);
        record.lr = static_cast<double>(options.lr);
        record.grad_norm = static_cast<double>(grad_norm);
        runlog->LogStep(record);
      }
    }
  }
  ROTOM_LOG(Debug) << "MLM pretraining finished after " << steps
                   << " steps, loss " << last_loss;
  return last_loss;
}

namespace {

// A formatting-style view of a record: information is dropped or reordered
// but no content token is replaced (mirrors how two data sources render the
// same entity). `view_ops` comes from SameOriginOptions::view_op_set.
std::string SameOriginPositiveView(
    const std::string& record,
    const std::vector<const augment::Operator*>& view_ops, Rng& rng) {
  auto tokens = text::Tokenize(record);
  const int64_t n_ops = 1 + rng.UniformInt(2);
  for (int64_t i = 0; i < n_ops; ++i) {
    const augment::Operator& op =
        *view_ops[rng.UniformInt(static_cast<int64_t>(view_ops.size()))];
    if (!tokens.empty()) tokens = op.Apply(tokens, {}, rng);
  }
  return text::Detokenize(tokens);
}

// A near-miss: the record with 1-2 content tokens substituted by content
// from another record (a different entity that looks very similar).
std::string SameOriginNearMiss(const std::string& record,
                               const std::string& donor, Rng& rng) {
  auto tokens = text::Tokenize(record);
  auto donor_tokens = text::Tokenize(donor);
  std::vector<size_t> content;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!(tokens[i].size() >= 2 && tokens[i].front() == '[' &&
          tokens[i].back() == ']'))
      content.push_back(i);
  }
  if (content.empty() || donor_tokens.empty()) return donor;
  const int64_t n_subs = 1 + rng.UniformInt(2);
  for (int64_t s = 0; s < n_subs; ++s) {
    const size_t pos =
        content[rng.UniformInt(static_cast<int64_t>(content.size()))];
    tokens[pos] = donor_tokens[rng.UniformInt(
        static_cast<int64_t>(donor_tokens.size()))];
  }
  return text::Detokenize(tokens);
}

}  // namespace

float PretrainSameOrigin(TransformerClassifier& model,
                         const std::vector<std::string>& records, Rng& rng,
                         const SameOriginOptions& options) {
  if (records.size() < 4) return 0.0f;
  ROTOM_TRACE_SPAN("pretrain.same_origin");
  ROTOM_CHECK_EQ(model.config().num_classes, 2);
  // Views operate on single records (is_record, not a pair at this
  // granularity), resolved once for all steps.
  const std::vector<const augment::Operator*> view_ops =
      augment::OperatorRegistry::Global().Resolve(
          options.view_op_set, /*is_pair_task=*/false, /*is_record_task=*/true);
  nn::Adam optimizer(model.Parameters(), options.lr);
  model.SetTraining(true);

  const int64_t n = static_cast<int64_t>(records.size());
  const auto cache = core::MakeEncodingCache(options.pipeline, &model.vocab(),
                                             model.config().max_len);

  auto runlog =
      obs::RunLog::Open({options.pipeline.runlog_dir, "same_origin"});
  if (runlog) {
    obs::RunLogManifest manifest;
    manifest.Set("trainer", "same_origin")
        .Set("steps", options.steps)
        .Set("batch_size", options.batch_size)
        .Set("lr", static_cast<double>(options.lr))
        .Set("corpus_examples", n);
    runlog->WriteManifest(manifest);
  }

  // Pair construction for step s runs under its own Rng stream split from
  // one base seed, so batches can be built (and encoded) on the prefetch
  // thread ahead of the optimizer without changing what any step sees.
  const uint64_t pair_seed = rng.Next64();
  struct PairBatch {
    std::vector<int64_t> labels;
    text::EncodedBatch batch;
  };
  auto produce = [&](size_t step) -> PairBatch {
    Rng pair_rng(SplitSeed(pair_seed, static_cast<uint64_t>(step)));
    PairBatch out;
    std::vector<std::string> texts;
    for (int64_t b = 0; b < options.batch_size; ++b) {
      const std::string& left = records[pair_rng.UniformInt(n)];
      std::string right;
      int64_t label;
      const double roll = pair_rng.Uniform();
      if (roll < 0.5) {
        right = SameOriginPositiveView(left, view_ops, pair_rng);
        label = 1;
      } else if (roll < 0.75) {
        right = records[pair_rng.UniformInt(n)];  // random different record
        label = 0;
      } else {
        right = SameOriginNearMiss(left, records[pair_rng.UniformInt(n)],
                                   pair_rng);
        label = 0;
      }
      texts.push_back(left + " [SEP] " + right);
      out.labels.push_back(label);
    }
    out.batch = text::AssembleEncodedBatch(*cache, texts);
    return out;
  };
  Prefetcher<PairBatch> prefetcher(produce,
                                   static_cast<size_t>(options.steps),
                                   options.pipeline.prefetch,
                                   options.pipeline.prefetch_depth);

  float last_loss = 0.0f;
  int64_t steps = 0;
  while (auto next = prefetcher.Next()) {
    PairBatch pairs = std::move(*next);
    optimizer.ZeroGrad();
    Variable loss = ops::CrossEntropyMean(
        model.ForwardLogitsEncoded(pairs.batch, rng), pairs.labels);
    loss.Backward();
    const float grad_norm = nn::ClipGradNorm(optimizer.params(), 5.0f);
    optimizer.Step();
    last_loss = loss.value()[0];
    ++steps;
    if (runlog) {
      obs::RunLogStep record;
      record.step = steps;
      record.loss = static_cast<double>(last_loss);
      record.lr = static_cast<double>(options.lr);
      record.grad_norm = static_cast<double>(grad_norm);
      runlog->LogStep(record);
    }
  }
  ROTOM_LOG(Debug) << "same-origin pretraining loss " << last_loss;
  return last_loss;
}

}  // namespace models
}  // namespace rotom
