#include "models/seq2seq.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"

namespace rotom {
namespace models {

namespace {

nn::TransformerConfig NetConfig(const Seq2SeqConfig& config, int64_t vocab_size,
                                int64_t max_seq_len) {
  nn::TransformerConfig net;
  net.vocab_size = vocab_size;
  net.dim = config.dim;
  net.num_heads = config.num_heads;
  net.num_layers = config.num_layers;
  net.ffn_dim = config.ffn_dim;
  net.max_seq_len = max_seq_len;
  net.dropout = config.dropout;
  return net;
}

}  // namespace

Seq2SeqModel::Seq2SeqModel(const Seq2SeqConfig& config,
                           std::shared_ptr<const text::Vocabulary> vocab,
                           Rng& rng)
    : config_(config),
      vocab_(std::move(vocab)),
      encoder_(NetConfig(config, vocab_->size(), config.max_src_len), rng),
      decoder_(NetConfig(config, vocab_->size(), config.max_tgt_len), rng) {
  RegisterSubmodule("encoder", &encoder_);
  RegisterSubmodule("decoder", &decoder_);
}

Variable Seq2SeqModel::Loss(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    Rng& rng) const {
  ROTOM_CHECK(!pairs.empty());
  const int64_t b = static_cast<int64_t>(pairs.size());
  const int64_t src_len = config_.max_src_len;
  const int64_t tgt_len = config_.max_tgt_len;

  // Encode sources with [BOS]/[EOS] framing.
  std::vector<int64_t> src_ids;
  Tensor src_mask({b, src_len});
  std::vector<int64_t> dec_in;
  Tensor dec_mask({b, tgt_len});
  std::vector<int64_t> labels;          // flat [b * tgt_len]
  std::vector<float> label_weights;     // 1 where a real target token exists
  for (int64_t i = 0; i < b; ++i) {
    const auto src =
        text::EncodeForSeq2Seq(*vocab_, text::Tokenize(pairs[i].first), src_len);
    const auto tgt =
        text::EncodeForSeq2Seq(*vocab_, text::Tokenize(pairs[i].second), tgt_len);
    src_ids.insert(src_ids.end(), src.ids.begin(), src.ids.end());
    for (int64_t t = 0; t < src_len; ++t) src_mask.at({i, t}) = src.mask[t];
    // Decoder input is the target shifted right; label at step t is the
    // target token at t+1.
    for (int64_t t = 0; t < tgt_len; ++t) {
      dec_in.push_back(tgt.ids[t]);
      dec_mask.at({i, t}) = tgt.mask[t];
      const bool has_label = t + 1 < tgt_len && tgt.mask[t + 1] > 0.5f;
      labels.push_back(has_label ? tgt.ids[t + 1] : text::SpecialTokens::kPad);
      label_weights.push_back(has_label ? 1.0f : 0.0f);
    }
  }

  Variable memory = encoder_.Forward(src_ids, b, src_len, src_mask, rng);
  Variable logits =
      decoder_.Forward(dec_in, b, tgt_len, dec_mask, memory, src_mask, rng);
  Variable flat = ops::Reshape(logits, {b * tgt_len, vocab_->size()});
  Variable per_token = ops::CrossEntropyPerExample(flat, labels);
  Variable weights(
      Tensor::FromVector({b * tgt_len}, std::move(label_weights)), false);
  const float total_weight = weights.value().Sum();
  ROTOM_CHECK_GT(total_weight, 0.0f);
  return ops::Scale(ops::Dot(per_token, weights), 1.0f / total_weight);
}

std::vector<std::string> Seq2SeqModel::GenerateBatch(
    const std::vector<std::string>& sources, const SamplingOptions& options,
    Rng& rng) const {
  ROTOM_CHECK(!sources.empty());
  ROTOM_CHECK_MSG(!training(), "call SetTraining(false) before generation");
  const int64_t b = static_cast<int64_t>(sources.size());
  const int64_t src_len = config_.max_src_len;
  const int64_t max_out =
      std::min<int64_t>(options.max_len, config_.max_tgt_len - 1);

  std::vector<int64_t> src_ids;
  Tensor src_mask({b, src_len});
  for (int64_t i = 0; i < b; ++i) {
    const auto src = text::EncodeForSeq2Seq(
        *vocab_, text::Tokenize(sources[i]), src_len);
    src_ids.insert(src_ids.end(), src.ids.begin(), src.ids.end());
    for (int64_t t = 0; t < src_len; ++t) src_mask.at({i, t}) = src.mask[t];
  }
  Rng dummy(0);  // generation runs the nets without dropout state
  NoGradGuard guard;
  Variable memory = encoder_.Forward(src_ids, b, src_len, src_mask, dummy);
  nn::DecoderCache cache = decoder_.StartDecode(memory, src_mask);

  std::vector<std::vector<int64_t>> generated(b);
  std::vector<bool> finished(b, false);
  const int64_t vocab_size = vocab_->size();
  // The token each row feeds the decoder next: [BOS], then what it sampled.
  std::vector<int64_t> next(b, text::SpecialTokens::kBos);

  for (int64_t step = 0; step < max_out; ++step) {
    Variable logits = decoder_.Step(next, cache);  // [b,1,vocab]
    // Sample each row's next token from the logits at the new position.
    for (int64_t i = 0; i < b; ++i) {
      if (finished[i]) {
        generated[i].push_back(text::SpecialTokens::kPad);
        continue;
      }
      const float* row = logits.value().data() + i * vocab_size;
      std::vector<std::pair<float, int64_t>> scored(vocab_size);
      for (int64_t v = 0; v < vocab_size; ++v) scored[v] = {row[v], v};
      // Never generate padding/mask/CLS.
      scored[text::SpecialTokens::kPad].first = -1e30f;
      scored[text::SpecialTokens::kMask].first = -1e30f;
      scored[text::SpecialTokens::kCls].first = -1e30f;
      scored[text::SpecialTokens::kBos].first = -1e30f;
      const int64_t k =
          std::min<int64_t>(options.top_k, vocab_size);
      std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                        [](const auto& a, const auto& c) {
                          return a.first > c.first;
                        });
      // Softmax over the top-k then nucleus-truncate at top_p.
      float mx = scored[0].first;
      double denom = 0.0;
      std::vector<double> probs(k);
      for (int64_t j = 0; j < k; ++j) {
        probs[j] = std::exp(static_cast<double>(scored[j].first - mx));
        denom += probs[j];
      }
      double cum = 0.0;
      std::vector<double> weights;
      for (int64_t j = 0; j < k; ++j) {
        const double p = probs[j] / denom;
        if (cum >= options.top_p && j > 0) break;
        weights.push_back(p);
        cum += p;
      }
      const int64_t pick = rng.WeightedIndex(weights);
      const int64_t token = scored[pick].second;
      if (token == text::SpecialTokens::kEos) {
        finished[i] = true;
        generated[i].push_back(text::SpecialTokens::kPad);
      } else {
        generated[i].push_back(token);
      }
    }
    for (int64_t i = 0; i < b; ++i) next[i] = generated[i].back();
    if (std::all_of(finished.begin(), finished.end(),
                    [](bool f) { return f; })) {
      break;
    }
  }

  std::vector<std::string> outputs(b);
  for (int64_t i = 0; i < b; ++i) {
    std::vector<std::string> tokens;
    for (int64_t id : generated[i]) {
      if (id == text::SpecialTokens::kPad) continue;
      tokens.push_back(vocab_->Token(id));
    }
    outputs[i] = text::Detokenize(tokens);
  }
  return outputs;
}

std::string Seq2SeqModel::Generate(const std::string& source,
                                   const SamplingOptions& options,
                                   Rng& rng) const {
  return GenerateBatch({source}, options, rng)[0];
}

std::string Seq2SeqModel::GenerateBeam(const std::string& source,
                                       int64_t beam_width,
                                       int64_t max_len) const {
  ROTOM_CHECK_MSG(!training(), "call SetTraining(false) before generation");
  ROTOM_CHECK_GT(beam_width, 0);
  const int64_t src_len = config_.max_src_len;
  max_len = std::min<int64_t>(max_len, config_.max_tgt_len - 1);

  const auto src = text::EncodeForSeq2Seq(*vocab_, text::Tokenize(source),
                                          src_len);
  Tensor src_mask({1, src_len});
  for (int64_t t = 0; t < src_len; ++t) src_mask.at({0, t}) = src.mask[t];
  Rng dummy(0);
  NoGradGuard guard;
  nn::DecoderCache cache = decoder_.StartDecode(
      encoder_.Forward(src.ids, 1, src_len, src_mask, dummy), src_mask);

  struct Beam {
    std::vector<int64_t> tokens;
    double log_prob = 0.0;
    bool finished = false;
    int64_t row = 0;  // the decoder cache row holding this beam's prefix
  };
  std::vector<Beam> beams = {Beam{}};
  const int64_t vocab_size = vocab_->size();

  for (int64_t step = 0; step < max_len; ++step) {
    if (std::all_of(beams.begin(), beams.end(),
                    [](const Beam& b) { return b.finished; })) {
      break;
    }
    // Batch all beams through one decoder step, each continuing from its
    // parent's cached prefix. Position `step` holds [BOS] at step 0, then
    // the beam's token from the step before ([PAD] once it finished).
    const int64_t nb = static_cast<int64_t>(beams.size());
    std::vector<int64_t> rows(nb);
    std::vector<int64_t> ids(nb);
    for (int64_t i = 0; i < nb; ++i) {
      rows[i] = beams[i].row;
      const auto& tokens = beams[i].tokens;
      ids[i] = step == 0 ? text::SpecialTokens::kBos
               : step - 1 < static_cast<int64_t>(tokens.size())
                   ? tokens[step - 1]
                   : text::SpecialTokens::kPad;
    }
    cache.SelectRows(rows);
    Variable logits = decoder_.Step(ids, cache);  // [nb,1,vocab]
    // Log-softmax of each beam's new position; expand.
    std::vector<Beam> expanded;
    for (int64_t i = 0; i < nb; ++i) {
      if (beams[i].finished) {
        expanded.push_back(beams[i]);
        expanded.back().row = i;
        continue;
      }
      // Stable log-softmax over the vocabulary.
      const float* row = logits.value().data() + i * vocab_size;
      const double lse = kernels::RowLogSumExp(row, vocab_size);
      std::vector<std::pair<double, int64_t>> scored;
      scored.reserve(vocab_size);
      for (int64_t v = 0; v < vocab_size; ++v) {
        if (v == text::SpecialTokens::kPad || v == text::SpecialTokens::kBos ||
            v == text::SpecialTokens::kMask || v == text::SpecialTokens::kCls)
          continue;
        scored.emplace_back(static_cast<double>(row[v]) - lse, v);
      }
      std::partial_sort(
          scored.begin(),
          scored.begin() + std::min<int64_t>(beam_width, scored.size()),
          scored.end(), [](const auto& a, const auto& b) {
            return a.first > b.first;
          });
      for (int64_t k = 0; k < beam_width &&
                          k < static_cast<int64_t>(scored.size());
           ++k) {
        Beam next = beams[i];
        next.row = i;
        next.log_prob += scored[k].first;
        if (scored[k].second == text::SpecialTokens::kEos) {
          next.finished = true;
          next.tokens.push_back(text::SpecialTokens::kPad);
        } else {
          next.tokens.push_back(scored[k].second);
        }
        expanded.push_back(std::move(next));
      }
    }
    std::sort(expanded.begin(), expanded.end(),
              [](const Beam& a, const Beam& b) {
                return a.log_prob > b.log_prob;
              });
    if (static_cast<int64_t>(expanded.size()) > beam_width)
      expanded.resize(beam_width);
    beams = std::move(expanded);
  }

  const Beam& best = beams.front();
  std::vector<std::string> tokens;
  for (int64_t id : best.tokens) {
    if (id == text::SpecialTokens::kPad) continue;
    tokens.push_back(vocab_->Token(id));
  }
  return text::Detokenize(tokens);
}

}  // namespace models
}  // namespace rotom
