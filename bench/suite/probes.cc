// Layer probes run after a traced workload, at that workload's shapes: the
// nn modules through their public Forward (and autograd Backward when the
// workload trains), the dispatched kernels, and the int8 path. Each probe
// reports the median of repeated calls.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "suite.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "tensor/variable.h"

namespace rotom {
namespace suite {

namespace {

using Us = std::chrono::duration<double, std::micro>;

// Median microseconds of `reps` calls of fn(), after two warm-up calls.
template <typename F>
double MedianUs(int reps, F fn) {
  fn();
  fn();
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(Us(Clock::now() - t0).count());
  }
  return Median(us);
}

// Median microseconds of the backward pass alone: each repetition builds
// the forward graph untimed, then times Backward() from its sum.
template <typename F>
double MedianBackwardUs(int reps, F forward) {
  std::vector<double> us;
  for (int i = 0; i < reps + 2; ++i) {
    const Variable loss = ops::Sum(forward());
    const auto t0 = Clock::now();
    loss.Backward();
    if (i >= 2) us.push_back(Us(Clock::now() - t0).count());
  }
  return Median(us);
}

std::vector<float> RandomFloats(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

}  // namespace

void ProbeLayers(const ProbeShape& s, bool smoke, MetricSet* layer) {
  const int reps = smoke ? 3 : 30;
  Rng rng(0x9E3779B9);
  const int64_t rows = s.batch * s.seq;

  // nn modules, in training mode (dropout on) when the workload trains.
  {
    std::vector<int64_t> ids(static_cast<size_t>(rows));
    for (auto& id : ids) id = rng.UniformInt(s.vocab);
    const Variable x(Tensor::Randn({s.batch, s.seq, s.dim}, rng), s.train);
    const Variable cls(Tensor::Randn({s.batch, s.dim}, rng), s.train);
    const Tensor bias = nn::MaskToAttentionBias(Tensor::Ones({s.batch, s.seq}));
    nn::EmbeddingLayer embedding(s.vocab, s.dim, rng);
    nn::MultiHeadAttention attention(s.dim, s.heads, 0.1f, rng);
    nn::FeedForward ffn(s.dim, s.ffn, rng);
    nn::LayerNormLayer norm(s.dim);
    nn::Linear head(s.dim, s.classes, rng);
    for (nn::Module* m : std::initializer_list<nn::Module*>{
             &embedding, &attention, &ffn, &norm, &head})
      m->SetTraining(s.train);
    Rng dropout_rng(7);
    const std::vector<std::pair<const char*, std::function<Variable()>>>
        modules = {
            {"embedding", [&] { return embedding.Forward(ids); }},
            {"attention",
             [&] { return attention.Forward(x, x, bias, false, dropout_rng); }},
            {"ffn", [&] { return ffn.Forward(x); }},
            {"layernorm", [&] { return norm.Forward(x); }},
            {"head", [&] { return head.Forward(cls); }},
        };
    for (const auto& [name, forward] : modules) {
      const std::string prefix = std::string("nn.") + name;
      if (s.train) {
        layer->Set(prefix + ".fwd_us", MedianUs(reps, forward));
        layer->Set(prefix + ".bwd_us", MedianBackwardUs(reps, forward));
      } else {
        NoGradGuard no_grad;
        layer->Set(prefix + ".fwd_us", MedianUs(reps, forward));
      }
    }
  }

  // Dispatched kernels at the shapes the encoder runs: the FFN input
  // projection, the attention scores, their softmax, a layer norm.
  {
    const int64_t head_dim = std::max<int64_t>(1, s.dim / s.heads);
    const std::vector<float> a = RandomFloats(rows * s.dim, rng);
    const std::vector<float> w = RandomFloats(s.dim * s.ffn, rng);
    std::vector<float> c(static_cast<size_t>(rows * s.ffn));
    const double gemm_us = MedianUs(reps, [&] {
      kernels::GemmAB(a.data(), w.data(), c.data(), rows, s.dim, s.ffn);
    });
    layer->Set("kernels.gemm_ab.gflops",
               2.0 * rows * s.dim * s.ffn / (gemm_us * 1e3));

    const int64_t batch = s.batch * s.heads;
    const std::vector<float> q = RandomFloats(batch * s.seq * head_dim, rng);
    const std::vector<float> k = RandomFloats(batch * s.seq * head_dim, rng);
    std::vector<float> scores(static_cast<size_t>(batch * s.seq * s.seq));
    const double bgemm_us = MedianUs(reps, [&] {
      kernels::BatchedGemmABT(q.data(), k.data(), scores.data(), batch, s.seq,
                              head_dim, s.seq, s.seq * head_dim);
    });
    layer->Set("kernels.batched_gemm_abt.gflops",
               2.0 * batch * s.seq * head_dim * s.seq / (bgemm_us * 1e3));

    std::vector<float> probs(scores.size());
    layer->Set("kernels.softmax_rows_us", MedianUs(reps, [&] {
                 kernels::SoftmaxRows(scores.data(), probs.data(),
                                      batch * s.seq, s.seq);
               }));

    const std::vector<float> gamma(static_cast<size_t>(s.dim), 1.0f);
    const std::vector<float> beta(static_cast<size_t>(s.dim), 0.0f);
    std::vector<float> y(a.size()), xhat(a.size());
    std::vector<float> inv_std(static_cast<size_t>(rows));
    layer->Set("kernels.layernorm_rows_us", MedianUs(reps, [&] {
                 kernels::LayerNormRows(a.data(), gamma.data(), beta.data(),
                                        1e-5f, y.data(), xhat.data(),
                                        inv_std.data(), rows, s.dim);
               }));
  }

  // The int8 path of the quantized serving forward.
  if (s.quant) {
    const std::vector<float> x = RandomFloats(rows * s.dim, rng);
    const std::vector<float> w = RandomFloats(s.ffn * s.dim, rng);
    const quant::QuantizedTensor qx =
        quant::QuantizeRows(x.data(), rows, s.dim);
    const quant::QuantizedTensor qw =
        quant::QuantizeRows(w.data(), s.ffn, s.dim);
    std::vector<int32_t> acc(static_cast<size_t>(rows * s.ffn));
    const double qgemm_us = MedianUs(reps, [&] {
      quant::QGemmABT(qx.data.data(), qw.data.data(), acc.data(), rows, s.dim,
                      s.ffn);
    });
    layer->Set("quant.qgemm_abt.gops",
               2.0 * rows * s.dim * s.ffn / (qgemm_us * 1e3));
    const std::vector<int32_t> row_sums = quant::RowSums(qw);
    const std::vector<float> bias(static_cast<size_t>(s.ffn), 0.0f);
    std::vector<float> out(static_cast<size_t>(rows * s.ffn));
    layer->Set("quant.qlinear_us", MedianUs(reps, [&] {
                 quant::QLinear(x.data(), qw, row_sums.data(), bias.data(),
                                out.data(), rows);
               }));
  }
}

void SetCommonLayerMetrics(const ObsView& delta, const ObsView& now,
                           MetricSet* layer) {
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  layer->Set("stream.stall_us.mean", delta.HistMean("stream.stall_us"));
  layer->Set("stream.csv.reopens", delta.Counter("stream.csv.reopens"));
  const double produced = delta.Counter("prefetcher.produced");
  layer->Set("util.prefetcher.consumer_blocked_share",
             ratio(delta.Counter("prefetcher.consumer_blocked"),
                   produced + delta.Counter("prefetcher.produced_inline")));
  layer->Set("util.prefetcher.producer_blocked_share",
             ratio(delta.Counter("prefetcher.producer_blocked"), produced));
  const double parallel = delta.Counter("thread_pool.parallel_for");
  const double inline_for = delta.Counter("thread_pool.inline_for");
  layer->Set("util.thread_pool.inline_share",
             ratio(inline_for, inline_for + parallel));
  layer->Set("util.thread_pool.chunks_per_parallel_for",
             ratio(delta.Counter("thread_pool.chunks"), parallel));
  const double hits = delta.Counter("encoding_cache.hits");
  layer->Set("text.encoding_cache.hit_rate",
             ratio(hits, hits + delta.Counter("encoding_cache.misses")));
  const double reused = delta.Counter("buffer_pool.reused");
  layer->Set("tensor.buffer_pool.reuse_rate",
             ratio(reused, reused + delta.Counter("buffer_pool.allocated")));
  layer->Set("tensor.buffer_pool.cached_mb",
             now.Gauge("buffer_pool.cached_bytes") / (1024.0 * 1024.0));
}

void SetTraceCounts(const ProgramTrace& trace, MetricSet* layer) {
  layer->Set("trace.events", static_cast<double>(trace.spans().size()));
  layer->Set("trace.dropped_events", static_cast<double>(trace.dropped()));
}

}  // namespace suite
}  // namespace rotom
