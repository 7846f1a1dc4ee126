// Google-benchmark microbenches for the substrates: tensor math, tokenizer,
// encoding cache, DA operators, encoder forward/backward, and seq2seq
// decoding. These bound the cost of the experiment benches and catch
// performance regressions. Besides the console table, every run is captured
// into BENCH_micro.json (schema: bench_common.h JsonWriter).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "augment/ops.h"
#include "augment/registry.h"
#include "bench_common.h"
#include "models/classifier.h"
#include "models/seq2seq.h"
#include "nn/optim.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "text/encoding_cache.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

namespace {

using namespace rotom;  // NOLINT

// Kernel-layer GEMM throughput at a fixed pool size. range(0) is the square
// matrix extent, range(1) the thread count — the ratio between the
// /threads:1 and /threads:4 rows is the parallel speedup (GFLOP/s is the
// "flops" counter). Numerics are thread-count invariant, so the rows compute
// bit-identical results.
void BM_KernelGemmAB(benchmark::State& state) {
  const int64_t n = state.range(0);
  SetComputeThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    kernels::GemmAB(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate);
  SetComputeThreads(0);
}
BENCHMARK(BM_KernelGemmAB)
    ->ArgsProduct({{128, 256, 384}, {1, 2, 4}})
    ->ArgNames({"n", "threads"});

// The attention-score kernel (Q . K^T) on transformer-shaped operands.
void BM_KernelGemmABT(benchmark::State& state) {
  SetComputeThreads(static_cast<int>(state.range(0)));
  constexpr int64_t kBatch = 32, kT = 48, kDh = 16;
  Rng rng(2);
  Tensor q = Tensor::Randn({kBatch, kT, kDh}, rng);
  Tensor k = Tensor::Randn({kBatch, kT, kDh}, rng);
  Tensor scores({kBatch, kT, kT});
  for (auto _ : state) {
    kernels::BatchedGemmABT(q.data(), k.data(), scores.data(), kBatch, kT, kDh,
                            kT, kT * kDh);
    benchmark::DoNotOptimize(scores.data());
  }
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * kBatch * kT * kT * kDh,
      benchmark::Counter::kIsRate);
  SetComputeThreads(0);
}
BENCHMARK(BM_KernelGemmABT)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads");

// Weight-gradient kernel: batched A^T*B accumulated into one shared output.
void BM_KernelGemmATBShared(benchmark::State& state) {
  SetComputeThreads(static_cast<int>(state.range(0)));
  constexpr int64_t kBatch = 16, kM = 64, kK = 128, kN = 128;
  Rng rng(3);
  Tensor a = Tensor::Randn({kBatch, kM, kK}, rng);
  Tensor b = Tensor::Randn({kBatch, kM, kN}, rng);
  Tensor c({kK, kN});
  for (auto _ : state) {
    kernels::BatchedGemmATB(a.data(), b.data(), c.data(), kBatch, kM, kK, kN,
                            /*c_stride=*/0);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * kBatch * kM * kK * kN,
      benchmark::Counter::kIsRate);
  SetComputeThreads(0);
}
BENCHMARK(BM_KernelGemmATBShared)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads");

// The f32 GEMMs at the repo benchmark's shapes (bench/suite): a Linear
// forward over ag_stream's 16x24 token rows at dim 32 and over a full
// serve_mixed batch (32x64 rows, dim 128), and the Linear weight gradient
// over em_rotom's 16x56 rows. range(3) is the thread count.
void BM_KernelGemmAtWorkloadShape(benchmark::State& state, bool transpose_a) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  SetComputeThreads(static_cast<int>(state.range(3)));
  Rng rng(9);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({transpose_a ? m : k, n}, rng);
  Tensor c({transpose_a ? k : m, n});
  for (auto _ : state) {
    if (transpose_a) {
      kernels::GemmATB(a.data(), b.data(), c.data(), m, k, n);
    } else {
      kernels::GemmAB(a.data(), b.data(), c.data(), m, k, n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * m * k * n,
      benchmark::Counter::kIsRate);
  SetComputeThreads(0);
}
BENCHMARK_CAPTURE(BM_KernelGemmAtWorkloadShape, ab, false)
    ->ArgsProduct({{384}, {32}, {32}, {1, 4}})
    ->ArgsProduct({{2048}, {128}, {128}, {1, 4}})
    ->ArgNames({"m", "k", "n", "threads"});
BENCHMARK_CAPTURE(BM_KernelGemmAtWorkloadShape, atb, true)
    ->ArgsProduct({{896}, {32}, {32}, {1, 4}})
    ->ArgNames({"m", "k", "n", "threads"});

// The cost of one ParallelFor dispatch: an empty body over 4 chunks, so the
// time is the pool's handoff alone. range(0) is the pool size (1 runs
// inline); range(1) an idle gap before each dispatch, excluded from the
// time: 0 dispatches back to back while the workers still spin, 1000 µs
// lets them park first (ThreadPool::kSpinWindow is shorter).
void BM_ThreadPoolDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  const std::chrono::microseconds gap(state.range(1));
  for (auto _ : state) {
    if (gap.count() > 0) std::this_thread::sleep_for(gap);
    const auto start = std::chrono::steady_clock::now();
    pool.ParallelFor(4, 1, [](int64_t begin, int64_t end) {
      benchmark::DoNotOptimize(begin + end);
    });
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }
}
BENCHMARK(BM_ThreadPoolDispatch)
    ->ArgsProduct({{1, 2, 4}, {0}})
    ->ArgNames({"threads", "gap_us"})
    ->UseManualTime();
// A fixed count: the timed part is microseconds, so a min_time budget would
// run the 1-ms gap millions of times.
BENCHMARK(BM_ThreadPoolDispatch)
    ->ArgsProduct({{1, 2, 4}, {1000}})
    ->ArgNames({"threads", "gap_us"})
    ->UseManualTime()
    ->Iterations(300);

void BM_KernelSoftmaxRows(benchmark::State& state) {
  SetComputeThreads(static_cast<int>(state.range(0)));
  constexpr int64_t kRows = 4096, kCols = 128;
  Rng rng(4);
  Tensor x = Tensor::Randn({kRows, kCols}, rng);
  Tensor y({kRows, kCols});
  for (auto _ : state) {
    kernels::SoftmaxRows(x.data(), y.data(), kRows, kCols);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * kCols);
  SetComputeThreads(0);
}
BENCHMARK(BM_KernelSoftmaxRows)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads");

// Simd-vs-scalar dispatch gain for the f32 GEMM, the acceptance record for
// the ROTOM_SIMD build option. simd:0 runs the serial scalar reference body
// (kernels::scalar), simd:1 the dispatched kernel; both pin the pool to one
// thread so the ratio isolates the ISA gain from thread scaling. The label
// names the flavor the dispatched side compiled to ("avx2"/"neon"/"scalar"
// — on a scalar build the two rows coincide). "flops" is GFLOP/s.
void BM_KernelGemmABFlavor(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool simd = state.range(1) != 0;
  SetComputeThreads(1);
  state.SetLabel(simd ? kernels::SimdFlavorName() : "scalar");
  Rng rng(8);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    if (simd) {
      kernels::GemmAB(a.data(), b.data(), c.data(), n, n, n);
    } else {
      kernels::scalar::GemmAB(a.data(), b.data(), c.data(), n, n, n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate);
  SetComputeThreads(0);
}
BENCHMARK(BM_KernelGemmABFlavor)
    ->ArgsProduct({{256}, {0, 1}, {1}})
    ->ArgNames({"n", "simd", "threads"});

// Simd-vs-scalar gain of the GELU kernels: simd:0 is kernels::scalar (libm
// tanh), simd:1 the dispatched kernel (AVX2: the polynomial exp), on one
// thread; backward:1 times GeluBackward instead of GeluForward.
void BM_KernelGeluFlavor(benchmark::State& state) {
  constexpr int64_t kN = 24576;
  const bool simd = state.range(0) != 0;
  const bool backward = state.range(1) != 0;
  SetComputeThreads(1);
  state.SetLabel(simd ? kernels::SimdFlavorName() : "scalar");
  Rng rng(9);
  Tensor x = Tensor::Randn({kN}, rng);
  Tensor gy = Tensor::Randn({kN}, rng);
  Tensor out({kN});
  for (auto _ : state) {
    if (backward) {
      if (simd) {
        kernels::GeluBackward(x.data(), gy.data(), out.data(), kN);
      } else {
        kernels::scalar::GeluBackward(x.data(), gy.data(), out.data(), kN);
      }
    } else if (simd) {
      kernels::GeluForward(x.data(), out.data(), kN);
    } else {
      kernels::scalar::GeluForward(x.data(), out.data(), kN);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kN);
  SetComputeThreads(0);
}
BENCHMARK(BM_KernelGeluFlavor)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"simd", "backward"});

// The exact int8 GEMM underneath QLinear, scalar reference vs dispatched.
// "flops" counts the same 2*n^3 MACs as the f32 cell above, so the
// int8-vs-f32 gain is this cell's rate over BM_KernelGemmABFlavor's at the
// same n.
void BM_KernelQGemmABT(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool simd = state.range(1) != 0;
  SetComputeThreads(1);
  state.SetLabel(simd ? kernels::SimdFlavorName() : "scalar");
  Rng rng(9);
  std::vector<int8_t> a(static_cast<size_t>(n * n));
  std::vector<int8_t> b(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(255) - 127);
  for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(255) - 127);
  std::vector<int32_t> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    if (simd) {
      quant::QGemmABT(a.data(), b.data(), c.data(), n, n, n);
    } else {
      quant::scalar::QGemmABT(a.data(), b.data(), c.data(), n, n, n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate);
  SetComputeThreads(0);
}
BENCHMARK(BM_KernelQGemmABT)
    ->ArgsProduct({{256}, {0, 1}, {1}})
    ->ArgNames({"n", "simd", "threads"});

// End-to-end quantized linear layer (dynamic activation quantization + int8
// GEMM + zero-point-corrected dequantization) against the float equivalent
// at a serving-shaped problem — the honest int8-vs-f32 gain including the
// conversion overheads the raw QGemm cell excludes.
void BM_KernelQLinearVsFloat(benchmark::State& state) {
  const bool int8 = state.range(0) != 0;
  SetComputeThreads(1);
  constexpr int64_t kM = 64, kIn = 256, kOut = 256;
  Rng rng(10);
  Tensor x = Tensor::Randn({kM, kIn}, rng);
  Tensor w = Tensor::Randn({kOut, kIn}, rng);  // [out, in], the stored layout
  Tensor bias = Tensor::Randn({kOut}, rng);
  Tensor y({kM, kOut});
  const quant::QuantizedTensor wq = quant::QuantizeRows(w.data(), kOut, kIn);
  const std::vector<int32_t> w_sums = quant::RowSums(wq);
  for (auto _ : state) {
    if (int8) {
      quant::QLinear(x.data(), wq, w_sums.data(), bias.data(), y.data(), kM);
    } else {
      std::fill_n(y.data(), kM * kOut, 0.0f);  // GemmABT accumulates
      kernels::GemmABT(x.data(), w.data(), y.data(), kM, kIn, kOut);
      kernels::BroadcastAddRows(y.data(), bias.data(), y.data(), kM, kOut);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * kM * kIn * kOut,
      benchmark::Counter::kIsRate);
  SetComputeThreads(0);
}
BENCHMARK(BM_KernelQLinearVsFloat)
    ->ArgsProduct({{0, 1}, {1}})
    ->ArgNames({"int8", "threads"});

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Variable a(Tensor::Randn({n, n}, rng), false);
  Variable b(Tensor::Randn({n, n}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b).value().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_BatchedAttentionShapedMatMul(benchmark::State& state) {
  Rng rng(2);
  Variable q(Tensor::Randn({16, 2, 48, 16}, rng), false);
  Variable k(Tensor::Randn({16, 2, 48, 16}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMulBT(q, k).value().data());
  }
}
BENCHMARK(BM_BatchedAttentionShapedMatMul);

// Row encoding through the training data path's memo. cached:0 is the
// bypass (every call tokenizes + computes overlap flags), cached:1 serves
// repeats from the sharded LRU — the ratio is the per-hit saving the
// pipelined trainers see on re-encoded epochs.
void BM_EncodingCache(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  text::Vocabulary vocab;
  for (int i = 0; i < 100; ++i) vocab.AddToken("tok" + std::to_string(i));
  text::EncodingCache cache(&vocab, /*max_len=*/48,
                            /*capacity_rows=*/cached ? 1024 : 0);
  std::vector<std::string> texts;
  for (int i = 0; i < 64; ++i) {
    std::string t = "[COL] title [VAL]";
    for (int j = 0; j < 12; ++j)
      t += " tok" + std::to_string((i * 7 + j * 13) % 100);
    texts.push_back(std::move(t));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Encode(texts[i++ % texts.size()]).get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodingCache)->Arg(0)->Arg(1)->ArgName("cached");

// Tensor construction cost with the size-class freelist behind it: after the
// first iteration every allocation is a recycled buffer plus a zero-fill.
void BM_TensorAlloc(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    Tensor t({n, n});
    benchmark::DoNotOptimize(t.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_TensorAlloc)->Arg(32)->Arg(128)->ArgName("n");

void BM_Tokenize(benchmark::State& state) {
  const std::string input =
      "[COL] title [VAL] efficient query processing in relational databases "
      "[COL] year [VAL] 1999 [SEP] [COL] title [VAL] query processing";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Tokenize(input));
  }
}
BENCHMARK(BM_Tokenize);

void BM_SimpleDaOp(benchmark::State& state) {
  // Indexes the registry in registration order (0 = token_del, 5 =
  // span_shuffle, 6 = col_shuffle, ...).
  const augment::Operator& op =
      *augment::OperatorRegistry::Global().All()[static_cast<size_t>(
          state.range(0))];
  state.SetLabel(op.name());
  Rng rng(3);
  const auto tokens = text::Tokenize(
      "[COL] title [VAL] efficient query processing in relational databases "
      "[COL] year [VAL] 1999");
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.Apply(tokens, {}, rng));
  }
}
BENCHMARK(BM_SimpleDaOp)->Arg(0)->Arg(5)->Arg(6);

models::ClassifierConfig BenchConfig() {
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 48;
  config.dim = 32;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 64;
  return config;
}

void BM_ClassifierForward(benchmark::State& state) {
  Rng rng(4);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (int i = 0; i < 100; ++i) vocab->AddToken("tok" + std::to_string(i));
  models::TransformerClassifier model(BenchConfig(), vocab, rng);
  model.SetTraining(false);
  std::vector<std::string> texts(16, "tok1 tok2 tok3 tok4 tok5 tok6 tok7");
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictProbs(texts, rng).data());
  }
}
BENCHMARK(BM_ClassifierForward);

void BM_ClassifierTrainStep(benchmark::State& state) {
  Rng rng(5);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (int i = 0; i < 100; ++i) vocab->AddToken("tok" + std::to_string(i));
  models::TransformerClassifier model(BenchConfig(), vocab, rng);
  nn::Adam optimizer(model.Parameters(), 1e-3f);
  std::vector<std::string> texts(16, "tok1 tok2 tok3 tok4 tok5 tok6 tok7");
  std::vector<int64_t> labels(16, 1);
  // Encoded once, like the pipelined training path (the raw-text overload is
  // deprecated); the bench isolates the forward/backward/step cost.
  const text::EncodedBatch batch =
      text::EncodeBatchForClassifier(model.vocab(), texts, BenchConfig().max_len);
  for (auto _ : state) {
    optimizer.ZeroGrad();
    ops::CrossEntropyMean(model.ForwardLogitsEncoded(batch, rng), labels)
        .Backward();
    optimizer.Step();
  }
}
BENCHMARK(BM_ClassifierTrainStep);

void BM_Seq2SeqDecodeBatch(benchmark::State& state) {
  Rng rng(6);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (int i = 0; i < 100; ++i) vocab->AddToken("tok" + std::to_string(i));
  models::Seq2SeqConfig config;
  config.dim = 32;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 64;
  config.max_src_len = 24;
  config.max_tgt_len = 24;
  models::Seq2SeqModel model(config, vocab, rng);
  model.SetTraining(false);
  models::SamplingOptions sampling;
  sampling.max_len = 16;
  std::vector<std::string> sources(8, "tok1 tok2 tok3 tok4 tok5");
  Rng gen_rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.GenerateBatch(sources, sampling, gen_rng));
  }
}
BENCHMARK(BM_Seq2SeqDecodeBatch);

// Mirrors every finished run into the shared bench JSON schema while still
// printing the normal console table. "threads" is the pool size encoded in
// the benchmark name when present (the kernel benches sweep it), else the
// process-wide pool size.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      const double seconds =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      writer_.Field("op", name)
          .Field("threads", ThreadsFromName(name))
          .Field("pipeline", false)
          .Field("wall_seconds", seconds)
          .Field("steps_per_sec", seconds > 0.0 ? 1.0 / seconds : 0.0);
      writer_.EndRecord();
    }
  }

  bench::JsonWriter& writer() { return writer_; }

 private:
  static int64_t ThreadsFromName(const std::string& name) {
    const size_t pos = name.find("threads:");
    if (pos == std::string::npos) return ComputeThreads();
    return std::atoll(name.c_str() + pos + sizeof("threads:") - 1);
  }

  bench::JsonWriter writer_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path = rotom::bench::BenchJsonPath("BENCH_micro.json");
  reporter.writer().CaptureMetrics();
  if (!reporter.writer().WriteFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n", reporter.writer().size(),
              path.c_str());
  return 0;
}
