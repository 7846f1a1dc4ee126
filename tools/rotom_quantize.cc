// rotom_quantize: offline snapshot converter for the int8 serving path
// (DESIGN.md §12).
//
//   rotom_quantize <in.rsnap> <out.rsnap> [--report]
//
// reads a float (format v1) snapshot, row-quantizes every eligible Linear
// weight (attention q/k/v/out, FFN in/out, classifier head — per output
// channel, stored transposed; embeddings, norms, and biases stay f32) via
// serve::QuantizeSnapshot, and writes the result as a format-v2 snapshot.
// The output is what InferenceSession picks the int8 forward for by default
// (Precision::kAuto), and it loads on older float-only readers' successors
// only — v1 readers reject it by version, never misread it.
//
// --report prints one row per tensor: whether it was quantized, the stored
// shape, and the max / mean absolute dequantization error against the f32
// original — the offline view of the accuracy the serving path trades for
// int8 storage, a quarter of the f32 bytes per linear weight
// (serve_quant_parity_test bounds the end-task cost).
//
//   rotom_quantize selftest
//
// builds a random classifier in-process, round-trips it through the
// converter, and verifies (a) the v2 file loads with quantized weights,
// (b) per-tensor dequantization error is small, (c) a float session and
// an int8 session agree on the predicted labels of a query pool, and (d)
// converting a corrupt snapshot (a header claiming an oversized payload)
// fails with the loader's message and exit code 1 instead of aborting.
// Registered as a ctest (tools_rotom_quantize_selftest).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rotom/api.h"
#include "util/rng.h"

namespace rotom {
namespace {

int Convert(const std::string& in_path, const std::string& out_path,
            bool report) {
  auto snapshot = serve::Snapshot::Load(in_path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "rotom_quantize: %s\n",
                 snapshot.status().message().c_str());
    return 1;
  }
  std::vector<serve::TensorQuantReport> entries;
  auto quantized = serve::QuantizeSnapshot(snapshot.value(), &entries);
  if (!quantized.ok()) {
    std::fprintf(stderr, "rotom_quantize: %s\n",
                 quantized.status().message().c_str());
    return 1;
  }
  if (auto s = quantized.value().Save(out_path); !s.ok()) {
    std::fprintf(stderr, "rotom_quantize: %s\n", s.message().c_str());
    return 1;
  }

  size_t converted = 0;
  if (report) {
    std::printf("%-36s %-8s %-12s %12s %12s\n", "tensor", "dtype", "shape",
                "max_abs_err", "mean_abs_err");
  }
  for (const auto& e : entries) {
    if (e.quantized) ++converted;
    if (!report) continue;
    char shape[32] = "-";
    if (e.quantized) {
      std::snprintf(shape, sizeof(shape), "[%lld,%lld]",
                    static_cast<long long>(e.rows),
                    static_cast<long long>(e.cols));
    }
    if (e.quantized) {
      std::printf("%-36s %-8s %-12s %12.3e %12.3e\n", e.name.c_str(), "int8",
                  shape, static_cast<double>(e.error.max_abs),
                  static_cast<double>(e.error.mean_abs));
    } else {
      std::printf("%-36s %-8s %-12s %12s %12s\n", e.name.c_str(), "f32",
                  shape, "-", "-");
    }
  }
  std::printf("rotom_quantize: %zu of %zu tensors quantized -> %s\n",
              converted, entries.size(), out_path.c_str());
  return 0;
}

int SelfTest() {
  Rng rng(7);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (int i = 0; i < 256; ++i) vocab->AddToken("tok" + std::to_string(i));
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 32;
  config.dim = 32;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 64;
  models::TransformerClassifier model(config, vocab, rng);
  model.SetTraining(false);

  const std::string float_path = "rotom_quantize_selftest_f32.rsnap";
  const std::string int8_path = "rotom_quantize_selftest_int8.rsnap";
  const serve::Snapshot snapshot = serve::Snapshot::FromModel(model);
  if (auto s = snapshot.Save(float_path); !s.ok()) {
    std::fprintf(stderr, "selftest: %s\n", s.message().c_str());
    return 1;
  }
  if (Convert(float_path, int8_path, /*report=*/true) != 0) return 1;

  auto reloaded = serve::Snapshot::Load(int8_path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "selftest: %s\n",
                 reloaded.status().message().c_str());
    return 1;
  }
  // One int8 entry per Linear: 4 attention + 2 FFN per layer, plus the head.
  const size_t expected_q8 =
      static_cast<size_t>(config.num_layers) * 6 + 1;
  if (reloaded.value().qweights.size() != expected_q8) {
    std::fprintf(stderr, "selftest: expected %zu quantized tensors, got %zu\n",
                 expected_q8, reloaded.value().qweights.size());
    return 1;
  }
  for (const auto& [name, qw] : reloaded.value().qweights) {
    const Tensor deq = serve::Snapshot::DequantizeWeight(qw);
    // Per-row max error is bounded by half a quantization step; with Xavier
    // init bounds well under 1.0, step/2 < 1/254, so 0.01 is generous.
    float max_abs = 0.0f;
    for (const auto& [orig_name, orig] : snapshot.weights) {
      if (orig_name != name) continue;
      for (int64_t i = 0; i < orig.size(); ++i) {
        const float err = std::abs(orig.data()[i] - deq.data()[i]);
        if (err > max_abs) max_abs = err;
      }
    }
    if (max_abs > 0.01f) {
      std::fprintf(stderr, "selftest: %s dequantization error %.4f\n",
                   name.c_str(), max_abs);
      return 1;
    }
  }

  auto f32_session = serve::InferenceSession::Open(float_path);
  auto int8_session = serve::InferenceSession::Open(int8_path);
  if (!f32_session.ok() || !int8_session.ok()) {
    std::fprintf(stderr, "selftest: session open failed\n");
    return 1;
  }
  if (f32_session.value()->quantized() || !int8_session.value()->quantized()) {
    std::fprintf(stderr, "selftest: Precision::kAuto picked the wrong mode\n");
    return 1;
  }
  std::vector<std::string> pool;
  Rng qrng(13);
  for (int i = 0; i < 64; ++i) {
    std::string text;
    for (int w = 0; w < 8; ++w) {
      if (!text.empty()) text += ' ';
      text += "tok" + std::to_string(qrng.UniformInt(256));
    }
    pool.push_back(std::move(text));
  }
  const auto f32_preds = f32_session.value()->PredictBatch(pool);
  const auto int8_preds = int8_session.value()->PredictBatch(pool);
  size_t agree = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (f32_preds[i].label == int8_preds[i].label) ++agree;
  }
  // A random-weight model has logits near zero, the hardest case for label
  // agreement; quantization noise is still orders of magnitude below the
  // logit spread, so near-total agreement is expected.
  if (agree < pool.size() - pool.size() / 16) {
    std::fprintf(stderr, "selftest: int8 agrees on only %zu/%zu labels\n",
                 agree, pool.size());
    return 1;
  }
  std::printf("selftest: int8 label agreement %zu/%zu\n", agree, pool.size());

  // The float snapshot with its u64 payload_size (header offset 12)
  // claiming 2^62 bytes: Convert must report the Status and return 1.
  const std::string bad_path = "rotom_quantize_selftest_bad.rsnap";
  std::string bytes;
  {
    std::ifstream in(float_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const uint64_t oversized = uint64_t{1} << 62;
  std::memcpy(bytes.data() + 12, &oversized, sizeof(oversized));
  {
    std::ofstream out(bad_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::remove(int8_path.c_str());
  if (Convert(bad_path, int8_path, /*report=*/false) != 1 ||
      std::ifstream(int8_path).good()) {
    std::fprintf(stderr, "selftest: a corrupt snapshot was converted\n");
    return 1;
  }
  std::printf("selftest: corrupt snapshot rejected\n");
  std::remove(bad_path.c_str());
  std::remove(float_path.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rotom_quantize <in.rsnap> <out.rsnap> [--report]\n"
               "       rotom_quantize selftest\n");
  return 2;
}

}  // namespace
}  // namespace rotom

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) {
    return rotom::SelfTest();
  }
  if (argc < 3 || argc > 4) return rotom::Usage();
  bool report = false;
  if (argc == 4) {
    if (std::strcmp(argv[3], "--report") != 0) return rotom::Usage();
    report = true;
  }
  return rotom::Convert(argv[1], argv[2], report);
}
