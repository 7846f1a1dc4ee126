#ifndef ROTOM_SERVE_SESSION_H_
#define ROTOM_SERVE_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/snapshot.h"
#include "text/encoding_cache.h"

namespace rotom {
namespace serve {

/// One classification answer: the argmax class and the full softmax
/// distribution (num_classes entries).
struct Prediction {
  int64_t label = 0;
  std::vector<float> probs;
};

/// An immutable, read-only view of a loaded snapshot that answers inference
/// queries. The wrapped model is permanently in eval mode, every forward runs
/// under a NoGradGuard (no autograd graph is ever built), and nothing in the
/// session mutates model state after construction — so PredictBatch() and
/// Logits() are safe to call concurrently from any number of threads. Text
/// encodings are memoized in a shared text::EncodingCache (itself sharded and
/// thread-safe), and the dense math inside a single forward still fans out
/// over the shared compute pool.
///
/// Determinism: eval-mode forwards consume no randomness, so a given text
/// always yields bit-identical logits — including across a Save/Load round
/// trip of the snapshot (serve_test.cc).
///
/// Precision: the session holds one TransformerClassifier either way, and
/// Options::precision selects how its nn::Linear layers compute: in
/// float32, or in int8 (Linear::SetInt8Weight, via
/// Snapshot::BuildModel(/*int8=*/true)), defaulting to whatever the
/// snapshot was exported as. Everything between the linears runs the same
/// kernels in both. The int8 mode stores the linear weights in a quarter
/// of the bytes at a bounded accuracy cost (serve_quant_parity_test). It
/// is not the faster mode: EXPERIMENTS.md "serve bench" has the current
/// f32 and int8 speeds.
///
/// This is the terminal consumer of the encoded-batch path: raw text is
/// encoded exactly once (cache hit afterwards) and the model only ever sees
/// text::EncodedBatch. For request coalescing across client threads,
/// publish the snapshot into a ModelRegistry and put a TenantServer
/// (serve/tenant_server.h) in front.
class InferenceSession {
 public:
  /// Numeric mode of the forward pass (DESIGN.md §12).
  enum class Precision {
    /// int8 when the snapshot carries quantized weights, float32 otherwise.
    kAuto,
    /// Every Linear in f32; a quantized snapshot is dequantized on load.
    kFloat32,
    /// Every Linear in int8; a float snapshot's Linear weights are
    /// quantized at session build time with the scheme tools/rotom_quantize
    /// uses. Embeddings, layer norms, biases and the attention products
    /// stay f32.
    kInt8,
  };

  struct Options {
    /// Capacity of the encoding memo (rows); 0 disables caching.
    size_t cache_rows = 1 << 16;
    /// Forward-pass numerics; see Precision.
    Precision precision = Precision::kAuto;
  };

  /// Builds a session from an in-memory snapshot. Fails (Status) if the
  /// snapshot's weights do not match its config.
  static StatusOr<std::unique_ptr<InferenceSession>> Create(
      const Snapshot& snapshot, const Options& options);
  static StatusOr<std::unique_ptr<InferenceSession>> Create(
      const Snapshot& snapshot) {
    return Create(snapshot, Options());
  }

  /// Convenience: Snapshot::Load(path) (the mmap loader that
  /// ModelRegistry::Publish also uses) + Create.
  static StatusOr<std::unique_ptr<InferenceSession>> Open(
      const std::string& path, const Options& options);
  static StatusOr<std::unique_ptr<InferenceSession>> Open(
      const std::string& path) {
    return Open(path, Options());
  }

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Classifies a batch of raw texts in one fused forward. Thread-safe;
  /// returns one Prediction per input, in order.
  std::vector<Prediction> PredictBatch(
      std::span<const std::string> texts) const;

  /// Raw logits [batch, num_classes] for a batch of texts (the pre-softmax
  /// scores; used by the snapshot round-trip tests and by callers that want
  /// their own calibration). Thread-safe.
  Tensor Logits(std::span<const std::string> texts) const;

  const models::ClassifierConfig& config() const { return model_->config(); }
  const text::Vocabulary& vocab() const { return model_->vocab(); }
  const text::IdfTable& idf() const { return idf_; }

  /// True when this session's Linear layers run int8. Each quantized fused
  /// forward bumps the `serve.quantized` counter (OBSERVABILITY.md).
  bool quantized() const { return quantized_; }

  /// Encoding-memo statistics (hits/misses/evictions) for this session.
  text::EncodingCache::Stats CacheStats() const { return cache_->GetStats(); }

 private:
  InferenceSession(std::unique_ptr<models::TransformerClassifier> model,
                   bool quantized, text::IdfTable idf, const Options& options);

  std::unique_ptr<models::TransformerClassifier> model_;  // eval mode, frozen
  bool quantized_;  // model_'s Linear layers run int8
  text::IdfTable idf_;
  // Logically const (a pure memo); unique_ptr so the const methods can call
  // its internally-synchronized non-const Encode().
  std::unique_ptr<text::EncodingCache> cache_;
};

}  // namespace serve
}  // namespace rotom

#endif  // ROTOM_SERVE_SESSION_H_
