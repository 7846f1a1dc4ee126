#ifndef ROTOM_SERVE_SNAPSHOT_H_
#define ROTOM_SERVE_SNAPSHOT_H_

#include <memory>
#include <string>

#include "models/classifier.h"
#include "tensor/quant.h"
#include "tensor/serialize.h"
#include "text/idf.h"
#include "text/vocab.h"
#include "util/status.h"

namespace rotom {
namespace serve {

/// A self-contained, servable export of a trained classifier: everything an
/// inference process needs to answer match/clean/classify queries without the
/// training dataset — the model weights, the ClassifierConfig that shapes
/// them, the task vocabulary (token ids are baked into the embeddings), and
/// the IDF table (so downstream augmentation/active-labeling tooling sees the
/// same token-importance statistics training did).
///
/// On disk a snapshot is a single file:
///
///   | field            | size     | contents                               |
///   |------------------|----------|----------------------------------------|
///   | magic            | 8 bytes  | "RSNAP\0\0\0"                          |
///   | version          | u32      | 1 (all-f32) or 2 (int8 weights too)    |
///   | payload_size     | u64      | byte length of the payload section     |
///   | payload_checksum | u64      | FNV-1a 64 over the payload bytes       |
///   | payload          | variable | config, vocab, idf, weights (in order) |
///
/// Version 1 weights are raw f32 tensors. Version 2 prefixes every weight
/// with a dtype byte: 0 = f32 (the v1 encoding), 1 = int8 row-quantized —
/// stored shape [rows, cols], a transposed flag (1 means the dequantized
/// original is the transpose, i.e. a Linear weight stored output-major),
/// then per-row f32 scales, per-row i32 zero points, and the int8 codes
/// (DESIGN.md §12). Save() writes version 1 whenever `qweights` is empty,
/// so float snapshots stay byte-compatible with v1 readers; Load() accepts
/// both versions, and the checksum covers the payload identically in each.
///
/// The whole payload is checksummed, so truncation and bit corruption are
/// detected before any of it is interpreted; Load() returns a Status error
/// (never CHECK-aborts) for missing files, bad magic, unsupported versions,
/// short reads, and checksum mismatches. Integers, floats and tensor
/// entries are encoded by the byte codec in tensor/serialize.h, so a
/// snapshot round-trips bit-identically: BuildModel() on a loaded snapshot
/// produces the same logits, bit for bit, as the model that was saved
/// (serve_test.cc asserts this).
struct Snapshot {
  /// One int8 row-quantized weight. `tensor` holds the *stored* layout
  /// [rows, cols]; when `transposed` is true the dequantized original is
  /// the [cols, rows] transpose (Linear weights are stored output-major so
  /// the quantized GEMM reads contiguous per-output-channel rows).
  struct QuantizedWeight {
    quant::QuantizedTensor tensor;
    bool transposed = false;
  };

  models::ClassifierConfig config;
  std::shared_ptr<const text::Vocabulary> vocab;
  text::IdfTable idf;
  NamedTensors weights;
  std::vector<std::pair<std::string, QuantizedWeight>> qweights;

  /// Newest on-disk format version Load() understands; Save() writes
  /// version 1 for all-float snapshots and 2 when `qweights` is non-empty.
  static constexpr uint32_t kFormatVersion = 2;

  /// Captures a model's weights/config/vocabulary (plus an optional IDF
  /// table) into an in-memory snapshot. Weight tensors are deep-copied, so
  /// later training steps do not mutate the snapshot.
  static Snapshot FromModel(const models::TransformerClassifier& model,
                            const text::IdfTable& idf = {});

  /// Writes the snapshot to `path` in the format above, atomically
  /// (WriteFileAtomic: "<path>.tmp", then a rename), so a process that has
  /// `path` mapped keeps reading the old file intact.
  Status Save(const std::string& path) const;

  /// Reads a snapshot written by Save(), via mmap(2): the file is mapped
  /// read-only, the checksum is verified directly over the mapping, and
  /// every payload section — vocabulary strings, IDF entries, weight bytes —
  /// is parsed in place from the mapped pages. No staging copy of the
  /// payload is allocated; weight bytes move exactly once, from the page
  /// cache into the tensors the model will serve from (the kernels require
  /// owned, aligned storage — see DESIGN.md §13 for where the zero-copy
  /// boundary sits). Returns an error Status for any malformed input
  /// instead of aborting.
  static StatusOr<Snapshot> Load(const std::string& path);

  /// Constructs a classifier from this snapshot and installs the weights.
  /// The constructor runs under a NoRandomInitGuard, since every parameter
  /// is then replaced. An f32 parameter takes the snapshot's tensor itself
  /// (a Tensor copy shares its buffer, as QuantizeSnapshot's output does
  /// with its input), so every parameter comes back frozen
  /// (requires_grad false): no gradient reaches it, optimizers skip it, and
  /// LoadStateDict / CopyParametersFrom CHECK-fail on it. The model is for
  /// inference only, and the snapshot stays as it was. In f32 (the
  /// default) int8 weights are dequantized. With `int8`, every
  /// nn::Linear runs int8 (Linear::SetInt8Weight): it takes its weight's
  /// codes as stored, or quantized here with QuantizeSnapshot's scheme when
  /// the snapshot holds it in f32, and keeps no f32 copy; every other
  /// weight must then be f32. Returns an error if the combined weight list
  /// does not match the structure implied by `config` (missing name,
  /// duplicate, shape mismatch, or an int8 Linear weight not stored
  /// output-major) — e.g. a snapshot edited by hand or produced by an
  /// incompatible build. The returned model is in eval mode
  /// (SetTraining(false)).
  StatusOr<std::unique_ptr<models::TransformerClassifier>> BuildModel(
      bool int8 = false) const;

  /// Reconstructs the f32 tensor of one quantized weight (undoing the
  /// transposed storage layout if set).
  static Tensor DequantizeWeight(const QuantizedWeight& qw);
};

/// Per-tensor outcome of QuantizeSnapshot, for operator-facing reports
/// (tools/rotom_quantize --report).
struct TensorQuantReport {
  std::string name;
  bool quantized = false;      // false: kept f32 (embedding/norm/bias/1-D)
  int64_t rows = 0, cols = 0;  // stored quantized shape when quantized
  quant::QuantError error;     // dequantization error vs the f32 original
};

/// Returns a copy of `src` with every eligible weight replaced by an int8
/// row-quantized version (Save() will then write format version 2).
/// Eligible weights are the 2-D Linear projections — attention q/k/v/out,
/// FFN in/out, and the classifier head — quantized per output channel in
/// transposed storage; embeddings, layer norms, and biases stay f32.
/// Quantizing an already-quantized snapshot is an error.
StatusOr<Snapshot> QuantizeSnapshot(
    const Snapshot& src, std::vector<TensorQuantReport>* report = nullptr);

}  // namespace serve
}  // namespace rotom

#endif  // ROTOM_SERVE_SNAPSHOT_H_
