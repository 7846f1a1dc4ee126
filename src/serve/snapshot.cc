#include "serve/snapshot.h"

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rotom {
namespace serve {

namespace {

// "RSNAP" + NULs to 8 bytes.
constexpr char kMagic[8] = {'R', 'S', 'N', 'A', 'P', '\0', '\0', '\0'};

// FNV-1a 64-bit over the payload bytes: tiny, dependency-free, and plenty to
// catch truncation/bit-rot (this is an integrity check, not authentication).
uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void WriteConfig(ByteWriter& w, const models::ClassifierConfig& config) {
  w.Pod<int64_t>(config.num_classes);
  w.Pod<int64_t>(config.max_len);
  w.Pod<int64_t>(config.dim);
  w.Pod<int64_t>(config.num_heads);
  w.Pod<int64_t>(config.num_layers);
  w.Pod<int64_t>(config.ffn_dim);
  w.Pod<float>(config.dropout);
}

bool ReadConfig(ByteReader& r, models::ClassifierConfig* config) {
  return r.Pod(&config->num_classes) && r.Pod(&config->max_len) &&
         r.Pod(&config->dim) && r.Pod(&config->num_heads) &&
         r.Pod(&config->num_layers) && r.Pod(&config->ffn_dim) &&
         r.Pod(&config->dropout);
}

// Weight dtype byte in version-2 weight entries.
constexpr uint8_t kDtypeF32 = 0;
constexpr uint8_t kDtypeQ8 = 1;

// out [cols, rows] = in [rows, cols]^T.
void TransposeInto(const float* in, float* out, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) out[c * rows + r] = in[r * cols + c];
}

// A Linear weight [in, out] as its [out, in] transpose: the layout int8
// Linear weights are stored and served in, one quantization row per output
// channel, so the int8 GEMM reads contiguous rows of W^T.
std::vector<float> OutputMajor(const Tensor& w) {
  const int64_t in = w.size(0), out = w.size(1);
  std::vector<float> wt(static_cast<size_t>(in * out));
  TransposeInto(w.data(), wt.data(), in, out);
  return wt;
}

}  // namespace

Snapshot Snapshot::FromModel(const models::TransformerClassifier& model,
                             const text::IdfTable& idf) {
  Snapshot snapshot;
  snapshot.config = model.config();
  snapshot.vocab = model.vocab_ptr();
  snapshot.idf = idf;
  snapshot.weights = model.StateDict();  // StateDict clones every tensor
  return snapshot;
}

Status Snapshot::Save(const std::string& path) const {
  if (vocab == nullptr) {
    return Status::Error("snapshot has no vocabulary; nothing to save");
  }
  ByteWriter payload;

  WriteConfig(payload, config);

  // Vocabulary: every token in id order (ids are implicit). The fixed
  // special tokens are included so Load() can verify the layout assumption.
  payload.Pod<uint64_t>(static_cast<uint64_t>(vocab->size()));
  for (int64_t id = 0; id < vocab->size(); ++id) payload.String(vocab->Token(id));

  // IDF table, token-sorted for deterministic bytes.
  payload.Pod<int64_t>(idf.num_documents());
  payload.Pod<double>(idf.max_idf());
  const auto entries = idf.SortedEntries();
  payload.Pod<uint64_t>(entries.size());
  for (const auto& [token, value] : entries) {
    payload.String(token);
    payload.Pod<double>(value);
  }

  // Weights, in StateDict order. An all-float snapshot is written as
  // version 1 — byte-identical to what pre-quantization builds produced —
  // so the dtype byte below only appears in version-2 files.
  const bool v2 = !qweights.empty();
  payload.Pod<uint64_t>(weights.size() + qweights.size());
  for (const auto& [name, tensor] : weights) {
    payload.String(name);
    if (v2) payload.Pod<uint8_t>(kDtypeF32);
    payload.TensorEntry(tensor);
  }
  for (const auto& [name, qw] : qweights) {
    const quant::QuantizedTensor& qt = qw.tensor;
    payload.String(name);
    payload.Pod<uint8_t>(kDtypeQ8);
    payload.Pod<int64_t>(qt.rows);
    payload.Pod<int64_t>(qt.cols);
    payload.Pod<uint8_t>(qw.transposed ? 1 : 0);
    payload.Bytes(qt.scales.data(), sizeof(float) * qt.scales.size());
    payload.Bytes(qt.zero_points.data(),
                  sizeof(int32_t) * qt.zero_points.size());
    payload.Bytes(qt.data.data(), qt.data.size());
  }

  ByteWriter header;
  header.Bytes(kMagic, sizeof(kMagic));
  header.Pod<uint32_t>(v2 ? 2 : 1);
  header.Pod<uint64_t>(payload.buffer().size());
  header.Pod<uint64_t>(Fnv1a64(payload.buffer()));
  return WriteFileAtomic(path, {header.buffer(), payload.buffer()});
}

namespace {

// Whether factors[0] * factors[1] * ... <= limit, without overflow (every
// factor is >= 1).
bool ProductAtMost(std::initializer_list<int64_t> factors, uint64_t limit) {
  uint64_t product = 1;
  for (const int64_t f : factors) {
    if (static_cast<uint64_t>(f) > limit / product) return false;
    product *= static_cast<uint64_t>(f);
  }
  return true;
}

// A model built from `c` holds each of these products as (part of) one or
// more weights, so none exceeds the weight elements of a file written from
// it. Bounding them bounds what BuildModel allocates for an edited config
// by a small multiple of the file's own size.
bool ConfigFitsWeights(const models::ClassifierConfig& c, int64_t vocab_size,
                       uint64_t weight_elements) {
  const int64_t d = c.dim;
  for (const auto& factors : {std::initializer_list<int64_t>{d, d},
                              {c.max_len, d},
                              {c.ffn_dim, d},
                              {c.num_layers, d, d},
                              {c.num_layers, c.ffn_dim, d},
                              {c.num_classes, d},
                              {vocab_size, d}}) {
    if (!ProductAtMost(factors, weight_elements)) return false;
  }
  return true;
}

// Parses a checksum-verified payload into a Snapshot. Any failure here
// means a writer bug or a file that was edited and re-checksummed (the
// checksum checks integrity, it does not authenticate); report which
// section failed rather than aborting. `r` reads mmap'd pages in place —
// the parser never copies the payload as a whole, only the sections it
// materializes.
StatusOr<Snapshot> ParsePayload(ByteReader& r, uint32_t version,
                                const std::string& path) {
  Snapshot snapshot;

  if (!ReadConfig(r, &snapshot.config)) {
    return Status::Error(path + ": snapshot config section is malformed");
  }
  if (Status s = models::ValidateConfig(snapshot.config); !s.ok()) {
    return Status::Error(path + ": snapshot config: " + s.message());
  }

  uint64_t vocab_size = 0;
  if (!r.Pod(&vocab_size) ||
      vocab_size < static_cast<uint64_t>(text::SpecialTokens::kCount)) {
    return Status::Error(path + ": snapshot vocabulary section is malformed");
  }
  auto vocab = std::make_shared<text::Vocabulary>();
  for (uint64_t id = 0; id < vocab_size; ++id) {
    std::string token;
    if (!r.String(&token)) {
      return Status::Error(path + ": snapshot vocabulary section is truncated");
    }
    if (id < static_cast<uint64_t>(text::SpecialTokens::kCount)) {
      if (token != vocab->Token(static_cast<int64_t>(id))) {
        return Status::Error(path + ": snapshot special token " +
                             std::to_string(id) + " is '" + token +
                             "', expected '" +
                             vocab->Token(static_cast<int64_t>(id)) + "'");
      }
      continue;  // the Vocabulary constructor already added it
    }
    if (vocab->AddToken(token) != static_cast<int64_t>(id)) {
      return Status::Error(path + ": snapshot vocabulary has duplicate token '" +
                           token + "'");
    }
  }
  snapshot.vocab = std::move(vocab);

  int64_t num_documents = 0;
  double max_idf = 0.0;
  uint64_t idf_count = 0;
  if (!r.Pod(&num_documents) || !r.Pod(&max_idf) || !r.Pod(&idf_count)) {
    return Status::Error(path + ": snapshot idf section is malformed");
  }
  // Each entry takes at least 16 bytes (string length + value), which
  // bounds the reservation below by what the payload holds.
  if (idf_count > r.remaining() / (sizeof(uint64_t) + sizeof(double))) {
    return Status::Error(path + ": snapshot idf section is truncated");
  }
  std::vector<std::pair<std::string, double>> idf_entries;
  idf_entries.reserve(idf_count);
  for (uint64_t i = 0; i < idf_count; ++i) {
    std::string token;
    double value = 0.0;
    if (!r.String(&token) || !r.Pod(&value)) {
      return Status::Error(path + ": snapshot idf section is truncated");
    }
    idf_entries.emplace_back(std::move(token), value);
  }
  snapshot.idf =
      text::IdfTable::FromParts(std::move(idf_entries), max_idf, num_documents);

  uint64_t weight_count = 0;
  uint64_t weight_elements = 0;  // f32 and int8 entries alike
  if (!r.Pod(&weight_count)) {
    return Status::Error(path + ": snapshot weights section is malformed");
  }
  for (uint64_t i = 0; i < weight_count; ++i) {
    std::string name;
    if (!r.String(&name)) {
      return Status::Error(path + ": snapshot weight " + std::to_string(i) +
                           " has a malformed header");
    }
    uint8_t dtype = kDtypeF32;
    if (version >= 2 && !r.Pod(&dtype)) {
      return Status::Error(path + ": snapshot weight '" + name +
                           "' has a malformed header");
    }
    if (dtype == kDtypeF32) {
      Tensor tensor;
      if (Status st = r.TensorEntry(&tensor); !st.ok()) {
        return Status::Error(path + ": snapshot weight '" + name + "': " +
                             st.message());
      }
      weight_elements += static_cast<uint64_t>(tensor.size());
      snapshot.weights.emplace_back(std::move(name), std::move(tensor));
    } else if (dtype == kDtypeQ8) {
      Snapshot::QuantizedWeight qw;
      quant::QuantizedTensor& qt = qw.tensor;
      uint8_t transposed = 0;
      if (!r.Pod(&qt.rows) || !r.Pod(&qt.cols) || !r.Pod(&transposed) ||
          qt.rows < 1 || qt.cols < 1 || transposed > 1) {
        return Status::Error(path + ": snapshot weight '" + name +
                             "' has a malformed quantized header");
      }
      qw.transposed = transposed == 1;
      const uint64_t rows = static_cast<uint64_t>(qt.rows);
      const uint64_t cols = static_cast<uint64_t>(qt.cols);
      // Per-row metadata plus the codes must fit in the remaining payload;
      // checked before any allocation sized from the file.
      if (rows > r.remaining() / (sizeof(float) + sizeof(int32_t)) ||
          cols > (r.remaining() - rows * (sizeof(float) + sizeof(int32_t))) /
                     rows) {
        return Status::Error(path + ": snapshot weight '" + name +
                             "' claims more data than the payload holds");
      }
      qt.scales.resize(rows);
      qt.zero_points.resize(rows);
      qt.data.resize(rows * cols);
      if (!r.Bytes(qt.scales.data(), sizeof(float) * rows) ||
          !r.Bytes(qt.zero_points.data(), sizeof(int32_t) * rows) ||
          !r.Bytes(qt.data.data(), rows * cols)) {
        return Status::Error(path + ": snapshot weight '" + name +
                             "' is truncated");
      }
      weight_elements += rows * cols;
      snapshot.qweights.emplace_back(std::move(name), std::move(qw));
    } else {
      return Status::Error(path + ": snapshot weight '" + name +
                           "' has unknown dtype " + std::to_string(dtype));
    }
  }
  if (r.remaining() != 0) {
    return Status::Error(path + ": snapshot has " +
                         std::to_string(r.remaining()) +
                         " trailing bytes after the weights section");
  }
  if (!ConfigFitsWeights(snapshot.config, snapshot.vocab->size(),
                         weight_elements)) {
    return Status::Error(path + ": snapshot config sizes exceed the " +
                         std::to_string(weight_elements) +
                         " weight elements the file holds");
  }
  return snapshot;
}

}  // namespace

StatusOr<Snapshot> Snapshot::Load(const std::string& path) {
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const std::string_view file = mapped.value().bytes();
  ByteReader r(file);

  char magic[sizeof(kMagic)];
  if (!r.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Error(path + " is not a rotom snapshot (bad magic)");
  }
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  if (!r.Pod(&version) || !r.Pod(&payload_size) || !r.Pod(&checksum)) {
    return Status::Error(path + ": truncated snapshot header");
  }
  if (version < 1 || version > kFormatVersion) {
    return Status::Error(path + ": unsupported snapshot version " +
                         std::to_string(version) + " (expected 1.." +
                         std::to_string(kFormatVersion) + ")");
  }
  // The file must hold exactly header + payload. Anything after the payload
  // means the file was appended to (or two snapshots were concatenated),
  // and the checksum no longer vouches for what a naive reader would
  // consume.
  if (r.remaining() < payload_size) {
    return Status::Error(path + ": truncated snapshot payload (expected " +
                         std::to_string(payload_size) + " bytes, got " +
                         std::to_string(r.remaining()) + ")");
  }
  if (r.remaining() > payload_size) {
    return Status::Error(path + ": trailing bytes after snapshot payload");
  }
  if (Fnv1a64(file.substr(file.size() - payload_size)) != checksum) {
    return Status::Error(path + ": snapshot checksum mismatch (corrupt file)");
  }
  // Parsed in place: strings, IDF doubles, and tensor bytes are read
  // straight out of the mapping (the kernel pages them in on first touch);
  // the mapping is dropped when `mapped` goes out of scope, after the
  // sections that outlive the call have been materialized.
  return ParsePayload(r, version, path);
}

StatusOr<std::unique_ptr<models::TransformerClassifier>> Snapshot::BuildModel(
    bool int8) const {
  if (vocab == nullptr) {
    return Status::Error("snapshot has no vocabulary; cannot build a model");
  }
  std::unique_ptr<models::TransformerClassifier> model;
  {
    // Every parameter is replaced below: skip the random init (the
    // constructor still asks for a generator).
    NoRandomInitGuard no_draw;
    Rng rng(0);
    model =
        std::make_unique<models::TransformerClassifier>(config, vocab, rng);
  }

  // The weight list is checked against the module tree as it is installed:
  // a snapshot may come from an incompatible build, and that is an input
  // error, not a programmer error. Lookup is by name (not position) so
  // float and quantized entries can be interleaved in any order on disk.
  auto params = model->NamedParameters();
  if (params.size() != weights.size() + qweights.size()) {
    return Status::Error(
        "snapshot has " + std::to_string(weights.size() + qweights.size()) +
        " weight tensors, model expects " + std::to_string(params.size()));
  }
  std::unordered_map<std::string_view, const Tensor*> f32;
  std::unordered_map<std::string_view, const QuantizedWeight*> q8;
  for (const auto& [name, tensor] : weights) {
    if (!f32.emplace(name, &tensor).second) {
      return Status::Error("duplicate snapshot weight '" + name + "'");
    }
  }
  for (const auto& [name, qw] : qweights) {
    if (f32.contains(name) || !q8.emplace(name, &qw).second) {
      return Status::Error("duplicate snapshot weight '" + name + "'");
    }
  }
  auto mismatch = [](const std::string& name) {
    return Status::Error("snapshot weight '" + name + "' has a shape mismatch");
  };

  // int8: each Linear takes its weight as codes — as stored, or quantized
  // here with QuantizeSnapshot's scheme when the snapshot holds it in f32 —
  // and never holds an f32 copy of it. A missing or mis-shaped f32 weight
  // stays on the layer for the loop below to report.
  Status status = Status::Ok();
  if (int8) {
    model->VisitModules([&](const std::string& prefix, nn::Module& module) {
      auto* linear = dynamic_cast<nn::Linear*>(&module);
      if (linear == nullptr || !status.ok()) return;
      const std::string name = prefix + "weight";
      const int64_t in = linear->in_features(), out = linear->out_features();
      if (auto it = q8.find(name); it != q8.end()) {
        const quant::QuantizedTensor& codes = it->second->tensor;
        if (!it->second->transposed || codes.rows != out || codes.cols != in) {
          status = mismatch(name);
          return;
        }
        linear->SetInt8Weight(codes);
      } else if (auto it = f32.find(name);
                 it != f32.end() &&
                 it->second->shape() == std::vector<int64_t>{in, out}) {
        linear->SetInt8Weight(
            quant::QuantizeRows(OutputMajor(*it->second).data(), out, in));
      }
    });
    if (!status.ok()) return status;
  }

  // Every other parameter takes the snapshot's tensor itself: a Tensor copy
  // shares its buffer, so the model holds no second copy of the weights.
  // Each parameter is frozen, so training the model cannot write through to
  // the snapshot.
  for (auto& [name, param] : params) {
    param.Freeze();
    Tensor& value = param.value();
    if (!value.defined()) continue;  // an int8 Linear's released weight
    Tensor source;
    if (auto it = f32.find(name); it != f32.end()) {
      source = *it->second;
    } else if (auto it = q8.find(name); it != q8.end()) {
      // Only a float model takes a quantized entry, dequantized; an int8
      // model quantizes its Linear weights alone.
      if (int8) {
        return Status::Error("snapshot weight '" + name +
                             "' is quantized but serves in f32");
      }
      source = DequantizeWeight(*it->second);
    } else {
      return Status::Error("model expects weight '" + name +
                           "' but no snapshot weight provides it");
    }
    if (source.shape() != value.shape()) return mismatch(name);
    value = std::move(source);
  }
  model->SetTraining(false);
  return model;
}

Tensor Snapshot::DequantizeWeight(const QuantizedWeight& qw) {
  const quant::QuantizedTensor& qt = qw.tensor;
  if (!qw.transposed) return quant::DequantizeToTensor(qt);
  // Stored output-major [out, in]; the model tensor is the [in, out]
  // transpose.
  std::vector<float> staged(static_cast<size_t>(qt.size()));
  quant::Dequantize(qt, staged.data());
  Tensor out({qt.cols, qt.rows});
  TransposeInto(staged.data(), out.data(), qt.rows, qt.cols);
  return out;
}

StatusOr<Snapshot> QuantizeSnapshot(const Snapshot& src,
                                    std::vector<TensorQuantReport>* report) {
  if (!src.qweights.empty()) {
    return Status::Error("snapshot is already quantized (" +
                         std::to_string(src.qweights.size()) +
                         " int8 weight tensors)");
  }
  Snapshot dst;
  dst.config = src.config;
  dst.vocab = src.vocab;
  dst.idf = src.idf;

  for (const auto& [name, tensor] : src.weights) {
    // Eligible weights are exactly the 2-D Linear projection matrices:
    // attention q/k/v/out, FFN in/out, and the classifier head. Embedding
    // tables are also 2-D and also named ".weight" but stay f32 — rows are
    // looked up, not multiplied, so quantizing them buys no GEMM time and
    // costs accuracy on every token.
    const bool is_linear = tensor.shape().size() == 2 &&
                           name.size() > 7 &&
                           name.compare(name.size() - 7, 7, ".weight") == 0 &&
                           name.find("_emb.") == std::string::npos;
    TensorQuantReport entry;
    entry.name = name;
    if (!is_linear) {
      dst.weights.emplace_back(name, tensor);
      if (report != nullptr) report->push_back(std::move(entry));
      continue;
    }
    const int64_t in = tensor.shape()[0], out = tensor.shape()[1];
    const std::vector<float> wt = OutputMajor(tensor);
    Snapshot::QuantizedWeight qw;
    qw.tensor = quant::QuantizeRows(wt.data(), out, in);
    qw.transposed = true;
    entry.quantized = true;
    entry.rows = out;
    entry.cols = in;
    entry.error = quant::MeasureError(wt.data(), qw.tensor);
    dst.qweights.emplace_back(name, std::move(qw));
    if (report != nullptr) report->push_back(std::move(entry));
  }
  return dst;
}

}  // namespace serve
}  // namespace rotom
