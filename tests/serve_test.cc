// Tests for the serve subsystem (DESIGN.md §10): snapshot save/load
// round-trip fidelity, Status-based rejection of malformed snapshot files,
// the thread-safe InferenceSession, a one-model deployment served by a
// one-tenant TenantServer (including the 8-thread concurrent load shape run
// under TSan by scripts/check.sh), and the rotom::api facade's spec
// validation.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/textcls_gen.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "rotom/api.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "text/tokenizer.h"

namespace rotom {
namespace {

using serve::InferenceSession;
using serve::ModelRegistry;
using serve::Prediction;
using serve::Snapshot;
using serve::TenantServer;

// A one-model deployment publishes its snapshot under one name and serves
// that name as the only tenant.
constexpr char kModel[] = "model";

std::shared_ptr<text::Vocabulary> ServeVocab() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w :
       {"the", "movie", "was", "great", "terrible", "plot", "acting",
        "boring", "brilliant", "a", "an", "of"})
    vocab->AddToken(w);
  return vocab;
}

models::ClassifierConfig ServeConfig() {
  models::ClassifierConfig config;
  config.num_classes = 3;
  config.max_len = 12;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  return config;
}

text::IdfTable ServeIdf() {
  return text::IdfTable::Build({{"the", "movie", "was", "great"},
                                {"the", "plot", "was", "boring"},
                                {"brilliant", "acting"}});
}

Snapshot MakeSnapshot(uint64_t seed = 1) {
  Rng rng(seed);
  models::TransformerClassifier model(ServeConfig(), ServeVocab(), rng);
  model.SetTraining(false);
  return Snapshot::FromModel(model, ServeIdf());
}

const std::vector<std::string>& QueryTexts() {
  static const std::vector<std::string> texts = {
      "the movie was great", "the plot was boring", "brilliant acting",
      "a terrible movie of boring acting"};
  return texts;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// RSNAP header: 8-byte magic, u32 version, u64 payload_size at offset 12,
// u64 FNV-1a payload checksum at offset 20, then the payload.
constexpr size_t kPayloadSizeOffset = 12;
constexpr size_t kChecksumOffset = 20;
constexpr size_t kHeaderSize = 28;

void PutU64(std::string* bytes, size_t offset, uint64_t value) {
  ASSERT_LE(offset + sizeof(value), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

// Recomputes the payload checksum after an edit, the way a crafted file
// would: the checksum checks integrity, it does not authenticate.
void Rechecksum(std::string* bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = kHeaderSize; i < bytes->size(); ++i) {
    hash ^= static_cast<unsigned char>((*bytes)[i]);
    hash *= 0x100000001b3ULL;
  }
  PutU64(bytes, kChecksumOffset, hash);
}

// ---------------------------------------------------------------------------
// Snapshot round trip

TEST(SnapshotTest, SaveLoadRoundTripsBitIdenticalLogits) {
  const Snapshot original = MakeSnapshot();
  const std::string path = TempPath("serve_roundtrip.rsnap");
  ASSERT_TRUE(original.Save(path).ok());

  auto loaded = Snapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  auto before = InferenceSession::Create(original);
  auto after = InferenceSession::Create(loaded.value());
  ASSERT_TRUE(before.ok()) << before.status().message();
  ASSERT_TRUE(after.ok()) << after.status().message();

  const Tensor a = before.value()->Logits(QueryTexts());
  const Tensor b = after.value()->Logits(QueryTexts());
  ASSERT_EQ(a.shape(), b.shape());
  // Bit-identical, not approximately equal: the format stores raw IEEE-754
  // bytes and fixed-width integers, so nothing is lost in the round trip.
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripPreservesConfigVocabAndIdf) {
  const Snapshot original = MakeSnapshot();
  const std::string path = TempPath("serve_sections.rsnap");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = Snapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  const auto& got = loaded.value();
  EXPECT_EQ(got.config.num_classes, original.config.num_classes);
  EXPECT_EQ(got.config.max_len, original.config.max_len);
  EXPECT_EQ(got.config.dim, original.config.dim);
  EXPECT_EQ(got.vocab->size(), original.vocab->size());
  for (const char* w : {"movie", "brilliant", "terrible"})
    EXPECT_TRUE(got.vocab->Contains(w)) << w;

  EXPECT_EQ(got.idf.num_documents(), original.idf.num_documents());
  EXPECT_EQ(got.idf.max_idf(), original.idf.max_idf());
  const auto want_entries = original.idf.SortedEntries();
  const auto got_entries = got.idf.SortedEntries();
  ASSERT_EQ(got_entries.size(), want_entries.size());
  for (size_t i = 0; i < want_entries.size(); ++i) {
    EXPECT_EQ(got_entries[i].first, want_entries[i].first);
    EXPECT_EQ(got_entries[i].second, want_entries[i].second);  // bit-exact
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Snapshot::Load error paths: every malformed input is a Status, not an abort.

TEST(SnapshotTest, LoadMissingFileReturnsStatus) {
  auto result = Snapshot::Load(TempPath("serve_no_such_file.rsnap"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("cannot open"), std::string::npos)
      << result.status().message();
}

TEST(SnapshotTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("serve_bad_magic.rsnap");
  WriteFileBytes(path, "definitely not a snapshot file at all");
  auto result = Snapshot::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bad magic"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadRejectsUnsupportedVersion) {
  const std::string path = TempPath("serve_bad_version.rsnap");
  ASSERT_TRUE(MakeSnapshot().Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  // Header layout: 8-byte magic, then the u32 format version.
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] = static_cast<char>(0x7f);
  WriteFileBytes(path, bytes);
  auto result = Snapshot::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unsupported snapshot version"),
            std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadRejectsTruncatedFile) {
  const std::string path = TempPath("serve_truncated.rsnap");
  ASSERT_TRUE(MakeSnapshot().Save(path).ok());
  const std::string bytes = ReadFileBytes(path);
  // Chop mid-payload and, separately, mid-header.
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  auto mid_payload = Snapshot::Load(path);
  ASSERT_FALSE(mid_payload.ok());
  EXPECT_NE(mid_payload.status().message().find("truncated"),
            std::string::npos)
      << mid_payload.status().message();

  WriteFileBytes(path, bytes.substr(0, 10));
  auto mid_header = Snapshot::Load(path);
  ASSERT_FALSE(mid_header.ok());
  EXPECT_NE(mid_header.status().message().find("truncated"),
            std::string::npos)
      << mid_header.status().message();

  // A header claiming a 2^62-byte payload is checked against the file
  // size before anything is allocated for it.
  std::string oversized = bytes;
  PutU64(&oversized, kPayloadSizeOffset, uint64_t{1} << 62);
  WriteFileBytes(path, oversized);
  auto claim = Snapshot::Load(path);
  ASSERT_FALSE(claim.ok());
  EXPECT_NE(claim.status().message().find("truncated snapshot payload"),
            std::string::npos)
      << claim.status().message();
  std::remove(path.c_str());
}

// A snapshot edited and re-checksummed to dim 6 with 4 heads: no model can
// be built from it (the f32 attention constructor would abort, the int8
// forward would run with head_dim 1), so Load refuses it and neither
// session is built.
TEST(SnapshotTest, LoadRejectsHeadsThatDoNotDivideDim) {
  Snapshot snapshot = MakeSnapshot();
  snapshot.config.dim = 6;
  snapshot.config.num_heads = 4;
  const std::string path = TempPath("serve_bad_heads.rsnap");
  ASSERT_TRUE(snapshot.Save(path).ok());  // Save writes the checksum
  auto result = Snapshot::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "snapshot config: dim 6 is not divisible by num_heads 4"),
            std::string::npos)
      << result.status().message();
  for (const auto precision : {InferenceSession::Precision::kFloat32,
                               InferenceSession::Precision::kInt8}) {
    InferenceSession::Options options;
    options.precision = precision;
    EXPECT_FALSE(InferenceSession::Open(path, options).ok());
  }
  std::remove(path.c_str());
}

// Sizes no larger than the weights the file holds: a huge max_len must not
// reach BuildModel, which would allocate the position table from it.
TEST(SnapshotTest, LoadRejectsConfigLargerThanItsWeights) {
  Snapshot snapshot = MakeSnapshot();
  snapshot.config.max_len = int64_t{1} << 40;
  const std::string path = TempPath("serve_huge_max_len.rsnap");
  ASSERT_TRUE(snapshot.Save(path).ok());
  auto result = Snapshot::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("snapshot config sizes exceed"),
            std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadRejectsInflatedIdfCount) {
  const Snapshot snapshot = MakeSnapshot();
  const std::string path = TempPath("serve_idf_count.rsnap");
  ASSERT_TRUE(snapshot.Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  // Payload: the config (six i64 and one f32), the vocabulary (u64 count,
  // then one length-prefixed string per token), then the IDF section's
  // i64 num_documents, f64 max_idf and u64 entry count.
  size_t offset = kHeaderSize + 6 * sizeof(int64_t) + sizeof(float) +
                  sizeof(uint64_t);
  for (int64_t id = 0; id < snapshot.vocab->size(); ++id)
    offset += sizeof(uint64_t) + snapshot.vocab->Token(id).size();
  offset += sizeof(int64_t) + sizeof(double);
  uint64_t idf_count = 0;
  std::memcpy(&idf_count, bytes.data() + offset, sizeof(idf_count));
  ASSERT_EQ(idf_count, snapshot.idf.SortedEntries().size());

  PutU64(&bytes, offset, uint64_t{1} << 60);
  Rechecksum(&bytes);
  WriteFileBytes(path, bytes);
  auto result = Snapshot::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("idf section"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveReplacesTheFileByRename) {
  const std::string path = TempPath("serve_atomic.rsnap");
  ASSERT_TRUE(MakeSnapshot(1).Save(path).ok());
  const std::string old_bytes = ReadFileBytes(path);
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  // A reader holding the old file mapped (ModelRegistry::Publish loads
  // through such a mapping) must keep seeing it intact.
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();

  ASSERT_TRUE(MakeSnapshot(2).Save(path).ok());
  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_NE(before.st_ino, after.st_ino) << "Save rewrote the file in place";
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  EXPECT_EQ(mapped.value().bytes(), old_bytes);
  EXPECT_NE(ReadFileBytes(path), old_bytes);
  EXPECT_TRUE(Snapshot::Load(path).ok());
  std::remove(path.c_str());

  // A Save into a missing directory fails and leaves nothing behind.
  const std::string missing = TempPath("serve_no_such_dir/model.rsnap");
  const Status s = MakeSnapshot().Save(missing);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("cannot open"), std::string::npos) << s.message();
  EXPECT_NE(::access(missing.c_str(), F_OK), 0);
  EXPECT_NE(::access((missing + ".tmp").c_str(), F_OK), 0);
}

TEST(SnapshotTest, LoadDetectsBitCorruptionViaChecksum) {
  const std::string path = TempPath("serve_corrupt.rsnap");
  ASSERT_TRUE(MakeSnapshot().Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  // Flip one bit deep in the payload (past the 28-byte header).
  ASSERT_GT(bytes.size(), 128u);
  bytes[bytes.size() - 64] ^= 0x01;
  WriteFileBytes(path, bytes);
  auto result = Snapshot::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("checksum mismatch"),
            std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadRejectsTrailingBytes) {
  const std::string path = TempPath("serve_trailing.rsnap");
  ASSERT_TRUE(MakeSnapshot().Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes += "extra";
  WriteFileBytes(path, bytes);
  auto result = Snapshot::Load(path);
  ASSERT_FALSE(result.ok()) << "trailing bytes must not be ignored";
  std::remove(path.c_str());
}

TEST(SnapshotTest, BuildModelRejectsMismatchedWeights) {
  Snapshot snapshot = MakeSnapshot();
  ASSERT_FALSE(snapshot.weights.empty());
  snapshot.weights[0].first += "_renamed";
  auto result = snapshot.BuildModel();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("snapshot weight"),
            std::string::npos)
      << result.status().message();

  Snapshot missing = MakeSnapshot();
  missing.weights.pop_back();
  auto short_result = missing.BuildModel();
  ASSERT_FALSE(short_result.ok());
}

// BuildModel's parameters share the snapshot's tensors, so they come back
// frozen, in both precisions. A training step on the f32 model finds no
// gradient path and no gradient to apply, and the snapshot keeps its bits.
TEST(SnapshotTest, BuiltModelIsFrozen) {
  const Snapshot snapshot = MakeSnapshot();
  NamedTensors before;
  for (const auto& [name, tensor] : snapshot.weights)
    before.emplace_back(name, tensor.Clone());
  for (const bool int8 : {false, true}) {
    auto model = snapshot.BuildModel(int8);
    ASSERT_TRUE(model.ok()) << model.status().message();
    for (const auto& [name, param] : model.value()->NamedParameters())
      EXPECT_FALSE(param.requires_grad()) << name << " int8=" << int8;
  }

  auto built = snapshot.BuildModel();
  ASSERT_TRUE(built.ok());
  models::TransformerClassifier& model = *built.value();
  model.SetTraining(true);
  nn::Adam adam(model.Parameters(), 0.1f, 0.9f, 0.999f, 1e-8f,
                /*weight_decay=*/0.1f);
  Rng rng(3);
  const text::EncodedBatch batch = text::EncodeBatchForClassifier(
      model.vocab(), QueryTexts(), model.config().max_len);
  const Variable loss = ops::CrossEntropyMean(
      model.ForwardLogitsEncoded(batch, rng), {0, 1, 2, 0});
  EXPECT_FALSE(loss.requires_grad());
  adam.Step();
  ASSERT_EQ(snapshot.weights.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    const Tensor& now = snapshot.weights[i].second;
    ASSERT_EQ(now.shape(), before[i].second.shape());
    EXPECT_EQ(std::memcmp(now.data(), before[i].second.data(),
                          sizeof(float) * now.size()),
              0)
        << before[i].first;
  }
}

// Each way of writing a built model's parameters aborts instead of writing
// through to the snapshot.
TEST(SnapshotDeathTest, WritingABuiltModelAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Snapshot snapshot = MakeSnapshot();
  auto built = snapshot.BuildModel();
  ASSERT_TRUE(built.ok());
  models::TransformerClassifier& model = *built.value();
  model.SetTraining(true);
  Rng rng(3);
  const text::EncodedBatch batch = text::EncodeBatchForClassifier(
      model.vocab(), QueryTexts(), model.config().max_len);
  const Variable loss = ops::CrossEntropyMean(
      model.ForwardLogitsEncoded(batch, rng), {0, 1, 2, 0});
  EXPECT_DEATH(loss.Backward(), "no grad path");
  const NamedTensors state = model.StateDict();
  EXPECT_DEATH(model.LoadStateDict(state), "frozen parameter");
  Rng init(5);
  const models::TransformerClassifier other(ServeConfig(), ServeVocab(), init);
  EXPECT_DEATH(model.CopyParametersFrom(other), "frozen parameter");
}

// ---------------------------------------------------------------------------
// Quantized snapshots (format v2) and the int8 serving path

TEST(QuantizedSnapshotTest, FloatSnapshotsStillWriteFormatVersion1) {
  // Backward-compat pin: an all-float snapshot must keep producing files
  // that pre-quantization readers (which only accept version 1) can load.
  const std::string path = TempPath("serve_v1_pin.rsnap");
  ASSERT_TRUE(MakeSnapshot().Save(path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(static_cast<uint8_t>(bytes[8]), 1);  // u32 version, little-endian
  EXPECT_EQ(static_cast<uint8_t>(bytes[9]), 0);
  auto loaded = Snapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded.value().qweights.empty());
  std::remove(path.c_str());
}

TEST(QuantizedSnapshotTest, QuantizeReportsEveryTensorOnce) {
  std::vector<serve::TensorQuantReport> report;
  auto quantized = serve::QuantizeSnapshot(MakeSnapshot(), &report);
  ASSERT_TRUE(quantized.ok()) << quantized.status().message();

  const Snapshot original = MakeSnapshot();
  ASSERT_EQ(report.size(), original.weights.size());
  size_t num_quantized = 0;
  for (const auto& e : report) {
    if (e.quantized) {
      ++num_quantized;
      EXPECT_GT(e.rows, 0);
      EXPECT_GT(e.cols, 0);
      EXPECT_GE(e.error.max_abs, e.error.mean_abs);
    }
  }
  // ServeConfig has one layer: 4 attention + 2 FFN projections + the head.
  EXPECT_EQ(num_quantized, 7u);
  EXPECT_EQ(quantized.value().qweights.size(), 7u);
  EXPECT_EQ(quantized.value().weights.size() +
                quantized.value().qweights.size(),
            original.weights.size());

  // Quantizing twice is an input error, not a silent re-quantization.
  auto again = serve::QuantizeSnapshot(quantized.value());
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.status().message().find("already quantized"),
            std::string::npos)
      << again.status().message();
}

TEST(QuantizedSnapshotTest, V2RoundTripPreservesCodesBitIdentically) {
  auto quantized = serve::QuantizeSnapshot(MakeSnapshot());
  ASSERT_TRUE(quantized.ok());
  const std::string path = TempPath("serve_v2_roundtrip.rsnap");
  ASSERT_TRUE(quantized.value().Save(path).ok());

  const std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(static_cast<uint8_t>(bytes[8]), 2);  // format version 2

  auto loaded = Snapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().qweights.size(),
            quantized.value().qweights.size());
  for (size_t i = 0; i < loaded.value().qweights.size(); ++i) {
    const auto& [name, got] = loaded.value().qweights[i];
    const auto& [want_name, want] = quantized.value().qweights[i];
    EXPECT_EQ(name, want_name);
    EXPECT_EQ(got.transposed, want.transposed);
    EXPECT_EQ(got.tensor.rows, want.tensor.rows);
    EXPECT_EQ(got.tensor.cols, want.tensor.cols);
    EXPECT_EQ(got.tensor.data, want.tensor.data);
    EXPECT_EQ(got.tensor.scales, want.tensor.scales);
    EXPECT_EQ(got.tensor.zero_points, want.tensor.zero_points);
  }
  ASSERT_EQ(loaded.value().weights.size(), quantized.value().weights.size());
  std::remove(path.c_str());
}

TEST(QuantizedSnapshotTest, V2LoadRejectsTruncationAndCorruption) {
  auto quantized = serve::QuantizeSnapshot(MakeSnapshot());
  ASSERT_TRUE(quantized.ok());
  const std::string path = TempPath("serve_v2_damage.rsnap");
  ASSERT_TRUE(quantized.value().Save(path).ok());
  const std::string bytes = ReadFileBytes(path);

  WriteFileBytes(path, bytes.substr(0, bytes.size() - 48));
  auto truncated = Snapshot::Load(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated"), std::string::npos)
      << truncated.status().message();

  std::string corrupt = bytes;
  corrupt[corrupt.size() - 64] ^= 0x10;  // flip one payload bit
  WriteFileBytes(path, corrupt);
  auto mismatch = Snapshot::Load(path);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.status().message().find("checksum mismatch"),
            std::string::npos)
      << mismatch.status().message();
  std::remove(path.c_str());
}

TEST(QuantizedSnapshotTest, BuildModelDequantizesCloseToFloatModel) {
  const Snapshot original = MakeSnapshot();
  auto quantized = serve::QuantizeSnapshot(original);
  ASSERT_TRUE(quantized.ok());

  // BuildModel on a v2 snapshot reconstitutes a float model from the int8
  // weights; its logits track the original within quantization error.
  auto float_session = InferenceSession::Create(original);
  InferenceSession::Options f32;
  f32.precision = InferenceSession::Precision::kFloat32;
  auto deq_session = InferenceSession::Create(quantized.value(), f32);
  ASSERT_TRUE(float_session.ok()) << float_session.status().message();
  ASSERT_TRUE(deq_session.ok()) << deq_session.status().message();
  EXPECT_FALSE(deq_session.value()->quantized());

  const Tensor a = float_session.value()->Logits(QueryTexts());
  const Tensor b = deq_session.value()->Logits(QueryTexts());
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 0.05f) << i;
}

TEST(QuantizedSessionTest, PrecisionModesSelectTheForward) {
  const Snapshot float_snapshot = MakeSnapshot();
  auto quantized = serve::QuantizeSnapshot(float_snapshot);
  ASSERT_TRUE(quantized.ok());

  // kAuto follows the snapshot.
  auto auto_f32 = InferenceSession::Create(float_snapshot);
  auto auto_int8 = InferenceSession::Create(quantized.value());
  ASSERT_TRUE(auto_f32.ok()) << auto_f32.status().message();
  ASSERT_TRUE(auto_int8.ok()) << auto_int8.status().message();
  EXPECT_FALSE(auto_f32.value()->quantized());
  EXPECT_TRUE(auto_int8.value()->quantized());

  // kInt8 on a float snapshot quantizes at session build time.
  InferenceSession::Options int8;
  int8.precision = InferenceSession::Precision::kInt8;
  auto forced = InferenceSession::Create(float_snapshot, int8);
  ASSERT_TRUE(forced.ok()) << forced.status().message();
  EXPECT_TRUE(forced.value()->quantized());

  // The int8 forward approximates the float forward within quantization
  // error and is deterministic (exact integer GEMM, eval-mode-only ops).
  const Tensor f = auto_f32.value()->Logits(QueryTexts());
  const Tensor q1 = auto_int8.value()->Logits(QueryTexts());
  const Tensor q2 = forced.value()->Logits(QueryTexts());
  ASSERT_EQ(f.shape(), q1.shape());
  for (int64_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f[i], q1[i], 0.25f) << i;
    EXPECT_EQ(q1[i], q2[i]) << i;  // same codes either way it was quantized
  }
  const Tensor q3 = auto_int8.value()->Logits(QueryTexts());
  for (int64_t i = 0; i < q1.size(); ++i) EXPECT_EQ(q1[i], q3[i]) << i;
}

TEST(QuantizedSessionTest, QuantizedForwardBumpsTheCounter) {
  auto quantized = serve::QuantizeSnapshot(MakeSnapshot());
  ASSERT_TRUE(quantized.ok());
  auto session = InferenceSession::Create(quantized.value());
  ASSERT_TRUE(session.ok());
  const uint64_t before = obs::GetCounter("serve.quantized").Value();
  session.value()->PredictBatch(QueryTexts());
  session.value()->PredictBatch(QueryTexts());
  EXPECT_EQ(obs::GetCounter("serve.quantized").Value(), before + 2);
}

// An int8 Linear weight must be stored output-major. A v2 file whose
// attn.q codes are flagged as not transposed (the square [16, 16] shape
// still fits) is refused by an int8 build with a Status, not an abort.
TEST(QuantizedSessionTest, Int8RejectsALinearWeightNotStoredOutputMajor) {
  auto quantized = serve::QuantizeSnapshot(MakeSnapshot());
  ASSERT_TRUE(quantized.ok());
  const std::string name = "encoder.layer0.attn.q.weight";
  bool found = false;
  for (auto& [qname, qw] : quantized.value().qweights) {
    if (qname != name) continue;
    ASSERT_TRUE(qw.transposed);
    qw.transposed = false;
    found = true;
  }
  ASSERT_TRUE(found);
  const std::string path = TempPath("serve_untransposed_q.rsnap");
  ASSERT_TRUE(quantized.value().Save(path).ok());
  InferenceSession::Options int8;
  int8.precision = InferenceSession::Precision::kInt8;
  auto session = InferenceSession::Open(path, int8);
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("snapshot weight '" + name +
                                            "' has a shape mismatch"),
            std::string::npos)
      << session.status().message();
  std::remove(path.c_str());
}

// A v2 file with one Linear weight left in f32 still builds an int8
// session: that weight is quantized at build time with QuantizeSnapshot's
// scheme, so the logits are those of the fully quantized file.
TEST(QuantizedSessionTest, Int8QuantizesALinearWeightLeftInF32) {
  const Snapshot original = MakeSnapshot();
  auto quantized = serve::QuantizeSnapshot(original);
  ASSERT_TRUE(quantized.ok());
  Snapshot partial = quantized.value();
  const std::string name = "head.weight";
  std::erase_if(partial.qweights,
                [&](const auto& entry) { return entry.first == name; });
  ASSERT_EQ(partial.qweights.size() + 1, quantized.value().qweights.size());
  for (const auto& [wname, tensor] : original.weights)
    if (wname == name) partial.weights.emplace_back(wname, tensor);
  const std::string path = TempPath("serve_partial_v2.rsnap");
  ASSERT_TRUE(partial.Save(path).ok());

  auto session = InferenceSession::Open(path);  // kAuto: v2 serves int8
  auto full = InferenceSession::Create(quantized.value());
  ASSERT_TRUE(session.ok()) << session.status().message();
  ASSERT_TRUE(full.ok()) << full.status().message();
  EXPECT_TRUE(session.value()->quantized());
  const Tensor got = session.value()->Logits(QueryTexts());
  const Tensor want = full.value()->Logits(QueryTexts());
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * got.size()),
            0);
  std::remove(path.c_str());
}

TEST(QuantizedSessionTest, ServesThroughAOneTenantServer) {
  auto quantized = serve::QuantizeSnapshot(MakeSnapshot());
  ASSERT_TRUE(quantized.ok());
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(kModel, quantized.value()).ok());
  const auto session = registry.Acquire(kModel);
  ASSERT_TRUE(session->quantized());
  const auto direct = session->PredictBatch(QueryTexts());

  TenantServer server(&registry, {kModel});
  for (size_t i = 0; i < QueryTexts().size(); ++i) {
    auto result = server.Predict(kModel, QueryTexts()[i]);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result.value().label, direct[i].label);
    ASSERT_EQ(result.value().probs.size(), direct[i].probs.size());
    for (size_t c = 0; c < direct[i].probs.size(); ++c)
      EXPECT_EQ(result.value().probs[c], direct[i].probs[c]) << i << "," << c;
  }
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// InferenceSession

TEST(InferenceSessionTest, PredictBatchReturnsArgmaxAndDistribution) {
  auto session = InferenceSession::Create(MakeSnapshot());
  ASSERT_TRUE(session.ok()) << session.status().message();
  const auto predictions = session.value()->PredictBatch(QueryTexts());
  ASSERT_EQ(predictions.size(), QueryTexts().size());
  for (const auto& p : predictions) {
    ASSERT_EQ(p.probs.size(), 3u);
    float sum = 0.0f;
    size_t argmax = 0;
    for (size_t c = 0; c < p.probs.size(); ++c) {
      sum += p.probs[c];
      if (p.probs[c] > p.probs[argmax]) argmax = c;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    EXPECT_EQ(static_cast<size_t>(p.label), argmax);
  }
}

TEST(InferenceSessionTest, RepeatQueriesHitTheEncodingCache) {
  auto session = InferenceSession::Create(MakeSnapshot());
  ASSERT_TRUE(session.ok()) << session.status().message();
  session.value()->PredictBatch(QueryTexts());
  const auto cold = session.value()->CacheStats();
  session.value()->PredictBatch(QueryTexts());
  const auto warm = session.value()->CacheStats();
  EXPECT_EQ(cold.misses, QueryTexts().size());
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_GE(warm.hits, cold.hits + QueryTexts().size());
}

TEST(InferenceSessionTest, OpenReportsLoadErrors) {
  auto session = InferenceSession::Open(TempPath("serve_absent.rsnap"));
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// One-tenant TenantServer: a one-model deployment

// The TSan-swept concurrency shape: 8 closed-loop client threads against
// one server; every coalesced answer must equal the serial single-request
// answer for the same text (eval-mode forwards are deterministic and rows
// are independent, so co-batching must not change results).
TEST(OneTenantServerTest, EightThreadsGetSerialIdenticalResults) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(kModel, MakeSnapshot()).ok());
  const auto session = registry.Acquire(kModel);

  // Serial reference answers, one text per forward.
  std::vector<Prediction> expected;
  for (const auto& text : QueryTexts()) {
    auto one = session->PredictBatch(std::span<const std::string>(&text, 1));
    ASSERT_EQ(one.size(), 1u);
    expected.push_back(one[0]);
  }

  TenantServer::Options options;
  options.max_batch = 16;
  options.max_delay_us = 500;
  // Run the full observability surface under the concurrent load: the live
  // /metrics listener and the flight recorder (sampling every request) must
  // not perturb batching or results — this is the shape the TSan sweep in
  // scripts/check.sh replays.
  options.obs_http.enabled = true;
  options.servelog_dir = ::testing::TempDir();
  options.servelog_sample = 1;
  TenantServer server(&registry, {kModel}, options);
  EXPECT_NE(server.obs_http_port(), 0);
  ASSERT_NE(server.servelog(), nullptr);
  const std::string servelog_path = server.servelog()->path();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 32;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const size_t q = static_cast<size_t>(t + i) % QueryTexts().size();
        auto result = server.Predict(kModel, QueryTexts()[q]);
        if (!result.ok() || result.value().label != expected[q].label ||
            result.value().probs != expected[q].probs) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  server.Shutdown();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;

  const auto stats = server.GetStats(kModel);
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(stats.batches, 0u);
  // Coalescing must actually happen under 8-way concurrent load.
  EXPECT_LT(stats.batches, stats.requests);

  // With sample=1, every request produced exactly one flight-recorder
  // event: ids are dense 1..N even though 8 clients raced to submit.
  std::ifstream log(servelog_path);
  ASSERT_TRUE(log.good()) << servelog_path;
  int request_events = 0;
  std::string line;
  while (std::getline(log, line)) {
    if (line.find("\"event\": \"request\"") != std::string::npos)
      ++request_events;
  }
  EXPECT_EQ(request_events, kThreads * kPerThread);
  std::remove(servelog_path.c_str());
}

TEST(OneTenantServerTest, ShutdownDrainsEveryPendingFuture) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(kModel, MakeSnapshot()).ok());
  // A huge delay and batch bound park submissions in the queue so Shutdown()
  // races real pending work.
  TenantServer::Options options;
  options.max_batch = 1024;
  options.max_delay_us = 60 * 1000 * 1000;
  TenantServer server(&registry, {kModel}, options);

  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(server.Submit(
        kModel, QueryTexts()[static_cast<size_t>(i) % QueryTexts().size()]));
  }
  server.Shutdown();
  for (auto& f : futures) {
    auto result = f.get();  // must not hang
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result.value().probs.size(), 3u);
  }
}

TEST(OneTenantServerTest, SubmitAfterShutdownResolvesToError) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(kModel, MakeSnapshot()).ok());
  TenantServer server(&registry, {kModel});
  server.Shutdown();
  server.Shutdown();  // idempotent
  auto result = server.Submit(kModel, "the movie was great").get();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("shut down"), std::string::npos)
      << result.status().message();
}

TEST(OneTenantServerTest, DestructorResolvesOutstandingFutures) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(kModel, MakeSnapshot()).ok());
  std::vector<std::future<StatusOr<Prediction>>> futures;
  {
    TenantServer::Options options;
    options.max_delay_us = 60 * 1000 * 1000;
    TenantServer server(&registry, {kModel}, options);
    for (int i = 0; i < 8; ++i)
      futures.push_back(server.Submit(kModel, "brilliant acting"));
  }  // destructor == Shutdown()
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

// ---------------------------------------------------------------------------
// rotom::api facade

data::TaskDataset TinyApiDataset() {
  data::TextClsOptions options;
  options.train_size = 16;
  options.test_size = 24;
  options.unlabeled_size = 32;
  options.seed = 11;
  return data::MakeTextClsDataset("sst2", options);
}

eval::ExperimentOptions TinyApiOptions() {
  eval::ExperimentOptions options;
  options.classifier.max_len = 16;
  options.classifier.dim = 16;
  options.classifier.num_heads = 2;
  options.classifier.num_layers = 1;
  options.classifier.ffn_dim = 32;
  options.pretrain.epochs = 1;
  options.pretrain.max_corpus = 32;
  options.epochs = 2;
  options.batch_size = 8;
  return options;
}

TEST(ApiTest, TrainRejectsEmptyTrainSet) {
  data::TaskDataset ds = TinyApiDataset();
  ds.train.clear();
  api::TrainSpec spec;
  spec.source = data::DataSource::Inline(ds);
  auto report = api::Train(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("train is empty"),
            std::string::npos)
      << report.status().message();
}

TEST(ApiTest, TrainRejectsDegenerateClassCount) {
  data::TaskDataset ds = TinyApiDataset();
  ds.num_classes = 1;
  api::TrainSpec spec;
  spec.source = data::DataSource::Inline(ds);
  auto report = api::Train(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("num_classes"), std::string::npos)
      << report.status().message();
}

TEST(ApiTest, TrainRejectsOutOfRangeLabels) {
  data::TaskDataset ds = TinyApiDataset();
  ds.train[3].label = ds.num_classes + 5;
  api::TrainSpec spec;
  spec.source = data::DataSource::Inline(ds);
  auto report = api::Train(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("label"), std::string::npos)
      << report.status().message();
}

// Model configs no model can be built from are a Status from Train, not
// an abort in the attention constructor or in ops::Dropout.
TEST(ApiTest, TrainRejectsHeadsThatDoNotDivideDim) {
  api::TrainSpec spec;
  spec.source = data::DataSource::Inline(TinyApiDataset());
  spec.options = TinyApiOptions();
  spec.options.classifier.dim = 32;
  spec.options.classifier.num_heads = 3;
  auto report = api::Train(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find(
                "options.classifier: dim 32 is not divisible by num_heads 3"),
            std::string::npos)
      << report.status().message();

  spec.options = TinyApiOptions();
  spec.options.seq2seq.num_heads = 5;
  report = api::Train(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("options.seq2seq: dim"),
            std::string::npos)
      << report.status().message();
}

TEST(ApiTest, TrainRejectsDropoutOfOne) {
  api::TrainSpec spec;
  spec.source = data::DataSource::Inline(TinyApiDataset());
  spec.options = TinyApiOptions();
  spec.options.classifier.dropout = 1.0f;
  auto report = api::Train(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("dropout must be in [0, 1)"),
            std::string::npos)
      << report.status().message();
}

// The full facade lifecycle at test scale: Train -> Snapshot::Save ->
// InferenceSession::Open -> PredictBatch, with the session serving the
// training-time logits bit for bit.
TEST(ApiTest, TrainExportServeLifecycle) {
  const data::TaskDataset ds = TinyApiDataset();
  api::TrainSpec spec;
  spec.source = data::DataSource::Inline(ds);
  spec.method = eval::Method::kBaseline;  // fastest method; facade is the DUT
  spec.options = TinyApiOptions();
  spec.seed = 5;
  auto report = api::Train(spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GE(report.value().metrics.test_metric, 0.0);
  EXPECT_LE(report.value().metrics.test_metric, 100.0);

  const std::string path = TempPath("serve_api_lifecycle.rsnap");
  ASSERT_TRUE(report.value().snapshot.Save(path).ok());

  auto direct = api::InferenceSession::Create(report.value().snapshot);
  auto opened = api::InferenceSession::Open(path);
  ASSERT_TRUE(direct.ok()) << direct.status().message();
  ASSERT_TRUE(opened.ok()) << opened.status().message();

  std::vector<std::string> queries;
  for (size_t i = 0; i < 5 && i < ds.test.size(); ++i)
    queries.push_back(ds.test[i].text);
  const Tensor a = direct.value()->Logits(queries);
  const Tensor b = opened.value()->Logits(queries);
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;

  const auto predictions = opened.value()->PredictBatch(queries);
  ASSERT_EQ(predictions.size(), queries.size());
  for (const auto& p : predictions) {
    EXPECT_GE(p.label, 0);
    EXPECT_LT(p.label, ds.num_classes);
    EXPECT_EQ(p.probs.size(),
              static_cast<size_t>(ds.num_classes));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rotom
