// Seeded mutation sweep over the decoders: RSNAP v1 and v2 snapshots
// (serve::Snapshot::Load), RTCK1 checkpoints (core::TrainCheckpoint::Load)
// and the CSV readers (ReadCsvFile, CsvRowReader, stream::CsvFileSource).
// Each base file is mutated by truncation at every length, seeded byte
// flips, and u64 inflation of every 8-byte window — which covers every
// length, count and dim field without the sweep knowing where they sit.
// Mutated RSNAP payloads get their payload size and checksum recomputed, so
// the payload parser is reached instead of the checksum rejecting them.
//
// The contract: every Load returns an error Status or an object — no abort,
// no hang, no uncaught exception, and under scripts/check.sh address no
// ASan/UBSan report. Every snapshot that loads also builds an f32 and an
// int8 session (or gets a Status from Create) and serves one request with
// each; every CSV mutant reads the same rows (or fails) through all three
// readers. The budget is fixed (tiny files, fixed flip counts) so the sweep
// stays in tier-1.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/train_checkpoint.h"
#include "rotom/api.h"
#include "stream/csv_source.h"
#include "util/csv.h"
#include "util/rng.h"

namespace rotom {
namespace {

// RSNAP header: 8-byte magic, u32 version, u64 payload_size, u64 checksum.
constexpr size_t kPayloadSizeOffset = 12;
constexpr size_t kChecksumOffset = 20;
constexpr size_t kHeaderSize = 28;

constexpr int kFlipsPerFile = 1500;
constexpr int kCsvFlips = 1000;

std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + info->name() + "_" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void PutU64(std::string* bytes, size_t offset, uint64_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

// Makes a mutated RSNAP file self-consistent again: the header's payload
// size and FNV-1a checksum describe whatever payload it now carries.
void Reseal(std::string* bytes) {
  if (bytes->size() < kHeaderSize) return;
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = kHeaderSize; i < bytes->size(); ++i) {
    hash ^= static_cast<unsigned char>((*bytes)[i]);
    hash *= 0x100000001b3ULL;
  }
  PutU64(bytes, kPayloadSizeOffset, bytes->size() - kHeaderSize);
  PutU64(bytes, kChecksumOffset, hash);
}

// A deliberately tiny classifier, so every mutation below is affordable.
serve::Snapshot TinySnapshot() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w : {"red", "green", "blue"}) vocab->AddToken(w);
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 4;
  config.dim = 4;
  config.num_heads = 1;
  config.num_layers = 1;
  config.ffn_dim = 4;
  config.dropout = 0.0f;
  Rng rng(5);
  models::TransformerClassifier model(config, vocab, rng);
  return serve::Snapshot::FromModel(
      model, text::IdfTable::Build({{"red", "green"}, {"blue"}}));
}

core::TrainCheckpoint TinyCheckpoint() {
  core::TrainCheckpoint ckpt;
  ckpt.SetInt("step", 12);
  ckpt.SetDouble("best_metric", 0.625);
  ckpt.SetScalar("stream_state", "root=7;root.inner=9");
  Rng rng(6);
  ckpt.tensors().emplace_back("model.w", Tensor::Randn({3, 4}, rng));
  ckpt.tensors().emplace_back("model.b", Tensor::Randn({4}, rng));
  ckpt.tensors().emplace_back("adam.m", Tensor::Randn({2, 2, 2}, rng));
  return ckpt;
}

struct SweepResult {
  int loads = 0;
  int accepted = 0;
  std::set<std::string> errors;  // distinct messages, path stripped
};

// Runs every mutation of `base` through `load`, which must return (ok or
// not) on each. `reseal` re-checksums mutants whose edit lies past the
// RSNAP header; edits inside the header are left as they are, so the
// header checks see them too.
SweepResult Sweep(const std::string& base, const std::string& path,
                  const std::function<Status(const std::string&)>& load,
                  bool reseal, uint64_t seed, int flips = kFlipsPerFile) {
  SweepResult result;
  // One descriptor rewritten in place for every mutant: reopening with
  // O_TRUNC per mutant costs far more than the loads themselves.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  EXPECT_GE(fd, 0) << path;
  const auto run = [&](std::string bytes, size_t edit_offset) {
    if (reseal && edit_offset >= kHeaderSize) Reseal(&bytes);
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(bytes.size())), 0);
    ASSERT_EQ(::pwrite(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    const Status s = load(path);
    ++result.loads;
    if (s.ok()) {
      ++result.accepted;
      return;
    }
    std::string message = s.message();
    for (size_t at; (at = message.find(path)) != std::string::npos;)
      message.erase(at, path.size());
    result.errors.insert(message);
  };

  for (size_t cut = 0; cut < base.size(); ++cut) run(base.substr(0, cut), cut);

  Rng rng(seed);
  for (int i = 0; i < flips; ++i) {
    std::string bytes = base;
    const size_t at = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(bytes.size())));
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.UniformInt(255)));
    run(std::move(bytes), at);
  }

  // Length fields blown up past any real size: 2^62 (no allocation may
  // follow it), 2^40 (a dim or count whose product must not wrap around),
  // and 2^32 + 1 (past a 32-bit truncation).
  for (const uint64_t value :
       {uint64_t{1} << 62, uint64_t{1} << 40, (uint64_t{1} << 32) + 1}) {
    for (size_t at = 0; at + sizeof(uint64_t) <= base.size(); ++at) {
      std::string bytes = base;
      PutU64(&bytes, at, value);
      run(std::move(bytes), at);
    }
  }
  ::close(fd);
  std::remove(path.c_str());
  return result;
}

// Loads a snapshot mutant and, when it loads, builds an f32 and an int8
// session from it and classifies one text with each: a config Load accepts
// must be one a model can be built from, or Create must say why not.
Status LoadAndServe(const std::string& path) {
  auto snapshot = serve::Snapshot::Load(path);
  if (!snapshot.ok()) return snapshot.status();
  Status first_error = Status::Ok();
  for (const auto precision : {serve::InferenceSession::Precision::kFloat32,
                               serve::InferenceSession::Precision::kInt8}) {
    serve::InferenceSession::Options options;
    options.cache_rows = 0;
    options.precision = precision;
    auto session = serve::InferenceSession::Create(snapshot.value(), options);
    if (!session.ok()) {
      if (first_error.ok()) first_error = session.status();
      continue;
    }
    const std::string text = "red blue";
    EXPECT_EQ(session.value()->PredictBatch({&text, 1}).size(), 1u);
  }
  return first_error;
}

Status LoadCheckpoint(const std::string& path) {
  return core::TrainCheckpoint::Load(path).status();
}

// The messages a sweep produced must include ones only the payload parser
// emits: resealed mutants got past the header and checksum checks.
void ExpectParserReached(const SweepResult& result) {
  int parser_errors = 0;
  for (const std::string& message : result.errors) {
    if (message.find("section") != std::string::npos ||
        message.find("snapshot weight") != std::string::npos)
      ++parser_errors;
  }
  EXPECT_GE(parser_errors, 4) << "resealed mutants never reached the parser";
}

TEST(DecoderSweepTest, SnapshotV1) {
  const std::string path = TempPath("v1.rsnap");
  ASSERT_TRUE(TinySnapshot().Save(path).ok());
  const std::string base = ReadBytes(path);
  ASSERT_EQ(base[8], 1);  // format version 1
  const SweepResult result = Sweep(base, path, LoadAndServe, true, 11);
  EXPECT_GT(result.loads, 5000);
  ExpectParserReached(result);
}

TEST(DecoderSweepTest, SnapshotV2) {
  auto quantized = serve::QuantizeSnapshot(TinySnapshot());
  ASSERT_TRUE(quantized.ok()) << quantized.status().message();
  const std::string path = TempPath("v2.rsnap");
  ASSERT_TRUE(quantized.value().Save(path).ok());
  const std::string base = ReadBytes(path);
  ASSERT_EQ(base[8], 2);  // format version 2
  const SweepResult result = Sweep(base, path, LoadAndServe, true, 12);
  EXPECT_GT(result.loads, 5000);
  ExpectParserReached(result);
}

TEST(DecoderSweepTest, Checkpoint) {
  const std::string path = TempPath("ckpt.rtck");
  ASSERT_TRUE(TinyCheckpoint().Save(path).ok());
  const std::string base = ReadBytes(path);
  const SweepResult result = Sweep(base, path, LoadCheckpoint, false, 13);
  EXPECT_GT(result.loads, 500);
  // Flips inside tensor data still load; flips in the structure must not.
  EXPECT_GT(result.accepted, 0);
  EXPECT_GE(result.errors.size(), 4u);
}

// A labelled CSV with every quoting feature the record reader handles:
// quoted commas, "" escapes, an embedded newline, and \r\n line ends.
constexpr char kCsvBase[] =
    "text,label\r\n"
    "\"red, green \"\"apple\"\"\",pos\r\n"
    "\"two\nlines\",neg\n"
    "plain words,pos\r\n"
    "\"say \"\"hi\"\", then go\",neg\n";

// Reads a CSV mutant through ReadCsvFile, CsvRowReader and CsvFileSource.
// All three use one record reader, so they must agree: the same header and
// rows, or an error from both table readers; a source over a table with
// rows and both columns draws every row of a pass and wraps around.
Status ReadCsvEveryWay(const std::string& path) {
  const auto table = ReadCsvFile(path);

  CsvRowReader reader;
  Status rows_status = reader.Open(path);
  std::vector<std::vector<std::string>> rows;
  for (std::vector<std::string> row; rows_status.ok();) {
    const auto got = reader.NextRow(&row);
    if (!got.ok()) rows_status = got.status();
    if (!got.ok() || !got.value()) break;
    rows.push_back(row);
  }
  EXPECT_EQ(table.ok(), rows_status.ok());
  if (table.ok() && rows_status.ok()) {
    EXPECT_EQ(table.value().header, reader.header());
    EXPECT_EQ(table.value().rows, rows);
  }

  auto source = stream::CsvFileSource::Open(
      path, {}, std::make_shared<stream::LabelTable>());
  if (!source.ok()) return table.status();
  const auto& header = table.ok() ? table.value().header : reader.header();
  const size_t text_col = static_cast<size_t>(
      std::find(header.begin(), header.end(), "text") - header.begin());
  const size_t pass = table.ok() ? table.value().rows.size() : rows.size();
  for (size_t draw = 0; draw <= pass; ++draw) {
    const auto example = source.value()->Next();
    if (!example.ok()) {
      EXPECT_FALSE(table.ok() && pass > 0) << example.status().message();
      break;
    }
    if (table.ok()) {
      EXPECT_EQ(example.value().text,
                table.value().rows[draw % pass][text_col]);
    }
  }
  return table.status();
}

TEST(DecoderSweepTest, CsvReaders) {
  const std::string path = TempPath("labelled.csv");
  const std::string base = kCsvBase;
  const SweepResult result =
      Sweep(base, path, ReadCsvEveryWay, false, 14, kCsvFlips);
  EXPECT_GT(result.loads, 1000);
  // Truncations inside a row still parse; broken quotes and widths do not.
  EXPECT_GT(result.accepted, 0);
  EXPECT_GE(result.errors.size(), 3u);
}

}  // namespace
}  // namespace rotom
