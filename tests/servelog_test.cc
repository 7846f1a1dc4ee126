// Tests for the serve flight recorder (obs/servelog.h) wired through the
// serving stack: manifest provenance, dense strictly-increasing request
// ids, 1-in-N sampling, shed/swap/window events, the per-tenant SLO
// accounting they carry, the ROTOM_SERVELOG_DIR fallback, and the
// ROTOM_METRICS=off contract (the recorder and the serving path are
// independent of the metrics switch). The TSan sweep in scripts/check.sh
// re-runs this binary: concurrent clients, the batching worker, and the
// recorder's lock-free append path must stay race-free together.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/servelog.h"
#include "rotom/api.h"

namespace rotom {
namespace {

using serve::ModelRegistry;
using serve::Prediction;
using serve::Snapshot;
using serve::TenantServer;

// A one-model deployment publishes its snapshot under one name and serves
// that name as the only tenant.
constexpr char kModel[] = "model";

class ObsEnabledGuard {
 public:
  ObsEnabledGuard() : enabled_(obs::Enabled()) {}
  ~ObsEnabledGuard() { obs::SetEnabled(enabled_); }

 private:
  bool enabled_;
};

Snapshot MakeSnapshot(uint64_t seed = 1) {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w : {"the", "movie", "was", "great", "terrible", "plot"})
    vocab->AddToken(w);
  models::ClassifierConfig config;
  config.num_classes = 3;
  config.max_len = 12;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  Rng rng(seed);
  models::TransformerClassifier model(config, vocab, rng);
  model.SetTraining(false);
  return Snapshot::FromModel(model);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

bool HasField(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\"") != std::string::npos;
}

bool IsEvent(const std::string& line, const std::string& event) {
  return line.find("\"event\": \"" + event + "\"") != std::string::npos;
}

// Integer field value out of a flat JSONL line; -1 when absent.
int64_t IntField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(line.c_str() + pos + needle.size());
}

TEST(ServeLogTest, OneTenantServerWritesManifestAndDenseMonotonicIds) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(kModel, MakeSnapshot()).ok());

  TenantServer::Options options;
  options.max_batch = 4;
  options.max_delay_us = 200;
  options.servelog_dir = ::testing::TempDir();
  options.servelog_sample = 1;  // every accepted request gets an event
  constexpr int kRequests = 24;
  std::string path;
  {
    TenantServer server(&registry, {kModel}, options);
    ASSERT_NE(server.servelog(), nullptr);
    path = server.servelog()->path();
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(server.Predict(kModel, "the movie was great").ok());
    }
    server.Shutdown();
  }

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_FALSE(lines.empty());
  // Crash-safety shape: whole lines only (each event is one write(2)).
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }

  // The manifest leads and records the provenance + serving shape.
  const std::string& manifest = lines.front();
  ASSERT_TRUE(IsEvent(manifest, "manifest")) << manifest;
  EXPECT_NE(manifest.find(obs::kServeLogSchema), std::string::npos);
  EXPECT_TRUE(HasField(manifest, "simd_flavor"));
  EXPECT_TRUE(HasField(manifest, "rotom_simd"));
  EXPECT_NE(manifest.find("\"server\": \"tenant\""), std::string::npos);
  EXPECT_EQ(IntField(manifest, "tenants"), 1);
  EXPECT_EQ(IntField(manifest, "sample"), 1);
  EXPECT_EQ(IntField(manifest, "max_batch"), 4);

  // Request ids are dense (1..N, accepted submissions only) and, because
  // the one tenant's queue is FIFO, strictly increasing in file order.
  int64_t expected_id = 0;
  for (const std::string& line : lines) {
    if (!IsEvent(line, "request")) continue;
    ++expected_id;
    EXPECT_EQ(IntField(line, "id"), expected_id) << line;
    const int64_t queue_us = IntField(line, "queue_us");
    const int64_t total_us = IntField(line, "total_us");
    EXPECT_GE(queue_us, 0);
    EXPECT_GE(IntField(line, "compute_us"), 0);
    EXPECT_GE(total_us, queue_us) << line;
    EXPECT_GE(IntField(line, "batch_size"), 1);
    EXPECT_GE(IntField(line, "label"), 0);
    // Every request event names the tenant that submitted it.
    EXPECT_NE(line.find("\"tenant\": \"model\""), std::string::npos)
        << line;
  }
  EXPECT_EQ(expected_id, kRequests);
  std::remove(path.c_str());
}

TEST(ServeLogTest, SamplingKeepsOneInN) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(kModel, MakeSnapshot()).ok());
  TenantServer::Options options;
  options.max_batch = 4;
  options.max_delay_us = 200;
  options.servelog_dir = ::testing::TempDir();
  options.servelog_sample = 4;
  std::string path;
  {
    TenantServer server(&registry, {kModel}, options);
    ASSERT_NE(server.servelog(), nullptr);
    path = server.servelog()->path();
    for (int i = 0; i < 16; ++i)
      ASSERT_TRUE(server.Predict(kModel, "terrible plot").ok());
  }
  std::vector<int64_t> ids;
  for (const std::string& line : ReadLines(path)) {
    if (IsEvent(line, "request")) ids.push_back(IntField(line, "id"));
  }
  // (id - 1) % 4 == 0 keeps 1, 5, 9, 13 out of 16.
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 5, 9, 13}));
  std::remove(path.c_str());
}

TEST(ServeLogTest, EnvDirFallbackOpensTheRecorder) {
  ::setenv("ROTOM_SERVELOG_DIR", ::testing::TempDir().c_str(), 1);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(kModel, MakeSnapshot()).ok());
  std::string path;
  {
    TenantServer server(&registry, {kModel});  // no servelog options
    ASSERT_NE(server.servelog(), nullptr);
    path = server.servelog()->path();
    EXPECT_EQ(path.rfind(::testing::TempDir(), 0), 0u) << path;
    ASSERT_TRUE(server.Predict(kModel, "the movie was great").ok());
  }
  ::unsetenv("ROTOM_SERVELOG_DIR");
  EXPECT_FALSE(ReadLines(path).empty());
  std::remove(path.c_str());
}

TEST(ServeLogTest, TenantServerLogsSloWindowsShedsAndSwaps) {
  const Snapshot v1 = MakeSnapshot(1);
  const Snapshot v2 = MakeSnapshot(2);

  obs::ServeLogOptions log_options;
  log_options.dir = ::testing::TempDir();
  log_options.tag = "servelog_test_tenant";
  log_options.sample = 1;
  auto servelog = obs::ServeLog::Open(log_options);
  ASSERT_NE(servelog, nullptr);
  const std::string path = servelog->path();

  ModelRegistry::Options registry_options;
  registry_options.servelog = servelog;
  ModelRegistry registry(registry_options);
  ASSERT_TRUE(registry.Publish("t0", v1).ok());
  ASSERT_TRUE(registry.Publish("t0", v2).ok());

  // Window 1: slo_latency_us = 0 makes every completed request a violation
  // (any measurable latency is > 0), so the error budget goes negative.
  {
    TenantServer::Options options;
    options.max_batch = 4;
    options.max_delay_us = 200;
    options.servelog = servelog;
    options.slo_latency_us = 0;
    options.slo_target = 0.99;
    options.slo_window = 4;
    TenantServer server(&registry, {"t0"}, options);
    for (int i = 0; i < 8; ++i)
      ASSERT_TRUE(server.Predict("t0", "the movie was great").ok());
    server.Shutdown();
  }
  ASSERT_TRUE(registry.Swap("t0", 2).ok());

  // Second server on the same recorder: deterministic shedding (the worker
  // can close no batch before Shutdown, so exactly queue_capacity requests
  // are admitted and the rest shed).
  {
    TenantServer::Options options;
    options.max_batch = 64;
    options.max_delay_us = 10'000'000;
    options.queue_capacity = 2;
    options.servelog = servelog;
    TenantServer server(&registry, {"t0"}, options);
    std::vector<std::future<StatusOr<Prediction>>> futures;
    for (int i = 0; i < 8; ++i)
      futures.push_back(server.Submit("t0", "terrible plot"));
    server.Shutdown();
    for (auto& f : futures) f.get();
  }
  servelog.reset();  // close the fd before reading

  int windows = 0, sheds = 0, swaps = 0;
  int64_t last_id = 0;
  int64_t last_violations = 0;
  for (const std::string& line : ReadLines(path)) {
    if (IsEvent(line, "request")) {
      // One dense id sequence per server; both tenants' streams restart at
      // 1 when the second server opens, so monotonicity holds per manifest
      // scope. Every request here belongs to tenant t0.
      EXPECT_NE(line.find("\"tenant\": \"t0\""), std::string::npos) << line;
      const int64_t id = IntField(line, "id");
      if (id == 1) last_id = 0;  // second server's stream begins
      EXPECT_EQ(id, last_id + 1) << line;
      last_id = id;
    } else if (IsEvent(line, "window")) {
      ++windows;
      EXPECT_NE(line.find("\"tenant\": \"t0\""), std::string::npos);
      EXPECT_EQ(IntField(line, "completed"), 4);
      const int64_t violations = IntField(line, "slo_violations");
      EXPECT_GT(violations, last_violations) << line;  // cumulative
      last_violations = violations;
      // allowed = (1 - 0.99) * completed rounds to 0, so the budget is
      // violations deep in the red.
      EXPECT_EQ(IntField(line, "budget_remaining"), -violations) << line;
      EXPECT_GT(IntField(line, "p99_us"), 0);
    } else if (IsEvent(line, "shed")) {
      ++sheds;
      EXPECT_NE(line.find("\"tenant\": \"t0\""), std::string::npos);
      EXPECT_EQ(IntField(line, "queue_depth"), 2) << line;
    } else if (IsEvent(line, "swap")) {
      ++swaps;
      EXPECT_NE(line.find("\"model\": \"t0\""), std::string::npos);
      EXPECT_EQ(IntField(line, "version"), 2);
    }
  }
  EXPECT_EQ(windows, 2);  // 8 completions / slo_window 4
  EXPECT_EQ(sheds, 6);    // 8 offered - queue_capacity 2
  EXPECT_EQ(swaps, 1);
  std::remove(path.c_str());
}

TEST(ServeLogTest, MetricsOffKeepsServingAndRecorderWorking) {
  ObsEnabledGuard guard;
  obs::SetEnabled(false);

  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(kModel, MakeSnapshot()).ok());
  TenantServer::Options options;
  options.max_batch = 4;
  options.max_delay_us = 200;
  options.servelog_dir = ::testing::TempDir();
  options.servelog_sample = 1;
  options.obs_http.enabled = true;
  std::string path;
  {
    TenantServer server(&registry, {kModel}, options);
    ASSERT_NE(server.servelog(), nullptr);
    path = server.servelog()->path();
    for (int i = 0; i < 8; ++i) {
      auto result = server.Predict(kModel, "the movie was great");
      ASSERT_TRUE(result.ok()) << result.status().message();
      EXPECT_EQ(result.value().probs.size(), 3u);
    }
    // Internal stats counters are mutex-guarded members, not obs metrics,
    // so they keep counting with the switch off.
    EXPECT_EQ(server.GetStats(kModel).requests, 8u);
  }
  // The recorder is independent of the metrics switch: events still land.
  int requests = 0;
  for (const std::string& line : ReadLines(path)) {
    if (IsEvent(line, "request")) ++requests;
  }
  EXPECT_EQ(requests, 8);
#ifndef ROTOM_METRICS_DISABLED
  EXPECT_TRUE(obs::Snapshot().metrics.empty());
#endif
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rotom
