// Tests for the multi-tenant registry tier (DESIGN.md §13): the error model
// of mmap snapshot loading (Snapshot::Load, which Publish(name, path) uses),
// ModelRegistry publish/swap/retire semantics and RCU drain of
// retired sessions, TenantServer admission control, round-robin fairness
// and batch/instrument accounting, and the concurrent hot-swap-under-load shape that
// scripts/check.sh runs under TSan: client threads racing repeated swaps
// with every response checked for correctness.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "rotom/api.h"

namespace rotom {
namespace {

using serve::InferenceSession;
using serve::ModelRegistry;
using serve::Prediction;
using serve::QuantizeSnapshot;
using serve::Snapshot;
using serve::TenantServer;

std::shared_ptr<text::Vocabulary> RegistryVocab() {
  auto vocab = std::make_shared<text::Vocabulary>();
  for (const char* w :
       {"the", "movie", "was", "great", "terrible", "plot", "acting",
        "boring", "brilliant", "a", "an", "of"})
    vocab->AddToken(w);
  return vocab;
}

models::ClassifierConfig RegistryConfig() {
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

Snapshot MakeSnapshot(uint64_t seed = 1) {
  Rng rng(seed);
  models::TransformerClassifier model(RegistryConfig(), RegistryVocab(), rng);
  model.SetTraining(false);
  return Snapshot::FromModel(model);
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

/// Labels the active session of `name` assigns to QueryTexts(), computed
/// directly on the pinned session.
std::vector<int64_t> LabelsOf(const InferenceSession& session) {
  std::vector<int64_t> labels;
  for (const Prediction& p : session.PredictBatch(QueryTexts()))
    labels.push_back(p.label);
  return labels;
}

// ---------------------------------------------------------------------------
// Snapshot::Load

TEST(SnapshotLoadTest, RejectsMalformedFiles) {
  EXPECT_FALSE(Snapshot::Load("/nonexistent/model.rsnap").ok());

  const std::string path = TempPath("registry_mmap_bad.rsnap");
  ASSERT_TRUE(MakeSnapshot().Save(path).ok());
  const std::string good = ReadFileBytes(path);

  // Truncated payload.
  WriteFileBytes(path, good.substr(0, good.size() - 5));
  EXPECT_FALSE(Snapshot::Load(path).ok());

  // Trailing garbage after the payload.
  WriteFileBytes(path, good + "junk");
  EXPECT_FALSE(Snapshot::Load(path).ok());

  // One flipped payload byte: checksum mismatch.
  std::string corrupt = good;
  corrupt[corrupt.size() - 1] ^= 0x01;
  WriteFileBytes(path, corrupt);
  auto status = Snapshot::Load(path);
  EXPECT_FALSE(status.ok());

  // Shorter than the header.
  WriteFileBytes(path, good.substr(0, 10));
  EXPECT_FALSE(Snapshot::Load(path).ok());

  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ModelRegistry semantics

TEST(ModelRegistryTest, PublishSwapRetireLifecycle) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.Has("m"));
  EXPECT_EQ(registry.Acquire("m"), nullptr);
  EXPECT_FALSE(registry.Swap("m", 1).ok());
  EXPECT_FALSE(registry.Retire("m", 1).ok());

  auto v1 = registry.Publish("m", MakeSnapshot(1));
  ASSERT_TRUE(v1.ok()) << v1.status().message();
  EXPECT_EQ(v1.value(), 1u);
  EXPECT_TRUE(registry.Has("m"));

  // First version activates immediately.
  auto active = registry.Acquire("m");
  ASSERT_NE(active, nullptr);
  const std::vector<int64_t> labels_v1 = LabelsOf(*active);

  // A second version stages without disturbing the active one.
  auto v2 = registry.Publish("m", MakeSnapshot(2));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value(), 2u);
  EXPECT_EQ(registry.Acquire("m"), active);
  EXPECT_NE(registry.AcquireVersion("m", 2), nullptr);
  EXPECT_EQ(registry.AcquireVersion("m", 3), nullptr);

  // Swap redirects Acquire; swapping to the active version is a no-op.
  EXPECT_FALSE(registry.Swap("m", 99).ok());
  ASSERT_TRUE(registry.Swap("m", 2).ok());
  EXPECT_NE(registry.Acquire("m"), active);
  ASSERT_TRUE(registry.Swap("m", 2).ok());

  // The active version cannot be retired; a staged one can.
  EXPECT_FALSE(registry.Retire("m", 2).ok());
  ASSERT_TRUE(registry.Retire("m", 1).ok());
  EXPECT_EQ(registry.AcquireVersion("m", 1), nullptr);
  EXPECT_FALSE(registry.Retire("m", 1).ok());

  // Version ids keep counting; retired ids are never reused.
  auto v3 = registry.Publish("m", MakeSnapshot(3));
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3.value(), 3u);

  // The old session still answers for holders of the old pin.
  EXPECT_EQ(LabelsOf(*active), labels_v1);
}

TEST(ModelRegistryTest, PublishFromFileUsesMmapAndListsQuantized) {
  const std::string path = TempPath("registry_pub.rsnap");
  ASSERT_TRUE(MakeSnapshot(1).Save(path).ok());
  auto quantized = QuantizeSnapshot(MakeSnapshot(1));
  ASSERT_TRUE(quantized.ok());

  ModelRegistry registry;
  auto v1 = registry.Publish("m", path);
  ASSERT_TRUE(v1.ok()) << v1.status().message();
  auto v2 = registry.Publish("m", quantized.value());
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(registry.Publish("m", "/nonexistent.rsnap").ok());

  const auto models = registry.List();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].name, "m");
  EXPECT_EQ(models[0].active_version, 1u);
  ASSERT_EQ(models[0].versions.size(), 2u);
  EXPECT_TRUE(models[0].versions[0].active);
  EXPECT_FALSE(models[0].versions[0].quantized);
  EXPECT_FALSE(models[0].versions[1].active);
  EXPECT_TRUE(models[0].versions[1].quantized);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, RetiredSessionDrainsWhenLastPinDrops) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("m", MakeSnapshot(1)).ok());
  ASSERT_TRUE(registry.Publish("m", MakeSnapshot(2)).ok());

  std::shared_ptr<const InferenceSession> pin = registry.Acquire("m");
  ASSERT_NE(pin, nullptr);
  std::weak_ptr<const InferenceSession> watch = pin;

  ASSERT_TRUE(registry.Swap("m", 2).ok());
  ASSERT_TRUE(registry.Retire("m", 1).ok());

  // The store's reference is gone but the in-flight pin keeps the session
  // alive and answering.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(LabelsOf(*pin).size(), QueryTexts().size());

  // Dropping the last pin completes the RCU drain.
  pin.reset();
  EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------------------------
// TenantServer

TEST(TenantServerTest, RejectsUnknownTenantAndShedsOverload) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("t0", MakeSnapshot(1)).ok());

  TenantServer::Options options;
  options.max_batch = 64;
  // Neither close condition can trigger before Shutdown(): the batch never
  // fills and the deadline is far away, so admission is fully deterministic.
  options.max_delay_us = 10'000'000;
  options.queue_capacity = 4;
  TenantServer server(&registry, {"t0"}, options);

  auto unknown = server.Submit("nope", QueryTexts()[0]).get();
  EXPECT_FALSE(unknown.ok());

  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(server.Submit("t0", QueryTexts()[i % 4]));

  // Exactly queue_capacity requests were admitted; the rest were shed
  // immediately rather than blocking the submitter.
  TenantServer::Stats stats = server.GetStats("t0");
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(server.GetStats("nope").requests, 0u);

  // Shutdown drains the admitted four through the model.
  server.Shutdown();
  int ok = 0, shed = 0;
  for (auto& f : futures) {
    auto result = f.get();
    result.ok() ? ++ok : ++shed;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(shed, 4);
  EXPECT_FALSE(server.Submit("t0", QueryTexts()[0]).get().ok());
}

TEST(TenantServerTest, RoundRobinKeepsLightTenantAheadOfBacklog) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("hog", MakeSnapshot(1)).ok());
  ASSERT_TRUE(registry.Publish("light", MakeSnapshot(2)).ok());

  constexpr int kBacklog = 32;
  TenantServer::Options options;
  options.max_batch = 1;  // one request per batch: 32 turns for the hog
  options.max_delay_us = 50'000;
  options.queue_capacity = kBacklog;

  // With max_batch=1 the worker starts draining "hog" as soon as the first
  // submit lands, so on a loaded machine the submitter can be descheduled
  // mid-pre-fill and the backlog half-drains before "light" enqueues. One
  // clean attempt proves fairness (round-robin serves "light" after at
  // most one "hog" batch per sweep); an unfair scheduler — anything that
  // drains the whole backlog first — fails every attempt.
  constexpr int kAttempts = 5;
  bool light_stayed_ahead = false;
  for (int attempt = 0; attempt < kAttempts && !light_stayed_ahead;
       ++attempt) {
    TenantServer server(&registry, {"hog", "light"}, options);
    std::vector<std::future<StatusOr<Prediction>>> hog_futures;
    for (int i = 0; i < kBacklog; ++i)
      hog_futures.push_back(server.Submit("hog", QueryTexts()[i % 4]));
    auto light_future = server.Submit("light", QueryTexts()[0]);

    auto light = light_future.get();
    const uint64_t hog_batches_at_light_done = server.GetStats("hog").batches;
    EXPECT_TRUE(light.ok()) << light.status().message();
    light_stayed_ahead =
        hog_batches_at_light_done < static_cast<uint64_t>(kBacklog) / 2;

    // The totals are exact regardless of scheduling noise.
    server.Shutdown();
    for (auto& f : hog_futures) EXPECT_TRUE(f.get().ok());
    EXPECT_EQ(server.GetStats("hog").batches, static_cast<uint64_t>(kBacklog));
    EXPECT_EQ(server.GetStats("light").batches, 1u);
  }
  EXPECT_TRUE(light_stayed_ahead)
      << "light tenant never overtook the hog backlog in " << kAttempts
      << " attempts";
}

// A batch for a tenant with no active model fails its requests without
// running a forward, so neither the tenant's stats nor its
// serve.tenant.<t>.batches counter may count it.
TEST(TenantServerTest, BatchForATenantWithNoModelIsNotCounted) {
  ModelRegistry registry;
  TenantServer server(&registry, {"late"});
  obs::Counter& batches = obs::GetCounter("serve.tenant.late.batches");
  const uint64_t before = batches.Value();

  auto unpublished = server.Predict("late", QueryTexts()[0]);
  ASSERT_FALSE(unpublished.ok());
  EXPECT_NE(unpublished.status().message().find("no active model"),
            std::string::npos)
      << unpublished.status().message();
  EXPECT_EQ(server.GetStats("late").batches, 0u);
  EXPECT_EQ(batches.Value(), before);

  // Once the model is published the next batch runs and counts in both.
  ASSERT_TRUE(registry.Publish("late", MakeSnapshot(1)).ok());
  ASSERT_TRUE(server.Predict("late", QueryTexts()[0]).ok());
  server.Shutdown();
  EXPECT_EQ(server.GetStats("late").requests, 2u);
  EXPECT_EQ(server.GetStats("late").batches, 1u);
#ifndef ROTOM_METRICS_DISABLED
  EXPECT_EQ(batches.Value(), before + 1);
#endif
}

// The server-wide serve.* instruments are the per-tenant totals summed over
// tenants: two tenants, one of them shedding, plus a submit after
// Shutdown(). Deltas, because the metrics registry is process-global.
TEST(TenantServerTest, ServerWideInstrumentsSumOverTenants) {
#ifdef ROTOM_METRICS_DISABLED
  GTEST_SKIP() << "built with ROTOM_DISABLE_METRICS";
#endif
  obs::Counter& requests = obs::GetCounter("serve.requests");
  obs::Counter& rejected = obs::GetCounter("serve.rejected");
  obs::Counter& batches = obs::GetCounter("serve.batches");
  obs::Histogram& batch_size = obs::GetHistogram("serve.batch_size");
  obs::Histogram& latency = obs::GetHistogram("serve.latency_us");
  obs::Histogram& queue_wait = obs::GetHistogram("serve.queue_wait_us");
  const uint64_t requests0 = requests.Value();
  const uint64_t rejected0 = rejected.Value();
  const uint64_t batches0 = batches.Value();
  const uint64_t batch_size0 = batch_size.Count();
  const uint64_t latency0 = latency.Count();
  const uint64_t queue_wait0 = queue_wait.Count();

  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("a", MakeSnapshot(1)).ok());
  ASSERT_TRUE(registry.Publish("b", MakeSnapshot(2)).ok());
  TenantServer::Options options;
  // No batch can close before Shutdown(), so admission is deterministic:
  // "b" overflows its queue and sheds, and Shutdown() drains both queues.
  options.max_batch = 64;
  options.max_delay_us = 10'000'000;
  options.queue_capacity = 4;
  TenantServer server(&registry, {"a", "b"}, options);
  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(server.Submit("a", QueryTexts()[i % 4]));
  for (int i = 0; i < 7; ++i)
    futures.push_back(server.Submit("b", QueryTexts()[i % 4]));
  server.Shutdown();
  EXPECT_FALSE(server.Submit("a", QueryTexts()[0]).get().ok());
  uint64_t completed = 0;
  for (auto& f : futures) completed += f.get().ok() ? 1 : 0;

  const TenantServer::Stats a = server.GetStats("a");
  const TenantServer::Stats b = server.GetStats("b");
  EXPECT_EQ(b.rejected, 3u);  // 7 offered, queue_capacity 4
  EXPECT_EQ(requests.Value() - requests0, a.requests + b.requests);
  EXPECT_EQ(rejected.Value() - rejected0, a.rejected + b.rejected);
  EXPECT_EQ(batches.Value() - batches0, a.batches + b.batches);
  EXPECT_EQ(batch_size.Count() - batch_size0, batches.Value() - batches0);
  EXPECT_EQ(completed, a.requests + b.requests);
  EXPECT_EQ(latency.Count() - latency0, completed);
  EXPECT_EQ(queue_wait.Count() - queue_wait0, completed);
}

// ---------------------------------------------------------------------------
// Concurrent hot-swap under load (the TSan shape)

TEST(ModelRegistryTest, ConcurrentAcquireDuringSwapsServesConsistentModels) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("m", MakeSnapshot(1)).ok());
  ASSERT_TRUE(registry.Publish("m", MakeSnapshot(2)).ok());

  // Ground truth per version, computed on directly pinned sessions.
  auto s1 = registry.AcquireVersion("m", 1);
  auto s2 = registry.AcquireVersion("m", 2);
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  const std::vector<int64_t> labels_v1 = LabelsOf(*s1);
  const std::vector<int64_t> labels_v2 = LabelsOf(*s2);

  constexpr int kClients = 4;
  constexpr int kIterations = 40;
  constexpr int kSwaps = 24;

  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t q = static_cast<size_t>(c + i) % QueryTexts().size();
        // Pin, predict, release: the request must see one coherent model —
        // its answer matches v1 or v2 exactly, never a mix.
        auto session = registry.Acquire("m");
        if (session == nullptr) {
          ++bad;
          continue;
        }
        const std::vector<Prediction> out =
            session->PredictBatch({&QueryTexts()[q], 1});
        if (out.size() != 1 ||
            (out[0].label != labels_v1[q] && out[0].label != labels_v2[q]))
          ++bad;
      }
    });
  }

  std::thread swapper([&] {
    for (int i = 0; i < kSwaps; ++i) {
      ASSERT_TRUE(registry.Swap("m", 1 + static_cast<uint64_t>(i) % 2).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  for (std::thread& t : clients) t.join();
  swapper.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(TenantServerTest, HotSwapUnderMultiTenantLoadNeverServesTornModels) {
  ModelRegistry registry;
  const std::vector<std::string> tenants = {"em", "edt", "cls"};
  for (const std::string& t : tenants) {
    ASSERT_TRUE(registry.Publish(t, MakeSnapshot(1)).ok());
    ASSERT_TRUE(registry.Publish(t, MakeSnapshot(2)).ok());
  }

  // Per-tenant ground truth for both versions; every served answer must
  // match one of them.
  std::vector<std::vector<int64_t>> labels_v1, labels_v2;
  for (const std::string& t : tenants) {
    labels_v1.push_back(LabelsOf(*registry.AcquireVersion(t, 1)));
    labels_v2.push_back(LabelsOf(*registry.AcquireVersion(t, 2)));
  }

  TenantServer::Options options;
  options.max_batch = 8;
  options.max_delay_us = 500;
  options.queue_capacity = 1024;
  TenantServer server(&registry, tenants, options);

  constexpr int kClients = 3;
  constexpr int kIterations = 50;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t t = static_cast<size_t>(c) % tenants.size();
        const size_t q = static_cast<size_t>(i) % QueryTexts().size();
        auto result = server.Predict(tenants[t], QueryTexts()[q]);
        if (!result.ok() || (result.value().label != labels_v1[t][q] &&
                             result.value().label != labels_v2[t][q]))
          ++bad;
      }
    });
  }

  std::thread swapper([&] {
    for (int i = 0; i < 12; ++i) {
      const std::string& t = tenants[static_cast<size_t>(i) % tenants.size()];
      ASSERT_TRUE(registry.Swap(t, 1 + static_cast<uint64_t>(i / 3) % 2).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  for (std::thread& t : clients) t.join();
  swapper.join();
  server.Shutdown();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace rotom
