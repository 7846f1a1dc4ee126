// Closed-loop load generator for the serve path (DESIGN.md §10).
//
// Measures two ways of answering the same query stream with the same model
// on the same compute pool:
//
//   serial  — one client thread calling InferenceSession::PredictBatch with
//             a single text per call (batch size 1, the no-batching shape),
//   server  — ROTOM_SERVE_CLIENTS closed-loop client threads (default 8)
//             submitting single requests through a one-tenant
//             TenantServer, whose worker coalesces whatever is waiting
//             into one fused forward.
//
// Both modes run twice: once against the float model and once against an
// int8 model built by quantizing the same snapshot (DESIGN.md §12), so
// BENCH_serve.json carries the int8/f32 qps ratio (speedup_vs_f32_serial;
// below 1 when int8 is the slower mode, see EXPERIMENTS.md "serve bench")
// next to the micro-batching speedup. The two
// models are published into a ModelRegistry as tenants "f32" and "int8";
// each serial window pins the very session its server window serves
// (ModelRegistry::Acquire).
//
// A fifth window exercises the multi-tenant registry tier (DESIGN.md §13):
// three tenant models behind a ModelRegistry-backed TenantServer, each
// published twice (v1 f32 via the mmap file path, v2 int8), with a swapper
// thread hot-swapping versions mid-run while the closed-loop clients keep
// submitting. Every response is verified against per-version ground-truth
// labels computed up front; the bench exits non-zero if any response is
// rejected or served from anything other than a coherent published version,
// or if fewer than two swaps landed. The serve/tenants record in
// BENCH_serve.json carries the swap/reject/incorrect counts alongside qps.
//
// Each client is closed-loop: it submits one request, waits for the result,
// and immediately submits the next, so offered load tracks service rate and
// the measured quantity is steady-state throughput. The speedup column is
// the acceptance metric for this subsystem: micro-batching amortizes the
// fixed per-forward costs (tensor allocation, kernel dispatch, pool
// synchronization) across the co-batched requests, and — the dominant term
// on real hardware — lets the fused forward fan out across the compute
// pool, which a batch-1 forward cannot (its kernels fall below the pool's
// grain and run inline on one core).
//
// The speedup is therefore strongly hardware-dependent. On a 4-core x86-64
// host with AVX2 and the default 4-thread pool, the f32 server/serial ratio
// measured a median of 1.83x over 5 default-length runs (range
// 1.73-2.41x; the serial window alone varied 444-664 qps on that shared
// host). On a single-core container the fused forward is already at the
// arithmetic roofline at batch size 1, so only the per-forward dispatch
// overhead amortizes and the honest ceiling is ~1.3x.
// BENCH_serve.json records `cores` and `pool_threads` alongside the qps
// numbers so downstream tooling can interpret the ratio; see EXPERIMENTS.md
// "Serve bench".
//
// Output: a console table plus BENCH_serve.json (rotom-bench-v2 schema; the
// metrics section carries the serve.* counters, the serve.latency_us /
// serve.queue_wait_us / serve.compute_us / serve.batch_size histograms with
// interpolated percentiles, and the derived serve.reject_rate /
// serve.queue_wait_share ratios). The bench also runs the full serving
// observability surface under load: a serve flight recorder
// (serve_bench-p<pid>-*.jsonl next to BENCH_serve.json, readable with
// `rotom_inspect serve`) shared by every server window and the registry,
// and a live /metrics listener on an ephemeral loopback port per server
// window.
//
// Environment:
//   ROTOM_SMOKE=1            short measurement windows
//   ROTOM_SERVE_SECONDS      seconds per measured window (default 4, smoke 1)
//   ROTOM_SERVE_CLIENTS      closed-loop client threads (default 8)
//   ROTOM_SERVE_MAX_BATCH    server coalescing bound (default 64)
//   ROTOM_SERVE_MIN_SPEEDUP_PCT  exit non-zero when speedup falls below this
//                            many percent of serial qps (50 = 0.50x; default
//                            0, i.e. report-only; CI smoke sets a floor)
//   ROTOM_NUM_THREADS        compute pool size (shared by both modes)
//   ROTOM_BENCH_DIR          output directory for BENCH_serve.json

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/exposition.h"
#include "rotom/api.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rotom {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Bench-scale servable model with seed-determined random weights.
// dim 128 (not the experiments' 32/64): the serving stand-in should be
// wide enough that per-layer GEMMs dominate the forward the way they do
// for the real 768-dim LMs, otherwise both the micro-batching and the
// int8 comparisons mostly measure per-request fixed costs.
serve::Snapshot MakeBenchSnapshot(uint64_t seed) {
  Rng rng(seed);
  auto vocab = std::make_shared<text::Vocabulary>();
  for (int i = 0; i < 512; ++i) vocab->AddToken("tok" + std::to_string(i));
  models::ClassifierConfig config;
  config.num_classes = 2;
  config.max_len = 48;
  config.dim = 128;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 256;
  models::TransformerClassifier model(config, vocab, rng);
  model.SetTraining(false);
  return serve::Snapshot::FromModel(model);
}

// A servable model with bench-scale weights, in both serving precisions,
// published as tenants "f32" and "int8". Training quality is irrelevant to
// throughput, so the weights stay at their random initialization; the
// snapshot round trip is still exercised end to end (Save -> Publish(path)
// for the float model, QuantizeSnapshot -> Publish for the int8 one,
// mirroring the offline rotom_quantize flow).
Status PublishBenchModels(serve::ModelRegistry& registry,
                          const std::string& snapshot_path) {
  const serve::Snapshot snapshot = MakeBenchSnapshot(7);
  if (auto s = snapshot.Save(snapshot_path); !s.ok()) return s;
  if (auto f32 = registry.Publish("f32", snapshot_path); !f32.ok())
    return f32.status();
  auto quantized = serve::QuantizeSnapshot(snapshot);
  if (!quantized.ok()) return quantized.status();
  if (auto int8 = registry.Publish("int8", quantized.value()); !int8.ok())
    return int8.status();
  return Status::Ok();
}

// Distinct query texts; clients cycle through the pool, so after warmup the
// encoding cache serves every text and both modes measure pure model cost.
std::vector<std::string> MakeQueryPool(size_t size) {
  Rng rng(13);
  std::vector<std::string> pool;
  pool.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    std::string text;
    const int64_t words = 6 + rng.UniformInt(6);
    for (int64_t w = 0; w < words; ++w) {
      if (!text.empty()) text += ' ';
      text += "tok" + std::to_string(rng.UniformInt(512));
    }
    pool.push_back(std::move(text));
  }
  return pool;
}

struct LoadResult {
  uint64_t requests = 0;
  double wall_seconds = 0.0;
  double qps() const {
    return wall_seconds > 0.0 ? static_cast<double>(requests) / wall_seconds
                              : 0.0;
  }
};

// Serial baseline: one thread, one request per PredictBatch call.
LoadResult RunSerial(const serve::InferenceSession& session,
                     const std::vector<std::string>& pool, double seconds) {
  LoadResult result;
  const double start = Now();
  const double deadline = start + seconds;
  size_t i = 0;
  while (Now() < deadline) {
    const std::string& text = pool[i++ % pool.size()];
    const auto predictions =
        session.PredictBatch(std::span<const std::string>(&text, 1));
    ROTOM_CHECK_EQ(predictions.size(), 1u);
    ++result.requests;
  }
  result.wall_seconds = Now() - start;
  return result;
}

// Closed-loop clients through the micro-batching server, all on `tenant`.
LoadResult RunServer(serve::TenantServer& server, const std::string& tenant,
                     const std::vector<std::string>& pool, int64_t clients,
                     double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> threads;
  const double start = Now();
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t i = static_cast<size_t>(c) * 17;  // de-phase the clients
      while (!stop.load(std::memory_order_relaxed)) {
        auto prediction = server.Predict(tenant, pool[i++ % pool.size()]);
        ROTOM_CHECK(prediction.ok());
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  LoadResult result;
  result.wall_seconds = Now() - start;
  result.requests = completed.load();
  return result;
}

struct TenantLoadResult {
  LoadResult load;
  uint64_t swaps = 0;      // hot-swaps performed mid-run
  uint64_t rejected = 0;   // responses that came back as an error Status
  uint64_t incorrect = 0;  // labels matching neither published version
};

// Mixed-tenant window: closed-loop clients spread over `tenants`, each
// response checked against the per-version ground truth, while a swapper
// thread alternates every tenant's active version mid-run. A correct
// registry makes rejected == incorrect == 0: requests in flight across a
// swap finish on the version they pinned (whose labels are in the expected
// set), and new batches pin the new version atomically.
TenantLoadResult RunTenants(serve::ModelRegistry& registry,
                            serve::TenantServer& server,
                            const std::vector<std::string>& tenants,
                            const std::vector<std::vector<int64_t>>& labels_v1,
                            const std::vector<std::vector<int64_t>>& labels_v2,
                            const std::vector<std::string>& pool,
                            int64_t clients, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0}, rejected{0}, incorrect{0};
  std::vector<std::thread> threads;
  const double start = Now();
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t t = static_cast<size_t>(c) % tenants.size();
      size_t i = static_cast<size_t>(c) * 17;  // de-phase the clients
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = i++ % pool.size();
        auto prediction = server.Predict(tenants[t], pool[q]);
        if (!prediction.ok()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else if (prediction.value().label != labels_v1[t][q] &&
                   prediction.value().label != labels_v2[t][q]) {
          incorrect.fetch_add(1, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Four swap events paced to land inside the window: each tenant is moved
  // to its int8 version in turn, then the first tenant is moved back.
  std::atomic<uint64_t> swaps{0};
  std::thread swapper([&] {
    for (int e = 0; e < 4; ++e) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 5));
      const std::string& name = tenants[static_cast<size_t>(e) %
                                        tenants.size()];
      const uint64_t target = e < 3 ? 2 : 1;
      if (registry.Swap(name, target).ok())
        swaps.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  swapper.join();

  TenantLoadResult result;
  result.load.wall_seconds = Now() - start;
  result.load.requests = completed.load();
  result.swaps = swaps.load();
  result.rejected = rejected.load();
  result.incorrect = incorrect.load();
  return result;
}

int Main() {
  const bool smoke = bench::Smoke();
  const double seconds = static_cast<double>(
      bench::EnvInt("ROTOM_SERVE_SECONDS", smoke ? 1 : 4));
  const int64_t clients = bench::EnvInt("ROTOM_SERVE_CLIENTS", 8);
  const int64_t max_batch = bench::EnvInt("ROTOM_SERVE_MAX_BATCH", 64);
  const double min_speedup =
      static_cast<double>(bench::EnvInt("ROTOM_SERVE_MIN_SPEEDUP_PCT", 0)) /
      100.0;

  const std::vector<std::string> pool = MakeQueryPool(256);

  // Serve flight recorder, shared by every server window and the registry
  // (so `swap` events interleave with the request stream they redirect).
  // The JSONL lands next to BENCH_serve.json; inspect it with
  // `rotom_inspect serve <file>`. Sampling 1-in-256 keeps the recorder's
  // write amplification invisible at bench qps.
  const char* bench_dir = std::getenv("ROTOM_BENCH_DIR");
  obs::ServeLogOptions servelog_options;
  servelog_options.dir = bench_dir != nullptr && bench_dir[0] != '\0'
                             ? bench_dir
                             : ".";
  servelog_options.tag = "serve_bench";
  servelog_options.sample = 256;
  std::shared_ptr<obs::ServeLog> servelog = obs::ServeLog::Open(
      servelog_options);
  if (servelog != nullptr)
    std::printf("servelog: %s\n", servelog->path().c_str());

  // One registry holds every model the bench serves: "f32" and "int8" for
  // the single-model windows, then the three mixed-window tenants.
  serve::ModelRegistry::Options registry_options;
  registry_options.servelog = servelog;  // swap events join the same stream
  serve::ModelRegistry registry(registry_options);
  const std::string snapshot_path =
      bench::BenchJsonPath("rotom_serve_bench.rsnap");
  if (auto s = PublishBenchModels(registry, snapshot_path); !s.ok()) {
    std::fprintf(stderr, "rotom_serve_bench: %s\n", s.message().c_str());
    return 1;
  }
  const std::shared_ptr<const serve::InferenceSession> f32_session =
      registry.Acquire("f32");
  const std::shared_ptr<const serve::InferenceSession> int8_session =
      registry.Acquire("int8");

  // `kill -USR1 <pid>` dumps the Prometheus exposition to
  // ROTOM_OBS_SNAPSHOT; a no-op when the variable is unset.
  obs::InstallSnapshotSignalHandler();

  // Warm the encoding caches and the buffer pool outside the windows so
  // every mode measures steady state.
  f32_session->PredictBatch(pool);
  int8_session->PredictBatch(pool);

  bench::PrintTitle(
      "serve: micro-batching and int8 vs f32 serial (BENCH_serve.json)");
  bench::PrintHeader("mode", {"threads", "qps", "speedup"});

  // One server configuration for every window.
  serve::TenantServer::Options server_options;
  server_options.max_batch = max_batch;
  server_options.max_delay_us = 200;
  server_options.queue_capacity = 1024;
  server_options.servelog = servelog;
  // Live scrape endpoint on an ephemeral port, held open for the window's
  // duration: the bench doubles as an integration check that the listener
  // costs nothing measurable next to the serving work.
  server_options.obs_http.enabled = true;
  server_options.obs_http.port = 0;

  // Four closed-loop windows over the same query pool: {serial, batched
  // server} x {f32, int8}. Every speedup column is relative to the f32
  // serial baseline, so the table reads as "what does each optimization buy
  // on this host".
  const LoadResult serial = RunSerial(*f32_session, pool, seconds);
  bench::PrintRow("serial f32", {1.0, serial.qps(), 1.0});

  serve::TenantServer server(&registry, {"f32"}, server_options);
  if (server.obs_http_port() != 0)
    std::printf("obs http: 127.0.0.1:%d/metrics\n", server.obs_http_port());
  const LoadResult batched = RunServer(server, "f32", pool, clients, seconds);
  server.Shutdown();
  const auto stats = server.GetStats("f32");
  const double speedup =
      serial.qps() > 0.0 ? batched.qps() / serial.qps() : 0.0;
  bench::PrintRow("server f32",
                  {static_cast<double>(clients), batched.qps(), speedup});

  const LoadResult qserial = RunSerial(*int8_session, pool, seconds);
  const double qserial_speedup =
      serial.qps() > 0.0 ? qserial.qps() / serial.qps() : 0.0;
  bench::PrintRow("serial int8", {1.0, qserial.qps(), qserial_speedup});

  serve::TenantServer qserver(&registry, {"int8"}, server_options);
  const LoadResult qbatched =
      RunServer(qserver, "int8", pool, clients, seconds);
  qserver.Shutdown();
  const auto qstats = qserver.GetStats("int8");
  const double qbatched_speedup =
      serial.qps() > 0.0 ? qbatched.qps() / serial.qps() : 0.0;
  bench::PrintRow("server int8",
                  {static_cast<double>(clients), qbatched.qps(),
                   qbatched_speedup});
  std::printf("mean coalesced batch: f32 %.1f, int8 %.1f requests/forward; "
              "int8 serial %.2fx f32 serial\n",
              stats.batches > 0 ? static_cast<double>(stats.requests) /
                                      static_cast<double>(stats.batches)
                                : 0.0,
              qstats.batches > 0 ? static_cast<double>(qstats.requests) /
                                       static_cast<double>(qstats.batches)
                                 : 0.0,
              qserial_speedup);

  // Mixed-tenant registry window. Each tenant publishes v1 (f32, through
  // the Snapshot::Load file path — the deployment shape) and v2
  // (int8, in-memory); ground-truth labels for both versions are computed
  // on directly pinned sessions before any traffic flows.
  const std::vector<std::string> tenant_names = {"em", "edt", "cls"};
  std::vector<std::vector<int64_t>> labels_v1, labels_v2;
  for (size_t t = 0; t < tenant_names.size(); ++t) {
    const serve::Snapshot snapshot = MakeBenchSnapshot(7 + t);
    const std::string path = bench::BenchJsonPath(
        "rotom_serve_bench_" + tenant_names[t] + ".rsnap");
    if (auto s = snapshot.Save(path); !s.ok()) {
      std::fprintf(stderr, "rotom_serve_bench: %s\n", s.message().c_str());
      return 1;
    }
    auto v1 = registry.Publish(tenant_names[t], path);
    std::remove(path.c_str());
    auto quantized = serve::QuantizeSnapshot(snapshot);
    if (!v1.ok() || !quantized.ok()) {
      std::fprintf(stderr, "rotom_serve_bench: tenant publish failed\n");
      return 1;
    }
    auto v2 = registry.Publish(tenant_names[t], quantized.value());
    if (!v2.ok()) {
      std::fprintf(stderr, "rotom_serve_bench: tenant publish failed\n");
      return 1;
    }
    labels_v1.emplace_back();
    labels_v2.emplace_back();
    for (const auto& p : registry.AcquireVersion(tenant_names[t], 1)
                             ->PredictBatch(pool))
      labels_v1.back().push_back(p.label);
    for (const auto& p : registry.AcquireVersion(tenant_names[t], 2)
                             ->PredictBatch(pool))
      labels_v2.back().push_back(p.label);
  }

  serve::TenantServer tenant_server(&registry, tenant_names, server_options);
  const TenantLoadResult tenants = RunTenants(
      registry, tenant_server, tenant_names, labels_v1, labels_v2, pool,
      clients, seconds);
  tenant_server.Shutdown();
  const double tenant_speedup =
      serial.qps() > 0.0 ? tenants.load.qps() / serial.qps() : 0.0;
  bench::PrintRow("tenants mixed",
                  {static_cast<double>(clients), tenants.load.qps(),
                   tenant_speedup});
  std::printf("tenant window: %zu tenants, %llu hot-swaps mid-run, "
              "%llu rejected, %llu incorrect\n",
              tenant_names.size(),
              static_cast<unsigned long long>(tenants.swaps),
              static_cast<unsigned long long>(tenants.rejected),
              static_cast<unsigned long long>(tenants.incorrect));

  // Record schema: `op`/`threads`/`steps_per_sec` (= qps) are the identity
  // and rate keys scripts/check_bench_regress.sh gates on; `mode`,
  // `precision`, and the qps/speedup fields are the human-facing view.
  const int64_t cores =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  bench::JsonWriter json;
  auto record = [&](const char* op, const char* mode, const char* precision,
                    int64_t threads, int64_t batch, const LoadResult& r) ->
      bench::JsonWriter& {
    return json.Field("op", op)
        .Field("mode", mode)
        .Field("precision", precision)
        .Field("threads", threads)
        .Field("max_batch", batch)
        .Field("cores", cores)
        .Field("pool_threads", static_cast<int64_t>(ComputeThreads()))
        .Field("requests", static_cast<int64_t>(r.requests))
        .Field("wall_seconds", r.wall_seconds)
        .Field("qps", r.qps())
        .Field("steps_per_sec", r.qps());
  };
  record("serve/serial", "serial", "f32", 1, 1, serial);
  json.EndRecord();
  record("serve/server", "server", "f32", clients, max_batch, batched)
      .Field("speedup_vs_serial", speedup)
      .Field("fused_forwards", static_cast<int64_t>(stats.batches));
  json.EndRecord();
  record("serve/serial_int8", "serial", "int8", 1, 1, qserial)
      .Field("speedup_vs_f32_serial", qserial_speedup);
  json.EndRecord();
  record("serve/server_int8", "server", "int8", clients, max_batch, qbatched)
      .Field("speedup_vs_f32_serial", qbatched_speedup)
      .Field("fused_forwards", static_cast<int64_t>(qstats.batches));
  json.EndRecord();
  record("serve/tenants", "tenants", "mixed", clients, max_batch,
         tenants.load)
      .Field("tenants", static_cast<int64_t>(tenant_names.size()))
      .Field("swaps", static_cast<int64_t>(tenants.swaps))
      .Field("rejected", static_cast<int64_t>(tenants.rejected))
      .Field("incorrect", static_cast<int64_t>(tenants.incorrect))
      .Field("speedup_vs_f32_serial", tenant_speedup);
  json.EndRecord();
  json.CaptureMetrics();
  const std::string out = bench::BenchJsonPath("BENCH_serve.json");
  if (!json.WriteFile(out)) {
    std::fprintf(stderr, "rotom_serve_bench: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  std::remove(snapshot_path.c_str());

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "rotom_serve_bench: speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  // Hot-swap correctness is unconditional: a registry that rejects or
  // mis-serves requests during a swap is broken regardless of throughput.
  if (tenants.swaps < 2 || tenants.rejected != 0 || tenants.incorrect != 0) {
    std::fprintf(stderr,
                 "rotom_serve_bench: tenant window failed (swaps=%llu "
                 "rejected=%llu incorrect=%llu; need >=2 swaps, zero "
                 "rejected/incorrect)\n",
                 static_cast<unsigned long long>(tenants.swaps),
                 static_cast<unsigned long long>(tenants.rejected),
                 static_cast<unsigned long long>(tenants.incorrect));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rotom

int main() { return rotom::Main(); }
