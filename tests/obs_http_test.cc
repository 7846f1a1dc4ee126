// Tests for the serving observability listener (serve/obs_http.h): a raw
// loopback-socket client scrapes /metrics, /healthz, and /snapshotz from a
// live server, covering the acceptance contract — the Prometheus text
// carries the dotted catalog names in HELP lines, the request-lifecycle
// histograms appear, and per-tenant SLO instruments are scrapeable — plus
// the error paths (404/405) and the ROTOM_METRICS=off shape (200 with an
// empty exposition). The TSan sweep in scripts/check.sh re-runs this
// binary: the listener thread, worker thread, and client threads must stay
// race-free together.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "rotom/api.h"

namespace rotom {
namespace {

using serve::ModelRegistry;
using serve::ObsHttpOptions;
using serve::ObsHttpServer;
using serve::Snapshot;
using serve::TenantServer;

#ifdef ROTOM_METRICS_DISABLED
#define SKIP_IF_METRICS_COMPILED_OUT() \
  GTEST_SKIP() << "built with ROTOM_DISABLE_METRICS"
#else
#define SKIP_IF_METRICS_COMPILED_OUT() static_cast<void>(0)
#endif

class ObsEnabledGuard {
 public:
  ObsEnabledGuard() : enabled_(obs::Enabled()) {}
  ~ObsEnabledGuard() { obs::SetEnabled(enabled_); }

 private:
  bool enabled_;
};

// Same bench-scale model the serve tests use.
Snapshot MakeSnapshot() {
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
  Rng rng(1);
  models::TransformerClassifier model(config, vocab, rng);
  model.SetTraining(false);
  return Snapshot::FromModel(model);
}

// Minimal blocking HTTP/1.0-style client: send the raw request, read to
// EOF (the server always closes), return the full response.
std::string RawRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n");
}

// The headers end at the first blank line; everything after is the body.
std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

TEST(ObsHttpTest, StandaloneEndpointsAndErrorPaths) {
  SKIP_IF_METRICS_COMPILED_OUT();
  ObsEnabledGuard guard;
  obs::SetEnabled(true);
  obs::GetCounter("obs_http.test.counter").Reset();
  obs::GetCounter("obs_http.test.counter").Add(5);

  ObsHttpOptions options;
  options.enabled = true;
  options.port = 0;  // ephemeral
  auto server = ObsHttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const int port = server.value()->port();
  ASSERT_NE(port, 0);

  const std::string metrics = Get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find(obs::kPrometheusContentType), std::string::npos);
  // HELP lines carry the dotted catalog name; value lines the sanitized one.
  EXPECT_NE(metrics.find("obs_http.test.counter"), std::string::npos);
  EXPECT_NE(metrics.find("obs_http_test_counter 5\n"), std::string::npos);

  const std::string healthz = Get(port, "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(healthz), "ok\n");

  const std::string snapshotz = Get(port, "/snapshotz");
  EXPECT_NE(snapshotz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(snapshotz.find("application/json"), std::string::npos);
  EXPECT_NE(BodyOf(snapshotz).find("\"obs_http.test.counter\": 5"),
            std::string::npos)
      << snapshotz;

  EXPECT_NE(Get(port, "/nope").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(RawRequest(port, "POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);

  server.value()->Stop();
  server.value()->Stop();  // idempotent
}

TEST(ObsHttpTest, MetricsOffStillServesValidEmptyExposition) {
  ObsEnabledGuard guard;
  obs::SetEnabled(false);
  ObsHttpOptions options;
  options.enabled = true;
  auto server = ObsHttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const std::string metrics = Get(server.value()->port(), "/metrics");
  // ROTOM_METRICS=off keeps the endpoint alive (health checks, scrapers)
  // but the exposition is empty — same contract as obs::Snapshot().
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_TRUE(BodyOf(metrics).empty()) << metrics;
  // The liveness probe never depends on the metrics switch.
  EXPECT_EQ(BodyOf(Get(server.value()->port(), "/healthz")), "ok\n");
}

// The acceptance scrape: a live one-tenant TenantServer under traffic
// exposes the request-lifecycle decomposition and the per-tenant SLO
// instruments, all through one registry.
TEST(ObsHttpTest, LiveServerScrapeCarriesLifecycleAndSloMetrics) {
  SKIP_IF_METRICS_COMPILED_OUT();
  ObsEnabledGuard guard;
  obs::SetEnabled(true);

  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("em", MakeSnapshot()).ok());
  TenantServer::Options options;
  options.max_batch = 8;
  options.max_delay_us = 200;
  options.obs_http.enabled = true;
  TenantServer server(&registry, {"em"}, options);
  ASSERT_NE(server.obs_http_port(), 0);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(server.Predict("em", "the movie was great").ok());
  }

  const std::string scrape = Get(server.obs_http_port(), "/metrics");
  for (const char* dotted :
       {"serve.requests", "serve.queue_wait_us", "serve.compute_us",
        "serve.latency_us", "serve.batch_size"}) {
    EXPECT_NE(scrape.find(dotted), std::string::npos) << dotted;
  }
  EXPECT_NE(scrape.find("serve_queue_wait_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("serve.tenant.em.slo_violations"), std::string::npos);
  EXPECT_NE(scrape.find("serve.tenant.em.budget_remaining"),
            std::string::npos);
  EXPECT_NE(scrape.find("serve_tenant_em_requests"), std::string::npos);
  server.Shutdown();
  // Shutdown stops the listener with the worker.
  EXPECT_EQ(server.obs_http_port(), 0);
}

}  // namespace
}  // namespace rotom
