#ifndef ROTOM_SERVE_TENANT_SERVER_H_
#define ROTOM_SERVE_TENANT_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/servelog.h"
#include "serve/obs_http.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "util/status.h"

namespace rotom {
namespace serve {

/// Micro-batching front end over a ModelRegistry, and the repo's one
/// serving core (DESIGN.md §10 and §13). Client threads Submit() single
/// requests for a tenant (a registry model name); each tenant gets its own
/// bounded request queue. One worker thread walks the tenants with a
/// deterministic round-robin cursor, closes at most one batch per ready
/// tenant per turn, pins that tenant's active session for exactly the
/// duration of the fused forward (ModelRegistry::Acquire), and delivers
/// results through the futures returned at submit time. Because the pin is
/// per batch, a hot-swap in the registry takes effect at the next batch
/// boundary — no request ever sees a torn model, and no queue has to drain
/// for a swap to land. A one-model deployment is a one-tenant server:
/// publish the snapshot under a name and serve that name alone.
///
/// Coalescing: a tenant's batch closes as soon as `max_batch` of its
/// requests wait or its *oldest* request has waited `max_delay_us`.
/// Measuring the delay from enqueue time (not from when the worker goes
/// idle) means a backlogged queue drains at full batch size with no
/// artificial waiting, while a lone request under light load still leaves
/// within max_delay_us.
///
/// Admission control: the per-tenant queue holds at most `queue_capacity`
/// requests, and a Submit() against a full queue fails *immediately* with an
/// error Status instead of blocking — one tenant's backlog sheds its own
/// load rather than stalling the others.
///
/// Fairness: the round-robin cursor advances past each served tenant, so a
/// backlogged tenant gets exactly one batch per turn and can never starve a
/// lightly loaded one; with equal demand, service order is deterministic.
///
/// Shutdown() (also run by the destructor) rejects new submissions, drains
/// every queued request through its tenant's model, and joins the worker;
/// no accepted future is abandoned, and a Submit() that loses the race with
/// Shutdown() resolves immediately to an error Status.
///
/// Request lifecycle: Submit() assigns every admitted request an id from
/// one dense per-server sequence (1, 2, 3, ...) under the queue lock; the
/// id rides the request through queue -> batch -> forward -> reply and
/// keys the sampled servelog `request` events, so a tail-latency
/// investigation can follow one request end to end. Within a tenant the
/// ids are strictly increasing (round-robin interleaves the tenants'
/// subsequences in the file). Each request's latency is decomposed as
/// queue_us (enqueue -> batch claim) + compute_us (the fused forward)
/// within total_us (enqueue -> result delivered).
///
/// SLO accounting: each tenant's completed requests are judged against a
/// configurable latency objective (Options::slo_latency_us at
/// Options::slo_target availability). Violations increment the per-tenant
/// `slo_violations` counter; the `budget_remaining` gauge tracks the error
/// budget — floor((1 - slo_target) * completed) - violations, negative when
/// the budget is burned through — and every `slo_window` completed requests
/// the window's p99 is rolled up into a servelog `window` event. All SLO
/// state is touched only by the worker thread, so it costs the submit path
/// nothing.
///
/// Observability (OBSERVABILITY.md): server-wide `serve.requests`,
/// `serve.rejected`, `serve.batches` counters and `serve.batch_size`,
/// `serve.latency_us`, `serve.queue_wait_us`, `serve.compute_us`
/// histograms, summed over tenants; per-tenant `serve.tenant.<tenant>.*`
/// metrics — `requests`, `rejected`, `batches`, `slo_violations` counters,
/// `queue_depth` and `budget_remaining` gauges, `latency_us` histogram; a
/// `serve.tenant.batch` span around each fused forward, and
/// `serve.slow_request` spans above the slow threshold. The optional
/// obs_http listener serves live `/metrics` scrapes and the optional serve
/// log (obs/servelog.h) records the flight-recorder stream.
class TenantServer {
 public:
  struct Options {
    /// Largest coalesced batch per tenant per fused forward.
    int64_t max_batch = 32;
    /// Longest a request may wait for co-batching, in microseconds.
    int64_t max_delay_us = 1000;
    /// Per-tenant queue bound; Submit() fails fast when a queue is full.
    size_t queue_capacity = 256;
    /// Live-scrape listener (GET /metrics, /healthz, /snapshotz);
    /// disabled by default. A failed bind degrades to a warning.
    ObsHttpOptions obs_http;
    /// An already-open serve flight recorder to share (e.g. with the
    /// ModelRegistry so `swap` events land in the same stream); when null
    /// one is opened from `servelog_dir`.
    std::shared_ptr<obs::ServeLog> servelog;
    /// Directory for a server-owned serve log; empty falls back to the
    /// ROTOM_SERVELOG_DIR environment variable (unset = disabled).
    std::string servelog_dir;
    /// 1-in-N sampling rate for servelog `request` events.
    int64_t servelog_sample = 64;
    /// Requests with total latency at or above this emit a
    /// `serve.slow_request` span (default 1s).
    int64_t slow_request_us = 1000000;
    /// Per-tenant latency objective: a completed request slower than this
    /// is an SLO violation (default 100ms).
    int64_t slo_latency_us = 100000;
    /// Target availability of the objective; sets the error-budget rate
    /// floor((1 - slo_target) * completed).
    double slo_target = 0.99;
    /// Completed requests per tenant between SLO window rollups (p99 +
    /// servelog `window` event).
    int64_t slo_window = 256;
  };

  /// The registry must outlive the server. `tenants` fixes the served set;
  /// each must name a registry model by the time its first batch runs (a
  /// batch for an unpublished tenant fails its requests with an error).
  TenantServer(const ModelRegistry* registry, std::vector<std::string> tenants,
               const Options& options);
  TenantServer(const ModelRegistry* registry, std::vector<std::string> tenants)
      : TenantServer(registry, std::move(tenants), Options()) {}
  ~TenantServer();

  TenantServer(const TenantServer&) = delete;
  TenantServer& operator=(const TenantServer&) = delete;

  /// Enqueues one request for `tenant` and returns the future carrying its
  /// result. Resolves immediately to an error Status when the tenant is not
  /// in the served set, its queue is full (admission control), or the
  /// server is shut down. Never blocks.
  std::future<StatusOr<Prediction>> Submit(const std::string& tenant,
                                           std::string text);

  /// Convenience synchronous round trip: Submit + wait.
  StatusOr<Prediction> Predict(const std::string& tenant, std::string text) {
    return Submit(tenant, std::move(text)).get();
  }

  /// Stops accepting requests, drains all queues, joins the worker.
  /// Idempotent.
  void Shutdown();

  /// Per-tenant totals since construction (exact once submitters quiesce).
  /// All-zero for names outside the served set.
  struct Stats {
    uint64_t requests = 0;  // accepted submissions
    uint64_t rejected = 0;  // shed at admission (full queue / shutdown)
    uint64_t batches = 0;   // fused forwards run
  };
  Stats GetStats(const std::string& tenant) const;

  /// Port of the running observability listener, 0 when none is running
  /// (not enabled, or the bind failed).
  int obs_http_port() const {
    return obs_http_ != nullptr ? obs_http_->port() : 0;
  }

  /// The serve flight recorder in use (options-supplied or server-opened);
  /// nullptr when serve logging is disabled.
  const std::shared_ptr<obs::ServeLog>& servelog() const { return servelog_; }

 private:
  struct Request {
    std::string text;
    std::promise<StatusOr<Prediction>> promise;
    std::chrono::steady_clock::time_point enqueued;
    uint64_t id = 0;  // dense per server, 1-based, assigned under mu_
  };

  struct Tenant {
    std::string name;
    std::deque<Request> queue;  // guarded by mu_
    uint64_t requests = 0;      // guarded by mu_
    uint64_t rejected = 0;      // guarded by mu_
    // Guarded by mu_. Counts forwards that ran: a batch failed for want of
    // an active model is not counted.
    uint64_t batches = 0;
    // Cached at construction; the metric objects are process-lifetime.
    obs::Counter* requests_counter = nullptr;
    obs::Counter* rejected_counter = nullptr;
    obs::Counter* batches_counter = nullptr;
    obs::Counter* slo_violations_counter = nullptr;
    obs::Gauge* queue_depth_gauge = nullptr;
    obs::Gauge* budget_remaining_gauge = nullptr;
    obs::Histogram* latency_histogram = nullptr;
    // SLO accounting — written only by the worker thread after batch
    // delivery, so none of it needs mu_.
    std::vector<int64_t> window_latencies;  // total_us of the open window
    uint64_t completed = 0;                 // lifetime completed requests
    uint64_t violations = 0;                // lifetime SLO violations
    uint64_t window_shed_base = 0;          // rejected count at last rollup
  };

  void WorkerLoop();
  /// First tenant at/after the cursor whose batch is ready to close at
  /// `now` (full batch, expired oldest request, or shutdown drain).
  /// Returns its index or -1. Caller holds mu_.
  int NextReadyLocked(std::chrono::steady_clock::time_point now) const;
  bool AnyQueuedLocked() const;
  const Tenant* FindTenant(const std::string& name) const;

  /// Worker-side SLO bookkeeping after one request completes in
  /// `total_us`; rolls the window up (p99, servelog `window` event) at the
  /// slo_window boundary. `shed_snapshot` is the tenant's rejected count
  /// read under mu_ at batch claim.
  void AccountSlo(Tenant* tenant, int64_t total_us, uint64_t shed_snapshot);

  const ModelRegistry* registry_;
  const Options options_;
  std::shared_ptr<obs::ServeLog> servelog_;
  std::unique_ptr<ObsHttpServer> obs_http_;
  // Fixed after construction. A deque (not vector) because Tenant holds a
  // queue of move-only Requests and must never be relocated.
  std::deque<Tenant> tenants_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // worker waits for work / deadline
  bool shutdown_ = false;
  size_t cursor_ = 0;  // round-robin position, next tenant to consider
  uint64_t next_request_id_ = 0;  // last id handed out; ids are 1-based

  std::mutex join_mu_;  // serializes concurrent Shutdown() joins
  std::thread worker_;
};

}  // namespace serve
}  // namespace rotom

#endif  // ROTOM_SERVE_TENANT_SERVER_H_
