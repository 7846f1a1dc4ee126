#include "serve/tenant_server.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace rotom {
namespace serve {

namespace {

// Per-tenant metric accessors. The literal suffix at each call site is what
// scripts/check_obs_docs.sh matches against the documented
// `serve.tenant.<tenant>.<suffix>` names — keep suffixes literal.
obs::Counter& TenantCounter(const std::string& tenant,
                            const std::string& suffix) {
  return obs::GetCounter("serve.tenant." + tenant + "." + suffix);
}

obs::Gauge& TenantGauge(const std::string& tenant, const std::string& suffix) {
  return obs::GetGauge("serve.tenant." + tenant + "." + suffix);
}

obs::Histogram& TenantHistogram(const std::string& tenant,
                                const std::string& suffix) {
  return obs::GetHistogram("serve.tenant." + tenant + "." + suffix);
}

// Server-wide instruments, summed over tenants: the one-number view of the
// serving path (and the inputs of the derived serve.reject_rate and
// serve.queue_wait_share in BENCH files) whatever the tenant names are.
obs::Counter& RequestCounter() {
  static obs::Counter& c = obs::GetCounter("serve.requests");
  return c;
}

obs::Counter& RejectedCounter() {
  static obs::Counter& c = obs::GetCounter("serve.rejected");
  return c;
}

obs::Counter& BatchCounter() {
  static obs::Counter& c = obs::GetCounter("serve.batches");
  return c;
}

obs::Histogram& BatchSizeHistogram() {
  static obs::Histogram& h = obs::GetHistogram("serve.batch_size");
  return h;
}

obs::Histogram& LatencyHistogram() {
  static obs::Histogram& h = obs::GetHistogram("serve.latency_us");
  return h;
}

obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& h = obs::GetHistogram("serve.queue_wait_us");
  return h;
}

obs::Histogram& ComputeHistogram() {
  static obs::Histogram& h = obs::GetHistogram("serve.compute_us");
  return h;
}

int64_t ElapsedUs(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

TenantServer::TenantServer(const ModelRegistry* registry,
                           std::vector<std::string> tenants,
                           const Options& options)
    : registry_(registry), options_(options), servelog_(options.servelog) {
  ROTOM_CHECK(registry != nullptr);
  ROTOM_CHECK(!tenants.empty());
  ROTOM_CHECK_GE(options_.max_batch, 1);
  ROTOM_CHECK_GE(options_.max_delay_us, 0);
  ROTOM_CHECK_GE(options_.queue_capacity, 1u);
  ROTOM_CHECK_GE(options_.slo_latency_us, 0);
  ROTOM_CHECK(options_.slo_target > 0.0 && options_.slo_target <= 1.0);
  ROTOM_CHECK_GE(options_.slo_window, 1);
  for (std::string& name : tenants) {
    Tenant& t = tenants_.emplace_back();
    t.requests_counter = &TenantCounter(name, "requests");
    t.rejected_counter = &TenantCounter(name, "rejected");
    t.batches_counter = &TenantCounter(name, "batches");
    t.slo_violations_counter = &TenantCounter(name, "slo_violations");
    t.queue_depth_gauge = &TenantGauge(name, "queue_depth");
    t.budget_remaining_gauge = &TenantGauge(name, "budget_remaining");
    t.latency_histogram = &TenantHistogram(name, "latency_us");
    t.window_latencies.reserve(static_cast<size_t>(options_.slo_window));
    t.name = std::move(name);
  }

  if (servelog_ == nullptr) {
    obs::ServeLogOptions log_options;
    log_options.dir = options_.servelog_dir;
    log_options.sample = options_.servelog_sample;
    servelog_ = obs::ServeLog::Open(log_options);
  }
  if (servelog_ != nullptr) {
    obs::ServeManifest manifest;
    manifest.server = "tenant";
    manifest.tenants = static_cast<int64_t>(tenants_.size());
    manifest.max_batch = options_.max_batch;
    manifest.max_delay_us = options_.max_delay_us;
    manifest.queue_capacity = static_cast<int64_t>(options_.queue_capacity);
    manifest.slow_request_us = options_.slow_request_us;
    manifest.slo_latency_us = options_.slo_latency_us;
    manifest.slo_target = options_.slo_target;
    servelog_->LogManifest(manifest);
  }
  if (options_.obs_http.enabled) {
    auto listener = ObsHttpServer::Start(options_.obs_http);
    if (listener.ok()) {
      obs_http_ = std::move(listener).value();
    } else {
      // Observability must not take the server down with it.
      ROTOM_LOG(Warning) << listener.status().message();
    }
  }

  worker_ = std::thread([this] { WorkerLoop(); });
}

TenantServer::~TenantServer() { Shutdown(); }

const TenantServer::Tenant* TenantServer::FindTenant(
    const std::string& name) const {
  for (const Tenant& t : tenants_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::future<StatusOr<Prediction>> TenantServer::Submit(
    const std::string& tenant, std::string text) {
  std::promise<StatusOr<Prediction>> promise;
  std::future<StatusOr<Prediction>> future = promise.get_future();
  // The tenant set is fixed after construction, so the lookup needs no lock.
  const Tenant* found = FindTenant(tenant);
  if (found == nullptr) {
    promise.set_value(
        Status::Error("TenantServer does not serve tenant '" + tenant + "'"));
    return future;
  }
  Tenant& t = const_cast<Tenant&>(*found);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || t.queue.size() >= options_.queue_capacity) {
      // Admission control: shed this tenant's overload immediately rather
      // than blocking the caller (which could be serving other tenants).
      ++t.rejected;
      t.rejected_counter->Add();
      RejectedCounter().Add();
      if (!shutdown_ && servelog_ != nullptr) {
        servelog_->LogShed(t.name, static_cast<int64_t>(t.queue.size()));
      }
      promise.set_value(Status::Error(
          shutdown_ ? "TenantServer is shut down"
                    : "tenant '" + tenant + "' queue is full (" +
                          std::to_string(options_.queue_capacity) + ")"));
      return future;
    }
    t.queue.push_back(Request{std::move(text), std::move(promise),
                              std::chrono::steady_clock::now(),
                              ++next_request_id_});
    ++t.requests;
    t.requests_counter->Add();
    RequestCounter().Add();
    t.queue_depth_gauge->Set(static_cast<int64_t>(t.queue.size()));
  }
  queue_cv_.notify_one();
  return future;
}

void TenantServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  // Serialize the join so concurrent Shutdown() calls are safe.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (worker_.joinable()) worker_.join();
  // The listener dies with the worker; obs_http_port() reads 0 afterwards.
  obs_http_.reset();
}

TenantServer::Stats TenantServer::GetStats(const std::string& tenant) const {
  const Tenant* t = FindTenant(tenant);
  if (t == nullptr) return Stats{};
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{t->requests, t->rejected, t->batches};
}

bool TenantServer::AnyQueuedLocked() const {
  for (const Tenant& t : tenants_) {
    if (!t.queue.empty()) return true;
  }
  return false;
}

int TenantServer::NextReadyLocked(
    std::chrono::steady_clock::time_point now) const {
  const size_t n = tenants_.size();
  for (size_t step = 0; step < n; ++step) {
    const size_t i = (cursor_ + step) % n;
    const Tenant& t = tenants_[i];
    if (t.queue.empty()) continue;
    if (shutdown_ ||
        t.queue.size() >= static_cast<size_t>(options_.max_batch) ||
        now >= t.queue.front().enqueued +
                   std::chrono::microseconds(options_.max_delay_us)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void TenantServer::AccountSlo(Tenant* tenant, int64_t total_us,
                              uint64_t shed_snapshot) {
  ++tenant->completed;
  if (total_us > options_.slo_latency_us) {
    ++tenant->violations;
    tenant->slo_violations_counter->Add();
  }
  tenant->window_latencies.push_back(total_us);

  // Error budget: at slo_target availability the tenant may violate on
  // (1 - slo_target) of completed requests; what is left of that allowance
  // can go negative once the budget is burned through.
  const int64_t allowed = static_cast<int64_t>(
      (1.0 - options_.slo_target) * static_cast<double>(tenant->completed));
  tenant->budget_remaining_gauge->Set(
      allowed - static_cast<int64_t>(tenant->violations));

  if (tenant->window_latencies.size() <
      static_cast<size_t>(options_.slo_window)) {
    return;
  }
  // Window rollup: p99 of the closed window, then start the next one.
  std::vector<int64_t>& window = tenant->window_latencies;
  const size_t idx = std::min(window.size() - 1, (window.size() * 99) / 100);
  std::nth_element(window.begin(),
                   window.begin() + static_cast<ptrdiff_t>(idx), window.end());
  const int64_t p99_us = window[idx];
  if (servelog_ != nullptr) {
    servelog_->LogWindow(
        tenant->name, static_cast<int64_t>(window.size()),
        static_cast<int64_t>(shed_snapshot - tenant->window_shed_base),
        p99_us, static_cast<int64_t>(tenant->violations),
        allowed - static_cast<int64_t>(tenant->violations));
  }
  tenant->window_shed_base = shed_snapshot;
  window.clear();
}

void TenantServer::WorkerLoop() {
  for (;;) {
    std::vector<Request> batch;
    Tenant* tenant = nullptr;
    uint64_t shed_snapshot = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      int ready = -1;
      for (;;) {
        queue_cv_.wait(lock, [&] { return shutdown_ || AnyQueuedLocked(); });
        if (!AnyQueuedLocked()) return;  // shutdown with nothing to drain

        ready = NextReadyLocked(std::chrono::steady_clock::now());
        if (ready >= 0) break;

        // Work is queued but no tenant's batch may close yet: sleep until
        // the earliest oldest-request deadline (or an arrival/shutdown wakes
        // us), then re-evaluate. Anchoring at enqueue time means a
        // backlogged tenant's batch leaves immediately on the next turn.
        auto deadline = std::chrono::steady_clock::time_point::max();
        for (const Tenant& t : tenants_) {
          if (t.queue.empty()) continue;
          deadline = std::min(
              deadline, t.queue.front().enqueued +
                            std::chrono::microseconds(options_.max_delay_us));
        }
        queue_cv_.wait_until(lock, deadline, [&] {
          return shutdown_ ||
                 NextReadyLocked(std::chrono::steady_clock::now()) >= 0;
        });
      }

      // One batch from the ready tenant, then move the cursor past it so the
      // next turn considers the following tenant first (round-robin: a
      // backlogged tenant gets one batch per sweep, never two in a row while
      // others wait).
      tenant = &tenants_[static_cast<size_t>(ready)];
      cursor_ = (static_cast<size_t>(ready) + 1) % tenants_.size();
      const size_t take = std::min(
          tenant->queue.size(), static_cast<size_t>(options_.max_batch));
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(tenant->queue.front()));
        tenant->queue.pop_front();
      }
      shed_snapshot = tenant->rejected;  // for the SLO window's shed column
      tenant->queue_depth_gauge->Set(
          static_cast<int64_t>(tenant->queue.size()));
    }
    queue_cv_.notify_all();

    // Claim timestamp: splits queue_us (enqueue -> here) from compute_us.
    const auto claimed = std::chrono::steady_clock::now();

    // Pin the tenant's active session for exactly this batch: a registry
    // hot-swap lands at the next batch boundary, and a retired version stays
    // alive until this forward completes (the RCU drain).
    std::shared_ptr<const InferenceSession> session =
        registry_->Acquire(tenant->name);
    if (session == nullptr) {
      for (Request& r : batch) {
        r.promise.set_value(Status::Error(
            "no active model for tenant '" + tenant->name + "'"));
      }
      continue;
    }

    std::vector<std::string> texts;
    texts.reserve(batch.size());
    for (const Request& r : batch) texts.push_back(r.text);
    std::vector<Prediction> predictions;
    {
      ROTOM_TRACE_SPAN("serve.tenant.batch");
      predictions = session->PredictBatch(texts);
    }
    const auto done = std::chrono::steady_clock::now();
    const int64_t compute_us = ElapsedUs(claimed, done);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++tenant->batches;
    }
    tenant->batches_counter->Add();
    BatchCounter().Add();
    BatchSizeHistogram().Record(batch.size());
    ComputeHistogram().Record(static_cast<uint64_t>(compute_us));
    for (size_t i = 0; i < batch.size(); ++i) {
      const int64_t queue_us = ElapsedUs(batch[i].enqueued, claimed);
      const int64_t total_us = ElapsedUs(batch[i].enqueued, done);
      const int64_t label = predictions[i].label;
      QueueWaitHistogram().Record(static_cast<uint64_t>(queue_us));
      LatencyHistogram().Record(static_cast<uint64_t>(total_us));
      tenant->latency_histogram->Record(static_cast<uint64_t>(total_us));
      if (total_us >= options_.slow_request_us) {
        obs::EmitCompletedSpan("serve.slow_request",
                               static_cast<uint64_t>(total_us));
      }
      if (servelog_ != nullptr && servelog_->SampleRequest(batch[i].id)) {
        servelog_->LogRequest(batch[i].id, tenant->name, queue_us, compute_us,
                              total_us, static_cast<int64_t>(batch.size()),
                              label);
      }
      AccountSlo(tenant, total_us, shed_snapshot);
      batch[i].promise.set_value(std::move(predictions[i]));
    }
  }
}

}  // namespace serve
}  // namespace rotom
