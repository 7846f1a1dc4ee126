#ifndef ROTOM_SERVE_SERVER_H_
#define ROTOM_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/servelog.h"
#include "serve/obs_http.h"
#include "serve/session.h"
#include "util/status.h"

namespace rotom {
namespace serve {

/// Micro-batching front end for an InferenceSession.
///
/// N client threads Submit() single requests into a bounded MPSC queue; one
/// worker thread coalesces waiting requests into batches of up to
/// `max_batch` and runs a single fused forward per batch, delivering each
/// result through the future returned at submit time. Batching amortizes the
/// per-forward fixed costs (graph-free op dispatch, kernel launches, softmax)
/// across requests — under a multi-client closed loop the f32 baseline
/// measures 1.12x the throughput of serial single-request inference
/// (`speedup_vs_serial` in bench/baseline/BENCH_serve.json, recorded by
/// tools/rotom_serve_bench).
///
/// Coalescing policy: a batch is closed as soon as either `max_batch`
/// requests are waiting, or the *oldest* waiting request has been queued for
/// `max_delay_us`. Measuring the delay from enqueue time (not from when the
/// worker goes idle) means a backlogged queue is drained at full batch size
/// with no artificial waiting, while a lone request under light load still
/// leaves within max_delay_us.
///
/// Backpressure: the queue holds at most `queue_capacity` requests;
/// Submit() blocks until space frees up. Shutdown() (also run by the
/// destructor) stops accepting new work, *drains every queued request*
/// through the model, and joins the worker — no future returned by a
/// successful pre-shutdown Submit() is ever abandoned. A Submit() that loses
/// the race with Shutdown() resolves immediately to an error Status.
///
/// Thread-safety: Submit()/Predict() may be called from any number of
/// threads. Shutdown() may be called from any thread (concurrently with
/// submitters); once effective all later submissions are rejected.
///
/// Request lifecycle: Submit() assigns every accepted request a dense,
/// monotonically increasing id (1, 2, 3, ...) under the queue lock; the id
/// rides the request through queue -> batch-coalesce -> forward -> reply
/// and keys the sampled servelog `request` events, so a tail-latency
/// investigation can follow one request end to end. Each request's latency
/// is decomposed as queue_us (enqueue -> batch claim) + compute_us (the
/// fused forward) within total_us (enqueue -> result delivered).
///
/// Observability (see OBSERVABILITY.md): `serve.requests`,
/// `serve.rejected`, `serve.batches` counters; `serve.queue_depth` gauge;
/// `serve.batch_size`, `serve.queue_wait_us`, `serve.compute_us`, and
/// `serve.latency_us` (total) histograms; each fused forward runs under a
/// `serve.batch` trace span and requests slower than
/// Options::slow_request_us emit a `serve.slow_request` span. The optional
/// obs_http listener serves live `/metrics` scrapes and the optional serve
/// log (obs/servelog.h) records the flight-recorder stream.
class BatchingServer {
 public:
  struct Options {
    /// Largest coalesced batch per fused forward.
    int64_t max_batch = 32;
    /// Longest a request may wait in the queue for co-batching, in
    /// microseconds.
    int64_t max_delay_us = 1000;
    /// Bound of the submission queue; Submit() blocks when full.
    size_t queue_capacity = 1024;
    /// Live-scrape listener (GET /metrics, /healthz, /snapshotz);
    /// disabled by default. A failed bind degrades to a warning.
    ObsHttpOptions obs_http;
    /// An already-open serve flight recorder to share (e.g. with a
    /// ModelRegistry); when null one is opened from `servelog_dir`.
    std::shared_ptr<obs::ServeLog> servelog;
    /// Directory for a server-owned serve log; empty falls back to the
    /// ROTOM_SERVELOG_DIR environment variable (unset = disabled).
    std::string servelog_dir;
    /// 1-in-N sampling rate for servelog `request` events.
    int64_t servelog_sample = 64;
    /// Requests with total latency at or above this emit a
    /// `serve.slow_request` span (default 1s).
    int64_t slow_request_us = 1000000;
  };

  /// The session must outlive the server.
  explicit BatchingServer(const InferenceSession* session,
                          const Options& options);
  explicit BatchingServer(const InferenceSession* session)
      : BatchingServer(session, Options()) {}
  ~BatchingServer();

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  /// Enqueues one request and returns the future that will carry its result
  /// (or an error Status if the server shut down before this call took
  /// effect). Blocks while the queue is full.
  std::future<StatusOr<Prediction>> Submit(std::string text);

  /// Convenience synchronous round trip: Submit + wait.
  StatusOr<Prediction> Predict(std::string text) {
    return Submit(std::move(text)).get();
  }

  /// Stops accepting requests, drains everything already queued through the
  /// session, and joins the worker thread. Idempotent.
  void Shutdown();

  /// Totals since construction (exact once concurrent submitters quiesce).
  struct Stats {
    uint64_t requests = 0;  // accepted submissions
    uint64_t batches = 0;   // fused forwards run
  };
  Stats GetStats() const;

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
    uint64_t id = 0;  // dense, 1-based, assigned at Submit under mu_
  };

  void WorkerLoop();

  const InferenceSession* session_;
  const Options options_;
  std::shared_ptr<obs::ServeLog> servelog_;
  std::unique_ptr<ObsHttpServer> obs_http_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // worker waits for work / deadline
  std::condition_variable space_cv_;  // submitters wait for queue space
  std::deque<Request> queue_;
  bool shutdown_ = false;
  uint64_t requests_ = 0;
  uint64_t batches_ = 0;
  uint64_t next_request_id_ = 0;  // last id handed out; ids are 1-based

  std::mutex join_mu_;  // serializes concurrent Shutdown() joins
  std::thread worker_;
};

}  // namespace serve
}  // namespace rotom

#endif  // ROTOM_SERVE_SERVER_H_
