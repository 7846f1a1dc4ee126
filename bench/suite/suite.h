#ifndef ROTOM_BENCH_SUITE_SUITE_H_
#define ROTOM_BENCH_SUITE_SUITE_H_

// The repo benchmark (rotom_bench): three workloads that drive only the
// public entry points (eval::TaskContext, api::Train, serve::ModelRegistry +
// TenantServer, InferenceSession, and the nn / kernels / quant functions),
// time those calls from outside, and read the program's own counters and
// spans through obs::Snapshot() and the ROTOM_TRACE ring buffers. Nothing
// here adds instrumentation to src/. README.md holds the metric catalog.
//
// This header holds the measurement pieces that suite_test.cc exercises
// (statistics, the open-loop load generator, capacity search, span self
// time, obs deltas, result output), plus the workload entry points.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace rotom {
namespace suite {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

// ---- Statistics ----

/// Linear-interpolated quantile (0 <= q <= 1) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// A timing reported the way the benchmark reports every timing: the median
/// and the highest of p99.9 / p99 / p90 that has at least ten samples beyond
/// it (tail_q == 0.5 when even p90 has fewer), with the sample count.
struct PercentileReport {
  size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.5;
  double tail = 0.0;
};
PercentileReport ReportPercentiles(const std::vector<double>& samples);

// ---- Open-loop load ----

/// Poisson arrival times in seconds from phase start: exponential gaps at
/// `rate` per second, every arrival strictly before `duration`. Same seed,
/// same times.
std::vector<double> PoissonSchedule(double rate, double duration,
                                    uint64_t seed);

/// Drives an open-loop schedule: for each due offset (seconds from `start`)
/// it waits until the request is due, then calls send(i). A send that
/// stalls delays every later send, and because latency is taken from the
/// due time (DueLatencyMs), the stall shows up as latency on the requests
/// behind it. Returns each request's send lag (send time - due time) in ms.
std::vector<double> DriveOpenLoop(const std::vector<double>& due_s,
                                  Clock::time_point start,
                                  const std::function<void(size_t)>& send);

/// Latency of a request measured from when it was due to be sent.
double DueLatencyMs(Clock::time_point start, double due_s,
                    Clock::time_point done);

// ---- Capacity search ----

/// Bisects [lo, hi] with `probes` calls of passes(rate) for the highest rate
/// that passes, assuming pass/fail is monotone in the rate. Returns the
/// highest passing probe, or 0 when none passed.
double BisectCapacity(double lo, double hi, int probes,
                      const std::function<bool(double)>& passes);

// ---- Spans ----

/// One complete span: the program's ROTOM_TRACE events (tid, start, length
/// in microseconds) or the benchmark's own.
struct Span {
  std::string name;
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

struct SpanTotals {
  int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Per-name totals with self time: a span's duration minus the part of it
/// covered by spans nested inside it on the same thread.
std::map<std::string, SpanTotals> SelfTimes(std::vector<Span> spans);

/// Reads a Chrome-trace dump written by obs::DumpTrace. Returns false when
/// the file cannot be read. `dropped` receives the dump's dropped_events.
bool ReadProgramTrace(const std::string& path, std::vector<Span>* spans,
                      uint64_t* dropped);

/// The benchmark's own spans around public calls, kept in memory and
/// written as Chrome-trace JSON at the end of a traced run. Inactive (every
/// call a no-op) unless enabled.
class BenchTracer {
 public:
  explicit BenchTracer(bool enabled) : enabled_(enabled) {}
  BenchTracer(const BenchTracer&) = delete;
  BenchTracer& operator=(const BenchTracer&) = delete;

  /// Records [start, end) under `parent` (0 = none); returns the span id.
  /// `request` ties the spans of one serving request together (0 = none).
  uint64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
               uint64_t parent = 0, uint64_t request = 0);
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    Clock::time_point start, end;
    uint64_t id, parent, request;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Event> events_;
};

// ---- obs registry deltas ----

/// Reads named instruments out of obs snapshots. Delta(before, after)
/// subtracts counters and histogram buckets; gauges keep `after`.
class ObsView {
 public:
  ObsView() = default;
  explicit ObsView(obs::SnapshotData data);
  static ObsView Delta(const ObsView& before, const ObsView& after);
  static ObsView Now();

  double Counter(const std::string& name) const;
  double Gauge(const std::string& name) const;
  double HistCount(const std::string& name) const;
  double HistSum(const std::string& name) const;
  double HistMean(const std::string& name) const;
  double HistPercentile(const std::string& name, double q) const;

 private:
  const obs::MetricSnapshot* Find(const std::string& name) const;
  std::map<std::string, obs::MetricSnapshot> metrics_;
};

// ---- Results ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Declared metrics, in BENCHMARK.json order. Every workload reports every
/// one of them (a per-layer metric is 0 on a workload that never enters
/// that layer).
const std::vector<Metric>& EndToEndCatalog();
const std::vector<Metric>& PerLayerCatalog();

/// A metric set pre-filled from a catalog; Set() rejects undeclared names.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<Metric>& catalog);
  void Set(const std::string& name, double value);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();

/// FNV-1a 64 over a byte string, chained through `hash`.
uint64_t HashBytes(uint64_t hash, const std::string& bytes);
inline constexpr uint64_t kHashSeed = 1469598103934665603ull;

// ---- Workloads ----

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;   // scratch inputs (CSV shards, snapshots, ...)
  std::string trace_dir;  // traced runs: Chrome-trace JSON + run logs
};

struct WorkloadOutput {
  WorkloadOutput()
      : e2e(EndToEndCatalog()), layer(PerLayerCatalog()) {}
  MetricSet e2e;
  MetricSet layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  uint64_t input_hash = kHashSeed;
};

WorkloadOutput RunEmRotom(const RunConfig& config);
WorkloadOutput RunAgStream(const RunConfig& config);
WorkloadOutput RunServeMixed(const RunConfig& config);

/// Labels of `texts` from a fresh InferenceSession of `snapshot`: 32 texts
/// per fused forward (the batch the trainers evaluate with), encoding cache
/// off.
StatusOr<std::vector<int64_t>> PredictLabels(
    const serve::Snapshot& snapshot, const std::vector<std::string>& texts);

/// Layer probes at a workload's shapes: nn modules (forward, and backward
/// when `train`), dispatched kernels, and (when `quant`) the int8 path.
struct ProbeShape {
  int64_t batch = 16;
  int64_t seq = 32;
  int64_t dim = 32;
  int64_t heads = 2;
  int64_t ffn = 64;
  int64_t classes = 2;
  int64_t vocab = 1000;
  bool train = true;
  bool quant = false;
};
void ProbeLayers(const ProbeShape& shape, bool smoke, MetricSet* layer);

/// Fills the per-layer metrics every workload reads the same way from an
/// obs delta over its measured window: thread pool, prefetcher, encoding
/// cache, buffer pool, stream counters.
void SetCommonLayerMetrics(const ObsView& delta, const ObsView& now,
                           MetricSet* layer);

/// The program's own spans (ROTOM_TRACE), recorded during a traced run:
/// construction switches recording on, Collect() dumps the per-thread rings,
/// reads the events back and clears the rings before they can wrap, keeping
/// a running count of any events that were overwritten anyway.
class ProgramTrace {
 public:
  ProgramTrace(bool enabled, std::string dump_path);
  /// Dumps, parses and clears the ring buffers accumulated so far.
  void Collect();
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }
  bool enabled() const { return enabled_; }

 private:
  bool enabled_;
  std::string dump_path_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Sets trace.events and trace.dropped_events from a collected trace.
void SetTraceCounts(const ProgramTrace& trace, MetricSet* layer);

}  // namespace suite
}  // namespace rotom

#endif  // ROTOM_BENCH_SUITE_SUITE_H_
