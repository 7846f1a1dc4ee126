// Measurement pieces of the benchmark: statistics, the open-loop generator,
// capacity bisection, span self time, obs deltas, the metric catalogs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/trace.h"
#include "suite.h"
#include "util/rng.h"

namespace rotom {
namespace suite {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Statistics ----

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

PercentileReport ReportPercentiles(const std::vector<double>& samples) {
  PercentileReport report;
  report.n = samples.size();
  report.p50 = Median(samples);
  report.tail = report.p50;
  for (double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(report.n) * (1.0 - q) >= 10.0 - 1e-9) {
      report.tail_q = q;
      report.tail = Quantile(samples, q);
      break;
    }
  }
  return report;
}

// ---- Open-loop load ----

std::vector<double> PoissonSchedule(double rate, double duration,
                                    uint64_t seed) {
  std::vector<double> due;
  if (rate <= 0.0) return due;
  Rng rng(seed);
  double t = 0.0;
  while (true) {
    // 1 - U is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

std::vector<double> DriveOpenLoop(const std::vector<double>& due_s,
                                  Clock::time_point start,
                                  const std::function<void(size_t)>& send) {
  std::vector<double> lag_ms(due_s.size(), 0.0);
  for (size_t i = 0; i < due_s.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    lag_ms[i] = std::chrono::duration<double, std::milli>(Clock::now() - due)
                    .count();
    send(i);
  }
  return lag_ms;
}

double DueLatencyMs(Clock::time_point start, double due_s,
                    Clock::time_point done) {
  return std::chrono::duration<double, std::milli>(done - start).count() -
         due_s * 1000.0;
}

// ---- Capacity search ----

double BisectCapacity(double lo, double hi, int probes,
                      const std::function<bool(double)>& passes) {
  double best = 0.0;
  for (int i = 0; i < probes; ++i) {
    const double rate = 0.5 * (lo + hi);
    if (passes(rate)) {
      best = rate;
      lo = rate;
    } else {
      hi = rate;
    }
  }
  return best;
}

// ---- Spans ----

std::map<std::string, SpanTotals> SelfTimes(std::vector<Span> spans) {
  // Children start at or after their parent and end at or before it; the
  // dump rounds to 1 ns, hence the slack.
  constexpr double kSlackUs = 0.002;
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<double> self(spans.size());
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.dur_us;
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      const bool same_thread = top.tid == s.tid;
      const bool inside =
          s.start_us + s.dur_us <= top.start_us + top.dur_us + kSlackUs;
      if (same_thread && inside) break;
      stack.pop_back();
    }
    if (!stack.empty()) self[stack.back()] -= s.dur_us;
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_us += spans[i].dur_us;
    t.self_us += std::max(0.0, self[i]);
  }
  return totals;
}

bool ReadProgramTrace(const std::string& path, std::vector<Span>* spans,
                      uint64_t* dropped) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  char name[256];
  while (std::getline(in, line)) {
    unsigned long long d = 0;
    if (std::sscanf(line.c_str(), " \"otherData\": {\"dropped_events\": %llu",
                    &d) == 1) {
      *dropped += d;
      continue;
    }
    Span span;
    if (std::sscanf(line.c_str(),
                    " {\"name\": \"%255[^\"]\", \"cat\": \"%*[^\"]\", \"ph\": "
                    "\"X\", \"pid\": %*d, \"tid\": %d, \"ts\": %lf, \"dur\": "
                    "%lf}",
                    name, &span.tid, &span.start_us, &span.dur_us) == 4) {
      span.name = name;
      spans->push_back(std::move(span));
    }
  }
  return true;
}

uint64_t BenchTracer::Add(const char* name, Clock::time_point start,
                          Clock::time_point end, uint64_t parent,
                          uint64_t request) {
  if (!enabled_) return 0;
  const uint64_t id = events_.size() + 1;
  events_.push_back({name, start, end, id, parent, request});
  return id;
}

bool BenchTracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char line[512];
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    using Us = std::chrono::duration<double, std::micro>;
    std::snprintf(line, sizeof(line),
                  "%s\n {\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %llu, \"parent\": %llu, \"request\": "
                  "%llu}}",
                  i == 0 ? "" : ",", e.name, Us(e.start - origin_).count(),
                  Us(e.end - e.start).count(),
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent),
                  static_cast<unsigned long long>(e.request));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ProgramTrace::ProgramTrace(bool enabled, std::string dump_path)
    : enabled_(enabled), dump_path_(std::move(dump_path)) {
  if (!enabled_) return;
  // The same switch as ROTOM_TRACE=<path>: spans record into per-thread
  // rings, which Collect() drains before they can wrap.
  obs::SetTracePath(dump_path_);
  obs::ClearTrace();
}

void ProgramTrace::Collect() {
  if (!enabled_) return;
  if (!obs::DumpTrace(dump_path_) ||
      !ReadProgramTrace(dump_path_, &spans_, &dropped_)) {
    throw std::runtime_error("cannot write or read trace dump " + dump_path_);
  }
  obs::ClearTrace();
}

// ---- obs registry deltas ----

ObsView::ObsView(obs::SnapshotData data) {
  for (auto& m : data.metrics) {
    std::string name = m.name;
    metrics_.emplace(std::move(name), std::move(m));
  }
}

ObsView ObsView::Now() { return ObsView(obs::Snapshot()); }

ObsView ObsView::Delta(const ObsView& before, const ObsView& after) {
  ObsView delta = after;
  for (auto& [name, m] : delta.metrics_) {
    const obs::MetricSnapshot* b = before.Find(name);
    if (b == nullptr || m.kind == obs::MetricKind::kGauge) continue;
    m.count -= std::min(m.count, b->count);
    m.sum -= std::min(m.sum, b->sum);
    for (size_t i = 0; i < m.buckets.size() && i < b->buckets.size(); ++i)
      m.buckets[i] -= std::min(m.buckets[i], b->buckets[i]);
  }
  return delta;
}

const obs::MetricSnapshot* ObsView::Find(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

double ObsView::Counter(const std::string& name) const {
  const obs::MetricSnapshot* m = Find(name);
  return m == nullptr ? 0.0 : static_cast<double>(m->count);
}
double ObsView::Gauge(const std::string& name) const {
  const obs::MetricSnapshot* m = Find(name);
  return m == nullptr ? 0.0 : static_cast<double>(m->gauge);
}
double ObsView::HistCount(const std::string& name) const {
  return Counter(name);
}
double ObsView::HistSum(const std::string& name) const {
  const obs::MetricSnapshot* m = Find(name);
  return m == nullptr ? 0.0 : static_cast<double>(m->sum);
}
double ObsView::HistMean(const std::string& name) const {
  const double n = HistCount(name);
  return n > 0.0 ? HistSum(name) / n : 0.0;
}
double ObsView::HistPercentile(const std::string& name, double q) const {
  const obs::MetricSnapshot* m = Find(name);
  return m == nullptr ? 0.0 : obs::HistogramPercentile(*m, q);
}

// ---- Results ----

const std::vector<Metric>& EndToEndCatalog() {
  static const std::vector<Metric> catalog = {
      {"setup_s", 0.0, "s"},
      {"throughput_per_s", 0.0, "1/s"},
      {"latency_p50_ms", 0.0, "ms"},
      {"peak_rss_mb", 0.0, "MB"},
  };
  return catalog;
}

const std::vector<Metric>& PerLayerCatalog() {
  static const std::vector<Metric> catalog = [] {
    std::vector<Metric> c;
    auto add = [&c](const std::string& name, const char* unit) {
      c.push_back({name, 0.0, unit});
    };
    for (const char* phase :
         {"meta_forward", "forward", "backward", "weighting", "step_other"}) {
      add(std::string("core.") + phase + ".self_ms_per_step", "ms");
    }
    add("core.attributed_share", "ratio");
    add("core.datapath_ms_per_step", "ms");
    add("core.filter.keep_rate", "ratio");
    add("core.steps", "count");
    add("core.checkpoint.writes", "count");
    add("core.checkpoint.save_ms", "ms");
    add("eval.model_ms_per_call", "ms");
    add("eval.test_score", "%");
    add("models.pretrain_mlm_s", "s");
    add("models.pretrain_same_origin_s", "s");
    add("invda.train_s", "s");
    add("invda.precompute_s", "s");
    add("data.open_source_s", "s");
    add("stream.batch_ms_per_step", "ms");
    add("stream.stall_us.mean", "us");
    add("stream.csv.reopens", "count");
    add("util.prefetcher.consumer_blocked_share", "ratio");
    add("util.prefetcher.producer_blocked_share", "ratio");
    add("util.thread_pool.inline_share", "ratio");
    add("util.thread_pool.chunks_per_parallel_for", "count");
    add("text.encoding_cache.hit_rate", "ratio");
    add("tensor.buffer_pool.reuse_rate", "ratio");
    add("tensor.buffer_pool.cached_mb", "MB");
    for (const char* module :
         {"embedding", "attention", "ffn", "layernorm", "head"}) {
      add(std::string("nn.") + module + ".fwd_us", "us");
      add(std::string("nn.") + module + ".bwd_us", "us");
    }
    add("kernels.gemm_ab.gflops", "GFLOP/s");
    add("kernels.batched_gemm_abt.gflops", "GFLOP/s");
    add("kernels.softmax_rows_us", "us");
    add("kernels.layernorm_rows_us", "us");
    add("quant.qgemm_abt.gops", "GOP/s");
    add("quant.qlinear_us", "us");
    add("serve.light_p99_ms", "ms");
    add("serve.nominal_p50_ms", "ms");
    add("serve.nominal_p99_ms", "ms");
    for (const char* what : {"queue_wait", "compute"}) {
      for (const char* q : {"p50", "p99"}) {
        for (const char* phase : {"light", "nominal"}) {
          add(std::string("serve.") + what + "_ms." + q + "." + phase, "ms");
        }
      }
    }
    for (const char* phase : {"light", "nominal", "saturated"})
      add(std::string("serve.batch_size.mean.") + phase, "count");
    add("serve.shed", "count");
    add("serve.errors", "count");
    add("serve.incorrect", "count");
    add("serve.gen_lag_ms.p99", "ms");
    add("serve.max_qps", "1/s");
    for (const char* precision : {"f32", "int8"}) {
      for (const char* batch : {"b1", "b32"}) {
        add(std::string("session.predict_ms.") + precision + "." + batch,
            "ms");
      }
    }
    add("registry.swap_us.max", "us");
    add("registry.load_ms.mean", "ms");
    add("trace.events", "count");
    add("trace.dropped_events", "count");
    return c;
  }();
  return catalog;
}

MetricSet::MetricSet(const std::vector<Metric>& catalog) : metrics_(catalog) {}

void MetricSet::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = std::isfinite(value) ? value : 0.0;
      return;
    }
  }
  throw std::logic_error("undeclared metric " + name);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + std::strlen("VmHWM:")) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t HashBytes(uint64_t hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace suite
}  // namespace rotom
