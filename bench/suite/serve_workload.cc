// serve_mixed: three tenants behind one TenantServer over a ModelRegistry,
// under open-loop Poisson traffic -- the only workload that exercises
// batching, admission, the registry (mmap publish, hot swap) and int8.
//
// Tenants em / cls / edt (dim 128, 2 layers, ffn 256, max_len 64 / 32 / 16,
// random weights from the seed) each publish v1 f32 from a file (the mmap
// path) and v2 int8 (QuantizeSnapshot); cls serves f32, edt int8, and em is
// swapped f32 <-> int8 every 2 s. Traffic splits 0.5 / 0.3 / 0.2 across the
// tenants; half the texts come from a 256-text hot set per tenant, half are
// never seen before, so the session encoding caches stay half useful.
//
// Phases: warm-up (200 req/s), light (200 req/s, batch ~1: forward
// latency), nominal (600 req/s: a queue forms), saturated (a closed loop
// holding 128 requests in flight: the server's throughput). Traced runs add
// a capacity bisection over [200, 3200] req/s.
//
// Load generator: one submitter thread plus one completion thread per
// tenant. Latency is taken from each request's scheduled send time.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/edt_gen.h"
#include "data/em_gen.h"
#include "data/textcls_gen.h"
#include "rotom/api.h"
#include "suite.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace rotom {
namespace suite {

namespace {

using Ms = std::chrono::duration<double, std::milli>;

constexpr int kHotTexts = 256;
// Fresh texts whose index is a multiple of this are checked against both
// versions' precomputed labels, as are all hot texts.
constexpr size_t kVerifyEvery = 16;
constexpr int kInFlight = 128;       // saturated phase, all tenants together
constexpr double kSwapEvery = 2.0;   // s
constexpr uint64_t kVersionF32 = 1, kVersionInt8 = 2;  // publish order

enum Phase { kWarmup, kLight, kNominal, kSaturated, kPhases };
constexpr const char* kPhaseNames[kPhases] = {"warm-up", "light", "nominal",
                                              "saturated"};

struct TenantSpec {
  const char* name;
  int64_t max_len;
  double share;
};
constexpr TenantSpec kTenants[] = {
    {"em", 64, 0.5}, {"cls", 32, 0.3}, {"edt", 16, 0.2}};
constexpr int kNumTenants = 3;

struct Tenant {
  std::string name;
  std::vector<std::string> hot;
  std::vector<std::string> fresh;
  size_t next_fresh = 0;
  serve::Snapshot f32;
  serve::Snapshot int8;
  std::string f32_path;
  // text -> {label under f32, label under int8}, for verified texts.
  std::unordered_map<std::string, std::pair<int64_t, int64_t>> truth;
};

struct Request {
  int tenant = 0;
  double due_s = 0.0;
  std::string text;
  Clock::time_point sent;
  // Outcome, written by the completion thread.
  Clock::time_point done;
  bool ok = false;
  bool incorrect = false;
};

// Distinct texts from the task generators, as many as `count`; when a
// generator runs dry, texts repeat with a numbered suffix token.
std::vector<std::string> DistinctTexts(const std::vector<std::string>& base,
                                       size_t count) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& t : base) {
    if (out.size() == count) break;
    if (seen.insert(t).second) out.push_back(t);
  }
  for (size_t i = 0; out.size() < count; ++i)
    out.push_back(out[i % seen.size()] + " v" + std::to_string(i));
  return out;
}

std::vector<std::string> GeneratorTexts(int tenant, size_t count,
                                        uint64_t seed) {
  std::vector<std::string> texts;
  if (tenant == 0) {
    data::EmOptions o;
    o.budget = 16;
    o.test_size = 16;
    o.unlabeled_size = static_cast<int64_t>(count);
    o.seed = seed;
    texts = data::MakeEmDataset("dblp_acm", o).unlabeled;
  } else if (tenant == 1) {
    data::TextClsOptions o;
    o.train_size = 16;
    o.test_size = 16;
    o.unlabeled_size = static_cast<int64_t>(count);
    o.seed = seed;
    texts = data::MakeTextClsDataset("ag", o).unlabeled;
  } else {
    data::EdtOptions o;
    o.table_rows = std::max<int64_t>(100, static_cast<int64_t>(count) / 4);
    o.budget = std::min<int64_t>(o.table_rows, static_cast<int64_t>(count));
    o.seed = seed;
    const data::TaskDataset ds = data::MakeEdtDataset("hospital", o);
    for (const auto* split : {&ds.train, &ds.valid, &ds.test})
      for (const auto& e : *split) texts.push_back(e.text);
    texts.insert(texts.end(), ds.unlabeled.begin(), ds.unlabeled.end());
  }
  Rng rng(SplitSeed(seed, 0x74657874 + static_cast<uint64_t>(tenant)));
  rng.Shuffle(texts);
  return DistinctTexts(texts, count);
}

// Random-weight model for one tenant; the vocabulary and IDF come from the
// tenant's texts.
serve::Snapshot MakeSnapshot(int tenant, const std::vector<std::string>& texts,
                             uint64_t seed) {
  std::vector<std::vector<std::string>> docs;
  for (const auto& t : texts) docs.push_back(text::Tokenize(t));
  auto vocab = std::make_shared<text::Vocabulary>(
      text::Vocabulary::BuildFromCorpus(docs, 8192));
  models::ClassifierConfig config;
  config.num_classes = tenant == 1 ? 4 : 2;
  config.max_len = kTenants[tenant].max_len;
  config.dim = 128;
  config.num_heads = 4;
  config.num_layers = 2;
  config.ffn_dim = 256;
  Rng rng(SplitSeed(seed, 0x6d6f64656c + static_cast<uint64_t>(tenant)));
  models::TransformerClassifier model(config, vocab, rng);
  return serve::Snapshot::FromModel(model, text::IdfTable::Build(docs));
}

// The traffic of one phase: Poisson arrival times at `rate` (all zero for
// the closed loop's `closed_count` requests), the tenant of each request
// from the 0.5/0.3/0.2 mix, and a hot or fresh text. `salt` separates the
// random streams of phases.
std::vector<Request> PlanPhase(uint64_t salt, double rate,
                               double duration, size_t closed_count,
                               uint64_t seed, std::vector<Tenant>* tenants) {
  const uint64_t phase_seed = SplitSeed(seed, 0x706861 + salt);
  std::vector<double> due =
      rate > 0.0 ? PoissonSchedule(rate, duration, phase_seed)
                 : std::vector<double>(closed_count, 0.0);
  Rng rng(SplitSeed(phase_seed, 1));
  std::vector<Request> plan(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    Request& r = plan[i];
    r.due_s = due[i];
    const double u = rng.Uniform();
    r.tenant = u < kTenants[0].share ? 0
               : u < kTenants[0].share + kTenants[1].share ? 1 : 2;
    Tenant& t = (*tenants)[static_cast<size_t>(r.tenant)];
    if (rng.Bernoulli(0.5)) {
      r.text = t.hot[static_cast<size_t>(rng.UniformInt(kHotTexts))];
    } else {
      r.text = t.fresh[t.next_fresh % t.fresh.size()];
      if (t.next_fresh >= t.fresh.size())
        r.text += " n" + std::to_string(t.next_fresh);
      ++t.next_fresh;
    }
  }
  return plan;
}

// Drives requests at a TenantServer: the caller's thread submits, one
// completion thread per tenant waits on that tenant's futures in order
// (each tenant's queue is served FIFO) and checks every answer.
class LoadGenerator {
 public:
  LoadGenerator(serve::TenantServer* server, std::vector<Tenant>* tenants)
      : server_(server), tenants_(tenants) {
    for (int t = 0; t < kNumTenants; ++t)
      threads_.emplace_back([this, t] { CompletionLoop(t); });
  }
  ~LoadGenerator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& thread : threads_) thread.join();
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void Submit(Request* r) {
    r->sent = Clock::now();
    auto future = server_->Submit(kTenants[r->tenant].name, r->text);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++in_flight_;
      pending_[r->tenant].push_back({r, std::move(future)});
    }
    cv_.notify_all();
  }

  /// Blocks until at most `limit` requests are in flight.
  void WaitInFlightAtMost(int limit) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return in_flight_ <= limit; });
  }

  int in_flight() {
    std::lock_guard<std::mutex> lock(mu_);
    return in_flight_;
  }

 private:
  struct Pending {
    Request* request;
    std::future<StatusOr<serve::Prediction>> future;
  };

  void CompletionLoop(int tenant) {
    while (true) {
      Pending item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !pending_[tenant].empty(); });
        if (pending_[tenant].empty()) return;
        item = std::move(pending_[tenant].front());
        pending_[tenant].pop_front();
      }
      StatusOr<serve::Prediction> result = item.future.get();
      Request* r = item.request;
      r->done = Clock::now();
      r->ok = result.ok();
      if (r->ok) {
        const Tenant& t = (*tenants_)[static_cast<size_t>(tenant)];
        auto it = t.truth.find(r->text);
        const int64_t label = result.value().label;
        const auto classes =
            static_cast<int64_t>(result.value().probs.size());
        r->incorrect = it != t.truth.end()
                           ? label != it->second.first &&
                                 label != it->second.second
                           : label < 0 || label >= classes;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        --in_flight_;
      }
      done_cv_.notify_all();
    }
  }

  serve::TenantServer* server_;
  std::vector<Tenant>* tenants_;
  std::mutex mu_;
  std::condition_variable cv_;       // work for completion threads
  std::condition_variable done_cv_;  // a request finished
  std::deque<Pending> pending_[kNumTenants];
  int in_flight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

struct ServeStack {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::TenantServer> server;
};

struct PhaseStats {
  std::vector<double> latency_ms;
  std::vector<double> tenant_latency_ms[kNumTenants];
  std::vector<Clock::time_point> done;
  std::vector<double> lag_ms;
  int64_t requests = 0, ok = 0, incorrect = 0;
  double batches = 0.0;
};

// Completion rate of a closed-loop phase: the median over `chunks` runs of
// consecutive completions, so a transient stall or the ramp-up at the start
// moves one chunk, not the result.
double MedianChunkRate(std::vector<Clock::time_point> done, size_t chunks) {
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  const size_t per_chunk = done.size() / chunks;
  for (size_t c = 0; per_chunk > 0 && c < chunks; ++c) {
    const size_t first = c * per_chunk, last = first + per_chunk;
    const double s =
        std::chrono::duration<double>(done[last - 1] - done[first]).count();
    if (s > 0.0) rates.push_back(static_cast<double>(per_chunk - 1) / s);
  }
  return Median(rates);
}

}  // namespace

StatusOr<std::vector<int64_t>> PredictLabels(
    const serve::Snapshot& snapshot, const std::vector<std::string>& texts) {
  serve::InferenceSession::Options options;
  options.cache_rows = 0;
  auto session = serve::InferenceSession::Create(snapshot, options);
  if (!session.ok()) return session.status();
  std::vector<int64_t> labels;
  for (size_t i = 0; i < texts.size(); i += 32) {
    const size_t n = std::min<size_t>(32, texts.size() - i);
    for (const auto& p : session.value()->PredictBatch(
             std::span<const std::string>(texts.data() + i, n)))
      labels.push_back(p.label);
  }
  return labels;
}

WorkloadOutput RunServeMixed(const RunConfig& config) {
  WorkloadOutput out;
  const bool smoke = config.smoke;
  const double seconds = config.seconds;
  BenchTracer tracer(config.trace);

  // ---- Inputs: texts, models, the traffic plan, ground-truth labels ----
  const double warmup_s = smoke ? 0.3 : 1.0;
  const double light_s = 0.35 * seconds, nominal_s = 0.35 * seconds;
  const size_t saturated_count = static_cast<size_t>(300.0 * seconds);
  std::vector<Tenant> tenants(kNumTenants);
  // Fresh texts: the planned phases draw at most this many per tenant.
  const size_t fresh_budget =
      static_cast<size_t>(0.6 * (200.0 * (warmup_s + light_s) +
                                 600.0 * nominal_s + saturated_count)) + 64;
  for (int t = 0; t < kNumTenants; ++t) {
    Tenant& tenant = tenants[static_cast<size_t>(t)];
    tenant.name = kTenants[t].name;
    std::vector<std::string> texts = GeneratorTexts(
        t, kHotTexts + static_cast<size_t>(kTenants[t].share * fresh_budget),
        config.seed);
    tenant.hot.assign(texts.begin(), texts.begin() + kHotTexts);
    tenant.fresh.assign(texts.begin() + kHotTexts, texts.end());
    tenant.f32 = MakeSnapshot(t, texts, config.seed);
    auto quantized = serve::QuantizeSnapshot(tenant.f32);
    if (!quantized.ok()) throw std::runtime_error(quantized.status().message());
    tenant.int8 = std::move(quantized).value();
    tenant.f32_path = config.work_dir + "/" + tenant.name + "_f32.rsnap";
    if (Status s = tenant.f32.Save(tenant.f32_path); !s.ok())
      throw std::runtime_error(s.message());
    for (const auto& text : texts)
      out.input_hash = HashBytes(out.input_hash, text);
  }
  std::vector<Request> plan[kPhases];
  plan[kWarmup] =
      PlanPhase(kWarmup, 200.0, warmup_s, 0, config.seed, &tenants);
  plan[kLight] =
      PlanPhase(kLight, 200.0, light_s, 0, config.seed, &tenants);
  plan[kNominal] =
      PlanPhase(kNominal, 600.0, nominal_s, 0, config.seed, &tenants);
  plan[kSaturated] = PlanPhase(kSaturated, 0.0, 0.0,
                               saturated_count, config.seed, &tenants);
  for (const auto& phase : plan) {
    for (const auto& r : phase)
      out.input_hash = HashBytes(out.input_hash, std::to_string(r.due_s));
  }
  for (Tenant& tenant : tenants) {
    std::vector<std::string> verify = tenant.hot;
    for (size_t i = 0; i < std::min(tenant.next_fresh, tenant.fresh.size());
         i += kVerifyEvery)
      verify.push_back(tenant.fresh[i]);
    // Separate sessions, so the served sessions' caches stay cold.
    auto f32 = PredictLabels(tenant.f32, verify);
    auto int8 = PredictLabels(tenant.int8, verify);
    if (!f32.ok() || !int8.ok())
      throw std::runtime_error("ground-truth labels: session build failed");
    for (size_t i = 0; i < verify.size(); ++i)
      tenant.truth[verify[i]] = {f32.value()[i], int8.value()[i]};
  }

  // ---- Set-up, repeated: publish all six versions, start the server ----
  std::vector<double> setup_s, load_ms;
  ServeStack stack;
  for (int rep = 0; rep < (smoke ? 2 : 9); ++rep) {
    stack = ServeStack();
    const auto t0 = Clock::now();
    stack.registry = std::make_unique<serve::ModelRegistry>();
    std::vector<Clock::time_point> marks;
    for (Tenant& tenant : tenants) {
      marks.push_back(Clock::now());
      auto v1 = stack.registry->Publish(tenant.name, tenant.f32_path);
      marks.push_back(Clock::now());
      auto q = serve::QuantizeSnapshot(tenant.f32);
      auto v2 = q.ok() ? stack.registry->Publish(tenant.name, q.value())
                       : StatusOr<uint64_t>(q.status());
      if (!v1.ok() || !v2.ok() || v2.value() != kVersionInt8) {
        throw std::runtime_error("publish failed for " + tenant.name);
      }
      load_ms.push_back(Ms(marks.back() - marks[marks.size() - 2]).count());
    }
    marks.push_back(Clock::now());
    if (!stack.registry->Swap("edt", kVersionInt8).ok())
      throw std::runtime_error("swap failed");
    std::vector<std::string> names;
    for (const auto& spec : kTenants) names.push_back(spec.name);
    stack.server = std::make_unique<serve::TenantServer>(stack.registry.get(),
                                                         names);
    const auto t1 = Clock::now();
    setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    const uint64_t setup_span = tracer.Add("set-up", t0, t1);
    for (size_t i = 0; i + 1 < marks.size(); i += 2) {
      tracer.Add("ModelRegistry::Publish(path)", marks[i], marks[i + 1],
                 setup_span);
      tracer.Add("QuantizeSnapshot + Publish", marks[i + 1], marks[i + 2],
                 setup_span);
    }
  }

  // ---- Traffic ----
  ProgramTrace trace(config.trace,
                     config.trace_dir + "/serve_mixed.program.json");
  PhaseStats stats[kPhases];
  ObsView phase_delta[kPhases];
  std::vector<double> swap_us;
  bool em_on_int8 = false;
  uint64_t request_seq = 0;
  auto stats_of = [&](const std::string& name) {
    return stack.server->GetStats(name);
  };
  auto total_batches = [&] {
    double b = 0.0;
    for (const auto& spec : kTenants)
      b += static_cast<double>(stats_of(spec.name).batches);
    return b;
  };
  ObsView measured_before;
  {
    LoadGenerator load(stack.server.get(), &tenants);
    for (int phase = kWarmup; phase <= kSaturated; ++phase) {
      if (phase == kLight) measured_before = ObsView::Now();
      const ObsView before = ObsView::Now();
      const double batches_before = total_batches();
      std::vector<Request>& requests = plan[phase];
      const auto start = Clock::now();
      if (phase == kSaturated) {
        for (Request& r : requests) {
          load.WaitInFlightAtMost(kInFlight - 1);
          load.Submit(&r);
        }
      } else {
        double next_swap = kSwapEvery;
        stats[phase].lag_ms = DriveOpenLoop(
            [&] {
              std::vector<double> due;
              for (const auto& r : requests) due.push_back(r.due_s);
              return due;
            }(),
            start, [&](size_t i) {
              if (phase != kWarmup && SecondsSince(start) >= next_swap) {
                next_swap += kSwapEvery;
                em_on_int8 = !em_on_int8;
                const auto s0 = Clock::now();
                const Status s = stack.registry->Swap(
                    "em", em_on_int8 ? kVersionInt8 : kVersionF32);
                const auto s1 = Clock::now();
                swap_us.push_back(
                    std::chrono::duration<double, std::micro>(s1 - s0).count());
                tracer.Add("ModelRegistry::Swap", s0, s1);
                if (!s.ok()) out.errors.push_back("swap: " + s.message());
              }
              load.Submit(&requests[i]);
            });
      }
      load.WaitInFlightAtMost(0);
      PhaseStats& ps = stats[phase];
      ps.batches = total_batches() - batches_before;
      phase_delta[phase] = ObsView::Delta(before, ObsView::Now());
      trace.Collect();
      Clock::time_point last_done = start;
      for (const Request& r : requests) last_done = std::max(last_done, r.done);
      const uint64_t phase_span =
          tracer.Add(kPhaseNames[phase], start, last_done);
      for (const Request& r : requests) {
        ++ps.requests;
        ps.ok += r.ok ? 1 : 0;
        ps.incorrect += r.incorrect ? 1 : 0;
        ps.latency_ms.push_back(DueLatencyMs(start, r.due_s, r.done));
        ps.tenant_latency_ms[r.tenant].push_back(ps.latency_ms.back());
        ps.done.push_back(r.done);
        tracer.Add("TenantServer::Submit -> result", r.sent, r.done, phase_span,
                   ++request_seq);
      }
    }
  }
  const ObsView measured =
      ObsView::Delta(measured_before, ObsView::Now());

  int64_t shed_or_error = 0, incorrect = 0;
  for (int phase = kWarmup; phase <= kSaturated; ++phase) {
    const PhaseStats& ps = stats[phase];
    out.attempted += ps.requests;
    out.failed += (ps.requests - ps.ok) + ps.incorrect;
    shed_or_error += ps.requests - ps.ok;
    incorrect += ps.incorrect;
  }
  if (out.failed > 0) {
    out.errors.push_back(std::to_string(shed_or_error) + " requests failed, " +
                         std::to_string(incorrect) + " answered incorrectly");
  }

  out.e2e.Set("setup_s", Median(setup_s));
  out.e2e.Set("throughput_per_s",
              MedianChunkRate(stats[kSaturated].done, smoke ? 2 : 8));
  // The light-rate median of each tenant, weighted by its traffic share:
  // the pooled median would sit on the boundary between the em requests
  // and the shorter ones, and jump with the mix of a run.
  double weighted_p50 = 0.0;
  for (int t = 0; t < kNumTenants; ++t)
    weighted_p50 +=
        kTenants[t].share * Median(stats[kLight].tenant_latency_ms[t]);
  out.e2e.Set("latency_p50_ms", weighted_p50);
  out.e2e.Set("peak_rss_mb", PeakRssMb());
  if (!config.trace) {
    stack.server->Shutdown();
    return out;
  }

  // ---- Traced run only: per-layer metrics, capacity bisection, probes ----
  MetricSet& layer = out.layer;
  SetCommonLayerMetrics(measured, ObsView::Now(), &layer);
  for (int phase : {kLight, kNominal}) {
    const PercentileReport report = ReportPercentiles(stats[phase].latency_ms);
    std::fprintf(stderr,
                 "serve_mixed %s latency: n=%zu p50=%.3f ms p%g=%.3f ms\n",
                 kPhaseNames[phase], report.n, report.p50,
                 100.0 * report.tail_q, report.tail);
    if (!smoke && report.tail_q < 0.99)
      out.errors.push_back("too few samples for a p99 in the " +
                           std::string(kPhaseNames[phase]) + " phase");
  }
  layer.Set("serve.light_p99_ms", Quantile(stats[kLight].latency_ms, 0.99));
  layer.Set("serve.nominal_p50_ms", Median(stats[kNominal].latency_ms));
  layer.Set("serve.nominal_p99_ms", Quantile(stats[kNominal].latency_ms, 0.99));
  for (int phase : {kLight, kNominal}) {
    const std::string suffix = phase == kLight ? ".light" : ".nominal";
    for (const char* what : {"queue_wait", "compute"}) {
      const std::string hist = std::string("serve.") + what + "_us";
      layer.Set(std::string("serve.") + what + "_ms.p50" + suffix,
                phase_delta[phase].HistPercentile(hist, 0.5) / 1000.0);
      layer.Set(std::string("serve.") + what + "_ms.p99" + suffix,
                phase_delta[phase].HistPercentile(hist, 0.99) / 1000.0);
    }
  }
  for (int phase : {kLight, kNominal, kSaturated}) {
    const PhaseStats& ps = stats[phase];
    layer.Set(std::string("serve.batch_size.mean.") + kPhaseNames[phase],
              ps.batches > 0.0 ? static_cast<double>(ps.requests) / ps.batches
                               : 0.0);
  }
  double rejected = 0.0;
  for (const auto& spec : kTenants)
    rejected += static_cast<double>(stats_of(spec.name).rejected);
  layer.Set("serve.shed", rejected);
  layer.Set("serve.errors", static_cast<double>(shed_or_error) - rejected);
  layer.Set("serve.incorrect", static_cast<double>(incorrect));
  std::vector<double> lag = stats[kLight].lag_ms;
  const std::vector<double>& nominal_lag = stats[kNominal].lag_ms;
  lag.insert(lag.end(), nominal_lag.begin(), nominal_lag.end());
  layer.Set("serve.gen_lag_ms.p99", Quantile(lag, 0.99));
  layer.Set("registry.swap_us.max",
            swap_us.empty()
                ? 0.0
                : *std::max_element(swap_us.begin(), swap_us.end()));
  layer.Set("registry.load_ms.mean",
            std::accumulate(load_ms.begin(), load_ms.end(), 0.0) /
                static_cast<double>(load_ms.size()));
  int64_t verified = 0;
  for (int phase = kLight; phase <= kSaturated; ++phase) {
    for (const Request& r : plan[phase])
      verified += tenants[static_cast<size_t>(r.tenant)].truth.count(r.text);
  }
  layer.Set("eval.test_score",
            verified > 0 ? 100.0 * (1.0 - static_cast<double>(incorrect) /
                                              static_cast<double>(verified))
                         : 0.0);

  // Capacity: the highest probed rate with p99 <= 25 ms, no failed or
  // incorrect answer, and a backlog under 0.5 s of arrivals when the last
  // request of the probe is sent.
  {
    const double probe_s = smoke ? 0.4 : 1.5;
    int probe_index = 0;
    std::vector<std::vector<Request>> probes;
    LoadGenerator load(stack.server.get(), &tenants);
    const double max_qps = BisectCapacity(
        200.0, 3200.0, smoke ? 3 : 5, [&](double rate) {
          probes.push_back(PlanPhase(kPhases + ++probe_index, rate,
                                     probe_s, 0, config.seed, &tenants));
          std::vector<Request>& requests = probes.back();
          std::vector<double> due;
          for (const auto& r : requests) due.push_back(r.due_s);
          const auto start = Clock::now();
          DriveOpenLoop(due, start,
                        [&](size_t i) { load.Submit(&requests[i]); });
          const int backlog = load.in_flight();
          load.WaitInFlightAtMost(0);
          trace.Collect();
          std::vector<double> latency;
          bool clean = true;
          for (const Request& r : requests) {
            latency.push_back(DueLatencyMs(start, r.due_s, r.done));
            clean = clean && r.ok && !r.incorrect;
          }
          return clean && backlog < 0.5 * rate &&
                 Quantile(latency, 0.99) <= 25.0;
        });
    layer.Set("serve.max_qps", max_qps);
  }
  stack.server->Shutdown();

  // Session probes on the em tenant: one text, and a full batch.
  for (const bool int8 : {false, true}) {
    const Tenant& em = tenants[0];
    auto session = serve::InferenceSession::Create(int8 ? em.int8 : em.f32);
    if (!session.ok()) throw std::runtime_error(session.status().message());
    const std::string precision = int8 ? "int8" : "f32";
    for (const size_t batch : {size_t{1}, size_t{32}}) {
      std::vector<double> ms;
      const std::span<const std::string> texts(em.hot.data(), batch);
      for (int rep = 0; rep < (smoke ? 3 : 40); ++rep) {
        const auto t0 = Clock::now();
        session.value()->PredictBatch(texts);
        if (rep > 0) ms.push_back(Ms(Clock::now() - t0).count());
      }
      layer.Set(
          "session.predict_ms." + precision + ".b" + std::to_string(batch),
          Median(ms));
    }
  }
  ProbeShape shape;
  shape.batch = 32;
  shape.seq = kTenants[0].max_len;
  shape.dim = 128;
  shape.heads = 4;
  shape.ffn = 256;
  shape.classes = 2;
  shape.vocab = tenants[0].f32.vocab->size();
  shape.train = false;
  shape.quant = true;
  ProbeLayers(shape, smoke, &layer);
  SetTraceCounts(trace, &layer);
  tracer.WriteChromeJson(config.trace_dir + "/serve_mixed.bench.json");
  return out;
}

}  // namespace suite
}  // namespace rotom
