// rotom_inspect: operator console for the flight recorders — the training
// run logs (obs/runlog.h) and the serve logs (obs/servelog.h). Reads the
// append-only JSONL streams and answers the questions the raw stream is too
// noisy for:
//
//   rotom_inspect summary <run.jsonl>        one-screen digest: manifest,
//                                            loss/grad-norm/keep-rate stats,
//                                            per-operator selection counts
//   rotom_inspect serve <serve.jsonl>        serve-log digest: manifest(s),
//                                            per-tenant request/shed/latency
//                                            columns with SLO standing, swap
//                                            count
//   rotom_inspect tail <log.jsonl> [n] [--follow]
//                                            last n events, raw (default
//                                            10); --follow then polls the
//                                            file and streams appended
//                                            lines, tail -f style (works on
//                                            run logs and serve logs alike)
//   rotom_inspect diff <runA> <runB>         per-operator and grad-norm
//                                            deltas between two runs
//   rotom_inspect selftest                   writes a synthetic run log and
//                                            a synthetic serve log via the
//                                            real writers and verifies the
//                                            parsers round-trip them (ctest)
//   rotom_inspect --list-ops                 prints the registered DA
//                                            operator names, one per line
//                                            (scripts/check_obs_docs.sh uses
//                                            this to police the op catalog)
//
// Grad-norm percentiles are computed through obs::Histogram +
// obs::HistogramPercentile (values scaled to integer micro-units), i.e. the
// same interpolated log2-bucket estimator the BENCH_*.json metrics section
// uses — so numbers here are directly comparable with bench output.
//
// The parser is deliberately minimal: run-log events are flat one-line JSON
// objects (obs/runlog.cc renders them; OBSERVABILITY.md "Run logs" is the
// schema), so a full JSON library is unnecessary. A final line truncated by
// a crash mid-write is skipped, as the schema contract requires.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "augment/registry.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/servelog.h"

namespace {

using rotom::obs::Histogram;
using rotom::obs::HistogramPercentile;
using rotom::obs::MetricKind;
using rotom::obs::MetricSnapshot;

// ---- Flat JSONL parsing ----

using Fields = std::vector<std::pair<std::string, std::string>>;

// Parses one flat `{"key": value, ...}` line into (key, raw-value) pairs;
// string values are unescaped, numbers/booleans kept as written. Returns
// false on malformed input (e.g. a line truncated by a crash).
bool ParseFlatLine(const std::string& line, Fields* out) {
  out->clear();
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  auto read_string = [&](std::string* s) -> bool {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    s->clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) {
        ++i;
        switch (line[i]) {
          case 'n': *s += '\n'; break;
          case 't': *s += '\t'; break;
          case 'u':
            i += 4;  // \uXXXX: control char, drop it
            break;
          default: *s += line[i];
        }
      } else {
        *s += line[i];
      }
      ++i;
    }
    if (i >= line.size()) return false;  // unterminated: truncated line
    ++i;                                 // closing quote
    return true;
  };
  while (true) {
    skip_ws();
    if (i < line.size() && line[i] == '}') return true;
    std::string key, value;
    if (!read_string(&key)) return false;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_ws();
    if (i < line.size() && line[i] == '"') {
      if (!read_string(&value)) return false;
    } else {
      while (i < line.size() && line[i] != ',' && line[i] != '}') {
        value += line[i];
        ++i;
      }
      while (!value.empty() && value.back() == ' ') value.pop_back();
      if (value.empty()) return false;
    }
    out->emplace_back(std::move(key), std::move(value));
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') return true;
    return false;
  }
}

const std::string* Find(const Fields& fields, const char* key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double GetDouble(const Fields& fields, const char* key, double fallback) {
  const std::string* v = Find(fields, key);
  return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
}

int64_t GetInt(const Fields& fields, const char* key, int64_t fallback) {
  const std::string* v = Find(fields, key);
  return v == nullptr ? fallback : std::atoll(v->c_str());
}

// ---- Loaded run ----

struct StepRecord {
  int64_t step = 0;
  int64_t epoch = 0;
  double loss = 0.0;
  double lr = 0.0;
  double grad_norm = -1.0;
  double keep_rate = -1.0;
  bool has_weights = false;
  double weight_min = 0.0, weight_mean = 0.0, weight_max = 0.0;
  std::map<std::string, int64_t> op_counts;   // `op.<name>`: kept
  std::map<std::string, int64_t> op_offered;  // `gen.<name>`: generated
};

struct EpochRecord {
  int64_t epoch = 0;
  double valid_metric = 0.0;
  double keep_fraction = -1.0;
};

struct RunData {
  std::string path;
  Fields manifest;
  std::vector<StepRecord> steps;
  std::vector<EpochRecord> epochs;
  bool has_end = false;
  double end_seconds = 0.0;
  std::vector<int> signals;
  bool fatal = false;
  std::string fatal_reason;
  int64_t skipped_lines = 0;  // malformed (e.g. crash-truncated) lines
};

bool LoadRun(const std::string& path, RunData* run) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rotom_inspect: cannot open %s\n", path.c_str());
    return false;
  }
  run->path = path;
  std::string line;
  Fields fields;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!ParseFlatLine(line, &fields)) {
      ++run->skipped_lines;
      continue;
    }
    const std::string* event = Find(fields, "event");
    if (event == nullptr) {
      ++run->skipped_lines;
      continue;
    }
    if (*event == "manifest") {
      run->manifest = fields;
    } else if (*event == "step") {
      StepRecord s;
      s.step = GetInt(fields, "step", 0);
      s.epoch = GetInt(fields, "epoch", 0);
      s.loss = GetDouble(fields, "loss", 0.0);
      s.lr = GetDouble(fields, "lr", 0.0);
      s.grad_norm = GetDouble(fields, "grad_norm", -1.0);
      s.keep_rate = GetDouble(fields, "keep_rate", -1.0);
      if (Find(fields, "weight_mean") != nullptr) {
        s.has_weights = true;
        s.weight_min = GetDouble(fields, "weight_min", 0.0);
        s.weight_mean = GetDouble(fields, "weight_mean", 0.0);
        s.weight_max = GetDouble(fields, "weight_max", 0.0);
      }
      for (const auto& [k, v] : fields) {
        if (k.rfind("op.", 0) == 0) {
          s.op_counts[k.substr(3)] = std::atoll(v.c_str());
        } else if (k.rfind("gen.", 0) == 0) {
          s.op_offered[k.substr(4)] = std::atoll(v.c_str());
        }
      }
      run->steps.push_back(std::move(s));
    } else if (*event == "epoch") {
      EpochRecord e;
      e.epoch = GetInt(fields, "epoch", 0);
      e.valid_metric = GetDouble(fields, "valid_metric", 0.0);
      e.keep_fraction = GetDouble(fields, "keep_fraction", -1.0);
      run->epochs.push_back(e);
    } else if (*event == "end") {
      run->has_end = true;
      run->end_seconds = GetDouble(fields, "seconds", 0.0);
    } else if (*event == "signal") {
      run->signals.push_back(static_cast<int>(GetInt(fields, "signo", 0)));
    } else if (*event == "fatal") {
      run->fatal = true;
      const std::string* reason = Find(fields, "reason");
      if (reason != nullptr) run->fatal_reason = *reason;
    }
  }
  return true;
}

// ---- Aggregation ----

// Scale for feeding fractional quantities (grad norms) into the integer
// log2-bucket histogram: micro-units keep 6 digits below 1.0.
constexpr double kMicro = 1e6;

// Snapshot of a local histogram, ready for HistogramPercentile.
MetricSnapshot SnapshotOf(const Histogram& hist) {
  MetricSnapshot snap;
  snap.kind = MetricKind::kHistogram;
  snap.count = hist.Count();
  snap.sum = hist.Sum();
  const auto buckets = hist.BucketCounts();
  snap.buckets.assign(buckets.begin(), buckets.end());
  return snap;
}

struct GradNormStats {
  int64_t count = 0;
  double min = 0.0, mean = 0.0, max = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

GradNormStats ComputeGradNormStats(const std::vector<StepRecord>& steps) {
  GradNormStats out;
  Histogram hist;
  double sum = 0.0;
  for (const auto& s : steps) {
    if (s.grad_norm < 0.0) continue;
    if (out.count == 0) out.min = out.max = s.grad_norm;
    out.min = std::min(out.min, s.grad_norm);
    out.max = std::max(out.max, s.grad_norm);
    sum += s.grad_norm;
    hist.Record(static_cast<uint64_t>(s.grad_norm * kMicro));
    ++out.count;
  }
  if (out.count == 0) return out;
  out.mean = sum / static_cast<double>(out.count);
  const MetricSnapshot snap = SnapshotOf(hist);
  out.p50 = HistogramPercentile(snap, 0.50) / kMicro;
  out.p95 = HistogramPercentile(snap, 0.95) / kMicro;
  out.p99 = HistogramPercentile(snap, 0.99) / kMicro;
  return out;
}

std::map<std::string, int64_t> TotalOpCounts(
    const std::vector<StepRecord>& steps) {
  std::map<std::string, int64_t> out;
  for (const auto& s : steps) {
    for (const auto& [op, count] : s.op_counts) out[op] += count;
  }
  return out;
}

// Totals of the `gen.<name>` (offered, pre-filter) counters. Empty on logs
// written before the counter existed; CmdSummary degrades gracefully.
std::map<std::string, int64_t> TotalOfferedCounts(
    const std::vector<StepRecord>& steps) {
  std::map<std::string, int64_t> out;
  for (const auto& s : steps) {
    for (const auto& [op, count] : s.op_offered) out[op] += count;
  }
  return out;
}

double MeanKeepRate(const std::vector<StepRecord>& steps) {
  double sum = 0.0;
  int64_t n = 0;
  for (const auto& s : steps) {
    if (s.keep_rate < 0.0) continue;
    sum += s.keep_rate;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

// ---- Commands ----

int CmdSummary(const std::string& path) {
  RunData run;
  if (!LoadRun(path, &run)) return 1;
  std::printf("run: %s\n", run.path.c_str());
  for (const auto& [k, v] : run.manifest) {
    if (k == "event") continue;
    std::printf("  %-20s %s\n", k.c_str(), v.c_str());
  }
  std::printf("steps: %zu   epochs: %zu%s\n", run.steps.size(),
              run.epochs.size(), run.has_end ? "" : "   (no end event)");
  if (run.skipped_lines > 0) {
    std::printf("skipped %lld malformed line(s) (crash-truncated?)\n",
                static_cast<long long>(run.skipped_lines));
  }
  for (int signo : run.signals) {
    std::printf("!! run died on signal %d\n", signo);
  }
  if (run.fatal) {
    std::printf("!! fatal: %s\n", run.fatal_reason.c_str());
  }
  if (run.steps.empty()) return 0;

  std::printf("loss: first %.6g   final %.6g\n", run.steps.front().loss,
              run.steps.back().loss);
  const GradNormStats g = ComputeGradNormStats(run.steps);
  if (g.count > 0) {
    std::printf(
        "grad_norm: min %.4g  mean %.4g  max %.4g   "
        "p50 %.4g  p95 %.4g  p99 %.4g\n",
        g.min, g.mean, g.max, g.p50, g.p95, g.p99);
  }
  const double keep = MeanKeepRate(run.steps);
  if (keep >= 0.0) std::printf("filter keep-rate (mean/step): %.4f\n", keep);
  const StepRecord& last = run.steps.back();
  if (last.has_weights) {
    std::printf("weights (last step): min %.4f  mean %.4f  max %.4f\n",
                last.weight_min, last.weight_mean, last.weight_max);
  }
  const auto ops = TotalOpCounts(run.steps);
  const auto offered = TotalOfferedCounts(run.steps);
  if (!ops.empty() || !offered.empty()) {
    // Every operator that was ever offered or kept gets a row; kept-count
    // descending. With `gen.` counters present, a per-operator keep-rate
    // column (kept/offered) shows which operators the filter trusts.
    std::map<std::string, int64_t> merged = ops;
    for (const auto& [op, count] : offered) merged.emplace(op, 0);
    int64_t total = 0;
    for (const auto& [op, count] : merged) total += count;
    std::vector<std::pair<std::string, int64_t>> sorted(merged.begin(),
                                                        merged.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::printf("kept candidates by operator (%lld total):\n",
                static_cast<long long>(total));
    for (const auto& [op, count] : sorted) {
      std::printf("  %-16s %8lld  (%.1f%%)", op.c_str(),
                  static_cast<long long>(count),
                  total > 0 ? 100.0 * static_cast<double>(count) /
                                  static_cast<double>(total)
                            : 0.0);
      const auto it = offered.find(op);
      if (it != offered.end() && it->second > 0) {
        std::printf("  keep-rate %.3f (%lld offered)",
                    static_cast<double>(count) /
                        static_cast<double>(it->second),
                    static_cast<long long>(it->second));
      }
      std::printf("\n");
    }
  }
  for (const auto& e : run.epochs) {
    std::printf("epoch %lld: valid %.4f", static_cast<long long>(e.epoch),
                e.valid_metric);
    if (e.keep_fraction >= 0.0)
      std::printf("  keep_fraction %.4f", e.keep_fraction);
    std::printf("\n");
  }
  if (run.has_end && run.end_seconds > 0.0) {
    std::printf("wall: %.2fs   %.2f steps/s\n", run.end_seconds,
                static_cast<double>(run.steps.size()) / run.end_seconds);
  }
  return 0;
}

// ---- Serve logs (obs/servelog.h, rotom-servelog-v1) ----

// Per-tenant rollup of one serve log. Logs from older builds carry request
// events with no `tenant` field (a single-model server); those land under
// the display name "-".
struct ServeTenantStats {
  int64_t sampled = 0;           // request events seen (1-in-`sample`)
  int64_t sheds = 0;             // shed events
  int64_t windows = 0;           // SLO window rollups
  std::vector<int64_t> total_us;  // sampled end-to-end latencies
  double queue_sum = 0.0;        // sum of sampled queue_us
  double total_sum = 0.0;        // sum of sampled total_us
  int64_t last_p99_us = -1;      // from the most recent window event
  int64_t slo_violations = -1;   // cumulative, from the most recent window
  int64_t budget_remaining = 0;  // may be negative (budget overspent)
  bool has_budget = false;
};

struct ServeRun {
  std::string path;
  std::vector<Fields> manifests;  // one per server writing this log
  std::map<std::string, ServeTenantStats> tenants;
  int64_t swaps = 0;
  int64_t skipped_lines = 0;
};

bool LoadServe(const std::string& path, ServeRun* run) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rotom_inspect: cannot open %s\n", path.c_str());
    return false;
  }
  run->path = path;
  std::string line;
  Fields fields;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!ParseFlatLine(line, &fields)) {
      ++run->skipped_lines;
      continue;
    }
    const std::string* event = Find(fields, "event");
    if (event == nullptr) {
      ++run->skipped_lines;
      continue;
    }
    const std::string* tenant = Find(fields, "tenant");
    const std::string key = tenant == nullptr ? std::string("-") : *tenant;
    if (*event == "manifest") {
      run->manifests.push_back(fields);
    } else if (*event == "request") {
      ServeTenantStats& t = run->tenants[key];
      ++t.sampled;
      const int64_t total = GetInt(fields, "total_us", 0);
      t.total_us.push_back(total);
      t.total_sum += static_cast<double>(total);
      t.queue_sum += static_cast<double>(GetInt(fields, "queue_us", 0));
    } else if (*event == "shed") {
      ++run->tenants[key].sheds;
    } else if (*event == "window") {
      ServeTenantStats& t = run->tenants[key];
      ++t.windows;
      t.last_p99_us = GetInt(fields, "p99_us", -1);
      t.slo_violations = GetInt(fields, "slo_violations", -1);
      t.budget_remaining = GetInt(fields, "budget_remaining", 0);
      t.has_budget = true;
    } else if (*event == "swap") {
      ++run->swaps;
    }
    // signal events (crash handler) and unknown future events fall through:
    // the schema is append-only, old readers skip what they don't know.
  }
  return true;
}

// Exact percentile of the sampled latencies (the sample is small enough
// that sorting beats the log2-bucket estimator's quantization).
int64_t ExactPercentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(idx), values.end());
  return values[idx];
}

int CmdServe(const std::string& path) {
  ServeRun run;
  if (!LoadServe(path, &run)) return 1;
  std::printf("servelog: %s\n", run.path.c_str());
  for (const auto& manifest : run.manifests) {
    std::printf("manifest:");
    for (const auto& [k, v] : manifest) {
      if (k == "event") continue;
      std::printf(" %s=%s", k.c_str(), v.c_str());
    }
    std::printf("\n");
  }
  if (run.skipped_lines > 0) {
    std::printf("skipped %lld malformed line(s) (crash-truncated?)\n",
                static_cast<long long>(run.skipped_lines));
  }
  if (run.tenants.empty()) {
    std::printf("no request/shed/window events\n");
  } else {
    std::printf("%-12s %8s %8s %8s %8s %8s %9s %8s\n", "tenant", "sampled",
                "p50_us", "p99_us", "shed", "windows", "slo_viol", "budget");
    for (const auto& [name, t] : run.tenants) {
      std::printf("%-12s %8lld %8lld %8lld %8lld %8lld",
                  name.c_str(), static_cast<long long>(t.sampled),
                  static_cast<long long>(ExactPercentile(t.total_us, 0.50)),
                  static_cast<long long>(ExactPercentile(t.total_us, 0.99)),
                  static_cast<long long>(t.sheds),
                  static_cast<long long>(t.windows));
      if (t.has_budget) {
        std::printf(" %9lld %8lld", static_cast<long long>(t.slo_violations),
                    static_cast<long long>(t.budget_remaining));
      } else {
        std::printf(" %9s %8s", "-", "-");
      }
      std::printf("\n");
      if (t.total_sum > 0.0) {
        std::printf("%-12s   queue-wait share of latency: %.3f\n", "",
                    t.queue_sum / t.total_sum);
      }
    }
  }
  std::printf("swaps: %lld\n", static_cast<long long>(run.swaps));
  return 0;
}

int CmdTail(const std::string& path, int64_t n, bool follow) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "rotom_inspect: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // In follow mode only complete (newline-terminated) lines are consumed;
  // a partial final line is left for the next poll, so a line the writer is
  // mid-append on is never emitted twice or torn.
  size_t consumed = content.size();
  if (follow) {
    const size_t last_newline = content.rfind('\n');
    consumed = last_newline == std::string::npos ? 0 : last_newline + 1;
  }
  std::vector<std::string> lines;
  size_t begin_of_line = 0;
  while (begin_of_line < consumed) {
    size_t end = content.find('\n', begin_of_line);
    if (end == std::string::npos || end >= consumed) end = consumed;
    if (end > begin_of_line)
      lines.push_back(content.substr(begin_of_line, end - begin_of_line));
    begin_of_line = end + 1;
  }
  const size_t begin =
      lines.size() > static_cast<size_t>(n) ? lines.size() - n : 0;
  for (size_t i = begin; i < lines.size(); ++i) {
    std::printf("%s\n", lines[i].c_str());
  }
  if (!follow) return 0;
  std::fflush(stdout);

  // Poll-based follow: the recorders append with one write(2) per line, so
  // watching the file size and emitting up to the last newline is exact.
  // ROTOM_INSPECT_FOLLOW_MAX_POLLS (hidden; tests set it) bounds the loop —
  // unset or <= 0 follows until interrupted.
  const char* cap_env = std::getenv("ROTOM_INSPECT_FOLLOW_MAX_POLLS");
  const int64_t max_polls =
      cap_env == nullptr || cap_env[0] == '\0' ? -1 : std::atoll(cap_env);
  size_t offset = consumed;
  for (int64_t poll = 0; max_polls <= 0 || poll < max_polls; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::ifstream f(path, std::ios::binary);
    if (!f) continue;  // rotated away; keep waiting for it to reappear
    f.seekg(0, std::ios::end);
    const size_t size = static_cast<size_t>(f.tellg());
    if (size < offset) offset = 0;  // truncated/replaced: restart from top
    if (size == offset) continue;
    f.seekg(static_cast<std::streamoff>(offset));
    std::string chunk(size - offset, '\0');
    f.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const size_t complete = chunk.rfind('\n');
    if (complete == std::string::npos) continue;  // no full line yet
    std::fwrite(chunk.data(), 1, complete + 1, stdout);
    std::fflush(stdout);
    offset += complete + 1;
  }
  return 0;
}

int CmdDiff(const std::string& path_a, const std::string& path_b) {
  RunData a, b;
  if (!LoadRun(path_a, &a) || !LoadRun(path_b, &b)) return 1;
  std::printf("A: %s  (%zu steps)\nB: %s  (%zu steps)\n", a.path.c_str(),
              a.steps.size(), b.path.c_str(), b.steps.size());
  if (a.steps.empty() || b.steps.empty()) {
    std::printf("one of the runs has no steps; nothing to diff\n");
    return 0;
  }
  std::printf("final loss: %.6g -> %.6g  (%+.6g)\n", a.steps.back().loss,
              b.steps.back().loss, b.steps.back().loss - a.steps.back().loss);
  const GradNormStats ga = ComputeGradNormStats(a.steps);
  const GradNormStats gb = ComputeGradNormStats(b.steps);
  if (ga.count > 0 && gb.count > 0) {
    std::printf("grad_norm mean: %.4g -> %.4g  (%+.4g)\n", ga.mean, gb.mean,
                gb.mean - ga.mean);
    std::printf("grad_norm p95:  %.4g -> %.4g  (%+.4g)\n", ga.p95, gb.p95,
                gb.p95 - ga.p95);
  }
  const double ka = MeanKeepRate(a.steps);
  const double kb = MeanKeepRate(b.steps);
  if (ka >= 0.0 && kb >= 0.0) {
    std::printf("keep-rate mean: %.4f -> %.4f  (%+.4f)\n", ka, kb, kb - ka);
  }
  const auto ops_a = TotalOpCounts(a.steps);
  const auto ops_b = TotalOpCounts(b.steps);
  if (!ops_a.empty() || !ops_b.empty()) {
    std::map<std::string, std::pair<int64_t, int64_t>> merged;
    for (const auto& [op, count] : ops_a) merged[op].first = count;
    for (const auto& [op, count] : ops_b) merged[op].second = count;
    std::printf("kept candidates by operator (A, B, delta):\n");
    for (const auto& [op, counts] : merged) {
      std::printf("  %-16s %8lld %8lld  (%+lld)\n", op.c_str(),
                  static_cast<long long>(counts.first),
                  static_cast<long long>(counts.second),
                  static_cast<long long>(counts.second - counts.first));
    }
  }
  const double va = a.epochs.empty() ? 0.0 : a.epochs.back().valid_metric;
  const double vb = b.epochs.empty() ? 0.0 : b.epochs.back().valid_metric;
  if (!a.epochs.empty() && !b.epochs.empty()) {
    std::printf("final valid metric: %.4f -> %.4f  (%+.4f)\n", va, vb,
                vb - va);
  }
  return 0;
}

int CmdListOps();

#define SELFTEST_CHECK(cond)                                            \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "selftest FAILED at %s:%d: %s\n", __FILE__,    \
                   __LINE__, #cond);                                      \
      return 1;                                                           \
    }                                                                     \
  } while (0)

// Writes a synthetic run through the real obs::RunLog writer and checks
// this tool's parser and aggregations recover it exactly.
int CmdSelftest() {
  char dir_template[] = "/tmp/rotom_inspect_selftest_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  SELFTEST_CHECK(dir != nullptr);

  std::string path;
  {
    auto runlog = rotom::obs::RunLog::Open({dir, "selftest"});
    SELFTEST_CHECK(runlog != nullptr);
    rotom::obs::RunLogManifest manifest;
    manifest.Set("trainer", "selftest").Set("seed", int64_t{7});
    runlog->WriteManifest(manifest);
    for (int64_t i = 1; i <= 10; ++i) {
      rotom::obs::RunLogStep step;
      step.step = i;
      step.epoch = i / 5;
      step.loss = 1.0 / static_cast<double>(i);
      step.lr = 1e-3;
      step.grad_norm = 0.5 * static_cast<double>(i);
      step.keep_rate = 0.75;
      step.has_weights = true;
      step.weight_min = 0.5;
      step.weight_mean = 1.0;
      step.weight_max = 1.5;
      step.op_counts["token_del"] = i;
      step.op_counts["invda"] = 2;
      step.op_offered["token_del"] = i + 1;
      step.op_offered["invda"] = 4;
      runlog->LogStep(step);
    }
    runlog->LogEpoch(0, 80.5, 0.9);
    runlog->LogEpoch(1, 82.5, 0.8);
    path = runlog->path();
  }  // destructor appends the end event

  RunData run;
  SELFTEST_CHECK(LoadRun(path, &run));
  SELFTEST_CHECK(run.skipped_lines == 0);
  SELFTEST_CHECK(run.has_end);
  SELFTEST_CHECK(!run.fatal && run.signals.empty());
  const std::string* trainer = Find(run.manifest, "trainer");
  SELFTEST_CHECK(trainer != nullptr && *trainer == "selftest");
  const std::string* schema = Find(run.manifest, "schema");
  SELFTEST_CHECK(schema != nullptr && *schema == rotom::obs::kRunLogSchema);
  SELFTEST_CHECK(run.steps.size() == 10);
  SELFTEST_CHECK(run.steps.front().loss == 1.0);
  SELFTEST_CHECK(run.steps.back().grad_norm == 5.0);
  SELFTEST_CHECK(run.steps.back().has_weights);
  SELFTEST_CHECK(run.steps.back().weight_mean == 1.0);
  SELFTEST_CHECK(run.epochs.size() == 2);
  SELFTEST_CHECK(run.epochs.back().valid_metric == 82.5);

  const auto ops = TotalOpCounts(run.steps);
  SELFTEST_CHECK(ops.at("token_del") == 55);  // 1 + 2 + ... + 10
  SELFTEST_CHECK(ops.at("invda") == 20);
  const auto gen = TotalOfferedCounts(run.steps);
  SELFTEST_CHECK(gen.at("token_del") == 65);  // 2 + 3 + ... + 11
  SELFTEST_CHECK(gen.at("invda") == 40);
  SELFTEST_CHECK(CmdListOps() == 0);
  SELFTEST_CHECK(rotom::augment::OperatorRegistry::Global().Names().size() >=
                 13);
  SELFTEST_CHECK(MeanKeepRate(run.steps) == 0.75);
  const GradNormStats g = ComputeGradNormStats(run.steps);
  SELFTEST_CHECK(g.count == 10 && g.min == 0.5 && g.max == 5.0);
  SELFTEST_CHECK(g.p50 > 0.0 && g.p95 >= g.p50 && g.p99 >= g.p95);

  // A truncated final line (mid-write crash) is skipped, not fatal.
  {
    std::ofstream append(path, std::ios::app);
    append << "{\"event\": \"step\", \"step\": 11, \"los";
  }
  RunData truncated;
  SELFTEST_CHECK(LoadRun(path, &truncated));
  SELFTEST_CHECK(truncated.steps.size() == 10);
  SELFTEST_CHECK(truncated.skipped_lines == 1);

  // Exercise the printing paths end to end.
  SELFTEST_CHECK(CmdSummary(path) == 0);
  SELFTEST_CHECK(CmdDiff(path, path) == 0);
  SELFTEST_CHECK(CmdTail(path, 3, /*follow=*/false) == 0);
  // --follow with a poll cap so the selftest terminates: one quiet poll.
  ::setenv("ROTOM_INSPECT_FOLLOW_MAX_POLLS", "1", 1);
  SELFTEST_CHECK(CmdTail(path, 1, /*follow=*/true) == 0);
  ::unsetenv("ROTOM_INSPECT_FOLLOW_MAX_POLLS");

  // Serve-log round trip: write through the real obs::ServeLog writer,
  // re-read through this tool's parser.
  std::string serve_path;
  {
    rotom::obs::ServeLogOptions options;
    options.dir = dir;
    options.tag = "selftest_serve";
    options.sample = 2;
    auto servelog = rotom::obs::ServeLog::Open(options);
    SELFTEST_CHECK(servelog != nullptr);
    rotom::obs::ServeManifest manifest;
    manifest.server = "tenant";
    manifest.tenants = 2;
    manifest.slo_latency_us = 1000;
    manifest.slo_target = 0.99;
    servelog->LogManifest(manifest);
    // sample=2 keeps odd ids (1, 3, ...) and drops even ones.
    SELFTEST_CHECK(servelog->SampleRequest(1) && !servelog->SampleRequest(2));
    for (uint64_t id = 1; id <= 8; ++id) {
      if (!servelog->SampleRequest(id)) continue;
      servelog->LogRequest(id, id % 2 == 1 ? "em" : "cls", /*queue_us=*/100,
                           /*compute_us=*/300, /*total_us=*/400,
                           /*batch_size=*/4, /*label=*/1);
    }
    servelog->LogShed("em", /*queue_depth=*/16);
    servelog->LogSwap("em", /*version=*/2);
    servelog->LogWindow("em", /*completed=*/8, /*shed=*/1, /*p99_us=*/400,
                        /*slo_violations=*/0, /*budget_remaining=*/0);
    serve_path = servelog->path();
  }
  ServeRun serve_run;
  SELFTEST_CHECK(LoadServe(serve_path, &serve_run));
  SELFTEST_CHECK(serve_run.skipped_lines == 0);
  SELFTEST_CHECK(serve_run.manifests.size() == 1);
  const std::string* serve_schema = Find(serve_run.manifests[0], "schema");
  SELFTEST_CHECK(serve_schema != nullptr &&
                 *serve_schema == rotom::obs::kServeLogSchema);
  const std::string* server_kind = Find(serve_run.manifests[0], "server");
  SELFTEST_CHECK(server_kind != nullptr && *server_kind == "tenant");
  SELFTEST_CHECK(Find(serve_run.manifests[0], "simd_flavor") != nullptr);
  SELFTEST_CHECK(serve_run.swaps == 1);
  SELFTEST_CHECK(serve_run.tenants.at("em").sampled == 4);  // ids 1,3,5,7
  SELFTEST_CHECK(serve_run.tenants.at("em").sheds == 1);
  SELFTEST_CHECK(serve_run.tenants.at("em").windows == 1);
  SELFTEST_CHECK(serve_run.tenants.at("em").last_p99_us == 400);
  SELFTEST_CHECK(serve_run.tenants.at("em").slo_violations == 0);
  SELFTEST_CHECK(ExactPercentile(serve_run.tenants.at("em").total_us, 0.99) ==
                 400);
  SELFTEST_CHECK(serve_run.tenants.count("cls") == 0);  // never sampled

  // A request line from an older build's single-model server, which wrote
  // no `tenant` field, is filed under "-". Then the same crash-truncation
  // tolerance as the run-log parser.
  {
    std::ofstream append(serve_path, std::ios::app);
    append << "{\"event\": \"request\", \"id\": 9, \"queue_us\": 10, "
              "\"compute_us\": 30, \"total_us\": 40, \"batch_size\": 1, "
              "\"label\": 0}\n";
    append << "{\"event\": \"request\", \"id\": 11, \"que";
  }
  ServeRun truncated_serve;
  SELFTEST_CHECK(LoadServe(serve_path, &truncated_serve));
  SELFTEST_CHECK(truncated_serve.skipped_lines == 1);
  SELFTEST_CHECK(truncated_serve.tenants.at("em").sampled == 4);
  SELFTEST_CHECK(truncated_serve.tenants.at("-").sampled == 1);
  SELFTEST_CHECK(CmdServe(serve_path) == 0);

  std::remove(path.c_str());
  std::remove(serve_path.c_str());
  ::rmdir(dir);
  std::printf("selftest OK\n");
  return 0;
}

// Machine-readable dump of the DA operator registry, in registration order
// (which is also legacy-enum order for the first nine). The docs-drift gate
// (scripts/check_obs_docs.sh) diffs this against the OBSERVABILITY.md
// operator catalog, so adding an operator without documenting it fails CI.
int CmdListOps() {
  for (const std::string& name :
       rotom::augment::OperatorRegistry::Global().Names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rotom_inspect summary <run.jsonl>\n"
               "       rotom_inspect serve <serve.jsonl>\n"
               "       rotom_inspect tail <log.jsonl> [n] [--follow]\n"
               "       rotom_inspect diff <runA.jsonl> <runB.jsonl>\n"
               "       rotom_inspect selftest\n"
               "       rotom_inspect --list-ops\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The grad-norm percentile helper runs through obs::Histogram, which is a
  // no-op while the metrics switch is off; force it on for this process.
  rotom::obs::SetEnabled(true);
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "summary" && argc == 3) return CmdSummary(argv[2]);
  if (cmd == "serve" && argc == 3) return CmdServe(argv[2]);
  if (cmd == "tail" && argc >= 3 && argc <= 5) {
    bool follow = false;
    int64_t n = 10;
    bool have_n = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--follow") == 0 && !follow) {
        follow = true;
      } else if (!have_n) {
        n = std::atoll(argv[i]);
        have_n = true;
      } else {
        return Usage();
      }
    }
    return CmdTail(argv[2], n, follow);
  }
  if (cmd == "diff" && argc == 4) return CmdDiff(argv[2], argv[3]);
  if (cmd == "selftest" && argc == 2) return CmdSelftest();
  if ((cmd == "--list-ops" || cmd == "list-ops") && argc == 2) {
    return CmdListOps();
  }
  return Usage();
}
