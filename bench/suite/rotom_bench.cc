// rotom_bench: runs one benchmark workload in this process and prints its
// metrics. run.sh builds it (Release) and is the supported way to run it:
//
//   rotom_bench --workload em_rotom|ag_stream|serve_mixed --seed N
//               --seconds S --trace 0|1 [--smoke] [--work-dir D]
//               [--trace-dir D] [--git-sha SHA]
//
// Output, in order: one `manifest {...}` line (git sha, nproc, pool threads,
// SIMD flavor, build type, seed, input hash); one `<workload> <metric>
// <value> <unit>` line per end-to-end metric (and, with --trace 1, per
// per-layer metric); and last one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// whose metrics are the end-to-end ones (--trace 0) or the per-layer ones
// (--trace 1). The exit code is 0 only when every correctness check passed.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "obs/metrics.h"
#include "suite.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

#ifndef ROTOM_BENCH_BUILD_TYPE
#define ROTOM_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace fs = std::filesystem;
using namespace rotom::suite;  // NOLINT

int Usage(const char* why) {
  std::fprintf(stderr,
               "rotom_bench: %s\nusage: rotom_bench --workload "
               "em_rotom|ag_stream|serve_mixed --seed N --seconds S --trace "
               "0|1 [--smoke] [--work-dir D] [--trace-dir D] [--git-sha SHA]\n",
               why);
  return 2;
}

// Refuses configurations that would measure a different program than the
// benchmark of record. Returns "" when the run may proceed.
std::string GuardRails() {
#ifndef NDEBUG
  return "built without NDEBUG: benchmark a Release build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build: benchmark a plain Release build";
#endif
#ifdef ROTOM_METRICS_DISABLED
  return "metrics compiled out (ROTOM_DISABLE_METRICS)";
#endif
  if (std::string(ROTOM_BENCH_BUILD_TYPE) != "Release")
    return std::string("build type ") + ROTOM_BENCH_BUILD_TYPE +
           ", not Release";
  for (const char* name :
       {"ROTOM_NUM_THREADS", "ROTOM_TRACE", "ROTOM_RUNLOG_DIR",
        "ROTOM_SERVELOG_DIR"}) {
    const char* value = std::getenv(name);
    if (value != nullptr && value[0] != '\0')
      return std::string(name) + " is set in the environment; unset it";
  }
  if (!rotom::obs::Enabled())
    return "ROTOM_METRICS turns metrics off; unset it";
  return "";
}

void PrintMetrics(const std::string& workload, const MetricSet& set) {
  for (const Metric& m : set.metrics()) {
    std::printf("%s %s %.17g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string MetricsJson(const MetricSet& set) {
  std::string json = "{";
  char buf[512];
  for (const Metric& m : set.metrics()) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", m.name.c_str(), m.value,
                  m.unit.c_str());
    json += buf;
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string git_sha = "unknown";
  std::string work_root = ".bench_build/work";
  std::string trace_root = ".bench_build/traces";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && (v = value())) {
      config.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      config.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && (v = value())) {
      config.seconds = std::atoi(v);
      have_seconds = config.seconds >= 1;
    } else if (arg == "--trace" && (v = value())) {
      config.trace = std::string(v) == "1";
      have_trace = config.trace || std::string(v) == "0";
    } else if (arg == "--work-dir" && (v = value())) {
      work_root = v;
    } else if (arg == "--trace-dir" && (v = value())) {
      trace_root = v;
    } else if (arg == "--git-sha" && (v = value())) {
      git_sha = v;
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return Usage("--seed, --seconds (>= 1) and --trace 0|1 are required");
  WorkloadOutput (*run)(const RunConfig&) = nullptr;
  if (config.workload == "em_rotom") run = RunEmRotom;
  if (config.workload == "ag_stream") run = RunAgStream;
  if (config.workload == "serve_mixed") run = RunServeMixed;
  if (run == nullptr) return Usage("unknown workload");
  if (const std::string refusal = GuardRails(); !refusal.empty()) {
    std::fprintf(stderr, "rotom_bench: refusing to run: %s\n", refusal.c_str());
    return 2;
  }

  const std::string tag =
      config.workload + "-seed" + std::to_string(config.seed);
  config.work_dir = work_root + "/" + tag + "-p" + std::to_string(getpid());
  config.trace_dir = trace_root + "/" + tag;
  std::error_code ec;
  fs::remove_all(config.work_dir, ec);
  fs::create_directories(config.work_dir, ec);
  if (config.trace) {
    fs::remove_all(config.trace_dir, ec);
    fs::create_directories(config.trace_dir, ec);
  }

  WorkloadOutput out;
  try {
    out = run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rotom_bench: %s failed: %s\n",
                 config.workload.c_str(), e.what());
    fs::remove_all(config.work_dir, ec);
    return 1;
  }
  fs::remove_all(config.work_dir, ec);

  if (config.trace) {
    for (const Metric& m : out.layer.metrics()) {
      if (m.name == "trace.dropped_events" && m.value > 0.0)
        out.errors.push_back("the program's trace rings overflowed");
      if (m.name == "trace.events" && m.value <= 0.0)
        out.errors.push_back("no program spans were read back");
    }
  }
  for (const Metric& m : out.e2e.metrics()) {
    if (!(m.value > 0.0)) out.errors.push_back(m.name + " measured as 0");
  }
  const bool correct = out.errors.empty() && out.failed == 0;
  for (const auto& error : out.errors)
    std::fprintf(stderr, "rotom_bench: %s: %s\n", config.workload.c_str(),
                 error.c_str());

  std::printf(
      "manifest {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %d, \"trace\": %d, \"smoke\": %d, \"git_sha\": \"%s\", "
      "\"nproc\": %u, \"pool_threads\": %d, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"input_hash\": \"%016" PRIx64 "\"}\n",
      config.workload.c_str(), config.seed, config.seconds,
      config.trace ? 1 : 0, config.smoke ? 1 : 0, git_sha.c_str(),
      std::thread::hardware_concurrency(), rotom::ComputeThreads(),
      rotom::kernels::SimdFlavorName(), ROTOM_BENCH_BUILD_TYPE, out.input_hash);
  PrintMetrics(config.workload, out.e2e);
  if (config.trace) PrintMetrics(config.workload, out.layer);
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", std::max<int64_t>(1, out.attempted),
              out.failed,
              MetricsJson(config.trace ? out.layer : out.e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}
