#include "obs/servelog.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/runlog.h"
#include "util/logging.h"

// Build attribution baked in by src/CMakeLists.txt, same definitions as
// obs/runlog.cc (the two files share one compile-definition list there).
#ifndef ROTOM_GIT_SHA
#define ROTOM_GIT_SHA "unknown"
#endif
#ifndef ROTOM_SIMD_FLAVOR_NAME
#define ROTOM_SIMD_FLAVOR_NAME "unknown"
#endif
#ifndef ROTOM_SIMD_SETTING
#define ROTOM_SIMD_SETTING "unknown"
#endif

namespace rotom {
namespace obs {

namespace {

// One JSONL event under construction. Every event and field name passed
// here as a string literal is part of the servelog schema and must be
// cataloged in OBSERVABILITY.md ("Serve logs"); scripts/check_obs_docs.sh
// greps these call sites.
class ServeLogLine {
 public:
  explicit ServeLogLine(const char* event) {
    line_ = "{\"event\": \"";
    line_ += event;
    line_ += '"';
  }

  ServeLogLine& Add(std::string_view key, std::string_view value) {
    return Raw(key, "\"" + internal::JsonEscaped(value) + "\"");
  }
  ServeLogLine& Add(std::string_view key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  ServeLogLine& Add(std::string_view key, double value) {
    return Raw(key, internal::RenderDouble(value));
  }

  ServeLogLine& Raw(std::string_view key, std::string_view rendered) {
    line_ += ", \"";
    line_ += key;
    line_ += "\": ";
    line_ += rendered;
    return *this;
  }

  std::string Finish() {
    line_ += "}\n";
    return std::move(line_);
  }

 private:
  std::string line_;
};

}  // namespace

std::shared_ptr<ServeLog> ServeLog::Open(const ServeLogOptions& options) {
  std::string dir = options.dir;
  if (dir.empty()) {
    const char* env = std::getenv("ROTOM_SERVELOG_DIR");
    if (env != nullptr) dir = env;
  }
  if (dir.empty()) return nullptr;
  ::mkdir(dir.c_str(), 0755);  // best effort (single level; may exist)

  static std::atomic<int64_t> next_id{0};
  const int64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  char name[128];
  std::snprintf(name, sizeof(name), "%s-p%d-%lld.jsonl",
                options.tag.empty() ? "serve" : options.tag.c_str(),
                static_cast<int>(::getpid()), static_cast<long long>(id));
  std::string path = dir;
  if (path.back() != '/') path += '/';
  path += name;

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                        0644);
  if (fd < 0) {
    ROTOM_LOG(Warning) << "servelog: cannot open " << path << " ("
                       << std::strerror(errno) << "); serve logging disabled";
    return nullptr;
  }
  InstallCrashHandlers();
  internal::RegisterCrashFd(fd);
  return std::shared_ptr<ServeLog>(
      new ServeLog(std::move(path), fd, options.sample));
}

ServeLog::ServeLog(std::string path, int fd, int64_t sample)
    : path_(std::move(path)), fd_(fd), sample_(sample) {}

ServeLog::~ServeLog() {
  internal::UnregisterCrashFd(fd_);
  ::close(fd_);
}

void ServeLog::Append(const std::string& line) {
  internal::WriteAll(fd_, line.data(), line.size());
}

void ServeLog::LogManifest(const ServeManifest& manifest) {
  ServeLogLine line("manifest");
  line.Add("schema", std::string_view(kServeLogSchema));
  line.Add("git_sha", std::string_view(ROTOM_GIT_SHA));
  line.Add("simd_flavor", std::string_view(ROTOM_SIMD_FLAVOR_NAME));
  line.Add("rotom_simd", std::string_view(ROTOM_SIMD_SETTING));
  line.Add("sample", sample_);
  if (!manifest.server.empty())
    line.Add("server", std::string_view(manifest.server));
  if (manifest.tenants >= 0) line.Add("tenants", manifest.tenants);
  if (manifest.max_batch >= 0) line.Add("max_batch", manifest.max_batch);
  if (manifest.max_delay_us >= 0)
    line.Add("max_delay_us", manifest.max_delay_us);
  if (manifest.queue_capacity >= 0)
    line.Add("queue_capacity", manifest.queue_capacity);
  if (manifest.slow_request_us >= 0)
    line.Add("slow_request_us", manifest.slow_request_us);
  if (manifest.slo_latency_us >= 0)
    line.Add("slo_latency_us", manifest.slo_latency_us);
  if (manifest.slo_target >= 0.0) line.Add("slo_target", manifest.slo_target);
  Append(line.Finish());
}

void ServeLog::LogRequest(uint64_t id, std::string_view tenant,
                          int64_t queue_us, int64_t compute_us,
                          int64_t total_us, int64_t batch_size,
                          int64_t label) {
  ServeLogLine line("request");
  line.Add("id", static_cast<int64_t>(id));
  line.Add("tenant", tenant);
  line.Add("queue_us", queue_us);
  line.Add("compute_us", compute_us);
  line.Add("total_us", total_us);
  line.Add("batch_size", batch_size);
  line.Add("label", label);
  Append(line.Finish());
}

void ServeLog::LogSwap(std::string_view model, uint64_t version) {
  ServeLogLine line("swap");
  line.Add("model", model);
  line.Add("version", static_cast<int64_t>(version));
  Append(line.Finish());
}

void ServeLog::LogShed(std::string_view tenant, int64_t queue_depth) {
  ServeLogLine line("shed");
  line.Add("tenant", tenant);
  line.Add("queue_depth", queue_depth);
  Append(line.Finish());
}

void ServeLog::LogWindow(std::string_view tenant, int64_t completed,
                         int64_t shed, int64_t p99_us, int64_t slo_violations,
                         int64_t budget_remaining) {
  ServeLogLine line("window");
  line.Add("tenant", tenant);
  line.Add("completed", completed);
  line.Add("shed", shed);
  line.Add("p99_us", p99_us);
  line.Add("slo_violations", slo_violations);
  line.Add("budget_remaining", budget_remaining);
  Append(line.Finish());
}

}  // namespace obs
}  // namespace rotom
