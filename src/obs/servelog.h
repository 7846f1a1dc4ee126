#ifndef ROTOM_OBS_SERVELOG_H_
#define ROTOM_OBS_SERVELOG_H_

// Flight recorder for the serving path: a crash-safe append-only JSONL
// stream carrying one `manifest` record (server shape, SIMD flavor)
// followed by sampled per-request lifecycle records and the
// irregular events that explain a latency trace after the fact — model
// `swap`s, admission-control `shed`s, and per-tenant SLO `window` rollups.
// The metrics registry answers "what are the rates right now"; the serve
// log answers "what happened to request 48123" long after the process (or
// the process's operator) is gone. OBSERVABILITY.md ("Serve logs") is the
// schema contract — every event and field name emitted here must be
// cataloged there (scripts/check_obs_docs.sh enforces it) — and
// `tools/rotom_inspect serve` is the reader.
//
// Crash safety: identical to obs/runlog.h. Every event is rendered to one
// line and handed to the kernel with a single write(2) on an O_APPEND
// descriptor, so a crash loses at most one truncated trailing line, and the
// obs crash handlers append a terminal `signal` event to open serve logs
// too.
//
// Sampling. Request events are sampled 1-in-N (ServeLogOptions::sample) by
// request id — (id-1) % N == 0, so id 1 is always recorded and the stream
// stays deterministic for a deterministic id sequence. Swap/shed/window
// events are never sampled; they are rare and each one matters.
//
// Thread-safety: unlike RunLog (one trainer loop), a ServeLog is written
// from submit threads (shed), the server worker (request/window), and
// whatever thread calls ModelRegistry::Swap. There is still no internal
// lock: each writer renders its line privately and issues one write(2) on
// the shared O_APPEND descriptor, which POSIX appends atomically, so lines
// never interleave. Log* methods are safe from any thread.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace rotom {
namespace obs {

/// Serve-log schema identifier written into every manifest.
inline constexpr const char kServeLogSchema[] = "rotom-servelog-v1";

/// Where (and whether) to write a serve log. `dir` empty falls back to the
/// ROTOM_SERVELOG_DIR environment variable; when both are empty the serve
/// log is disabled and Open() returns nullptr. `sample` is the 1-in-N
/// request sampling rate (1 = every request, <= 0 = no request events; the
/// other event kinds are always recorded). The file is named
/// `<tag>-p<pid>-<n>.jsonl`.
struct ServeLogOptions {
  std::string dir;
  std::string tag = "serve";
  int64_t sample = 64;
};

/// The serving-shape fields of the `manifest` event. Negative integers and
/// empty strings mean "not set" and the field is omitted.
struct ServeManifest {
  std::string server;          // "tenant" (serve::TenantServer)
  int64_t tenants = -1;
  int64_t max_batch = -1;
  int64_t max_delay_us = -1;
  int64_t queue_capacity = -1;
  int64_t slow_request_us = -1;
  int64_t slo_latency_us = -1;
  double slo_target = -1.0;
};

/// The flight recorder. Create via Open(); shared_ptr because the server,
/// the registry, and the bench that configured them all hold it.
class ServeLog {
 public:
  /// Opens `<dir>/<tag>-p<pid>-<n>.jsonl` and returns the recorder, or
  /// nullptr when serve logging is disabled (no directory configured) or
  /// the file cannot be created (a warning is logged; serving proceeds).
  /// Installs the obs crash handlers on first successful open.
  static std::shared_ptr<ServeLog> Open(const ServeLogOptions& options);

  ~ServeLog();

  ServeLog(const ServeLog&) = delete;
  ServeLog& operator=(const ServeLog&) = delete;

  /// Appends the `manifest` record (schema, SIMD flavor, ROTOM_SIMD setting,
  /// sampling rate, then the applicable `manifest` fields). Call once per
  /// server, before traffic.
  void LogManifest(const ServeManifest& manifest);

  /// True when request `id` falls on the 1-in-N sampling grid; callers
  /// skip both the render and the write for unsampled requests.
  bool SampleRequest(uint64_t id) const {
    return sample_ > 0 && (id - 1) % static_cast<uint64_t>(sample_) == 0;
  }

  /// Appends one sampled `request` lifecycle event: the queue/compute/total
  /// latency decomposition, the batch the request rode in, and the label it
  /// was answered with, under the tenant that submitted it.
  void LogRequest(uint64_t id, std::string_view tenant, int64_t queue_us,
                  int64_t compute_us, int64_t total_us, int64_t batch_size,
                  int64_t label);

  /// Appends a `swap` event when ModelRegistry redirects a model's traffic.
  void LogSwap(std::string_view model, uint64_t version);

  /// Appends a `shed` event when admission control rejects a request.
  void LogShed(std::string_view tenant, int64_t queue_depth);

  /// Appends a per-tenant SLO `window` rollup: requests completed and shed
  /// since the last window, the window's p99, and the running violation /
  /// error-budget tallies.
  void LogWindow(std::string_view tenant, int64_t completed, int64_t shed,
                 int64_t p99_us, int64_t slo_violations,
                 int64_t budget_remaining);

  /// Path of the JSONL file (absolute iff `dir` was).
  const std::string& path() const { return path_; }

  /// The configured 1-in-N request sampling rate.
  int64_t sample() const { return sample_; }

 private:
  ServeLog(std::string path, int fd, int64_t sample);

  void Append(const std::string& line);

  std::string path_;
  int fd_ = -1;
  int64_t sample_ = 64;
};

}  // namespace obs
}  // namespace rotom

#endif  // ROTOM_OBS_SERVELOG_H_
