#ifndef ROTOM_SERVE_OBS_HTTP_H_
#define ROTOM_SERVE_OBS_HTTP_H_

// Dependency-free observability listener for the serving stack: a tiny
// blocking HTTP/1.1 server (plain POSIX sockets, one thread, no external
// libraries) that answers live scrapes while a TenantServer runs.
// Endpoints (GET only):
//
//   /metrics    obs::PrometheusText() — the Prometheus text exposition of
//               every registered instrument (OBSERVABILITY.md "Scrape
//               surface"). Content-Type text/plain; version=0.0.4.
//   /healthz    "ok\n" — liveness, nothing more.
//   /snapshotz  obs::SnapshotJson() — the same scrape as JSON, identical in
//               shape to the `metrics` section of BENCH_*.json.
//
// This is deliberately not a general web server: requests are read with a
// small bounded buffer, one connection is served at a time, responses are
// Connection: close, and anything that is not a GET for a known path is a
// 404/405. A scrape every few seconds from a Prometheus agent or a curl in
// a terminal is the design load. The listener binds 127.0.0.1 only —
// exposing it beyond the host is a reverse proxy's job.
//
// Lifecycle: Start() binds (port 0 = kernel-assigned ephemeral port, read
// it back from port()), spawns the serve thread, and returns; Stop() (or
// the destructor) flips an atomic flag that the poll()-based accept loop
// observes within ~50ms and joins the thread. TenantServer starts one
// automatically when its Options carry an enabled ObsHttpOptions, so a
// bench or production binary gets live scrapes with two lines of config.

#include <atomic>
#include <memory>
#include <thread>

#include "util/status.h"

namespace rotom {
namespace serve {

/// Listener knob carried by TenantServer::Options (and usable
/// standalone). `port` 0 picks a free ephemeral port.
struct ObsHttpOptions {
  bool enabled = false;
  int port = 0;
};

/// The listener itself. Construct via Start(); thread-safe to Stop() from
/// any thread, idempotently.
class ObsHttpServer {
 public:
  /// Binds 127.0.0.1:`options.port`, starts the serve thread, and returns
  /// the running listener. Errors (port in use, no sockets in this
  /// environment) come back as a Status — callers degrade to servelog/
  /// SIGUSR1 observability rather than failing the server.
  static StatusOr<std::unique_ptr<ObsHttpServer>> Start(
      const ObsHttpOptions& options);

  ~ObsHttpServer();

  ObsHttpServer(const ObsHttpServer&) = delete;
  ObsHttpServer& operator=(const ObsHttpServer&) = delete;

  /// Stops accepting, joins the serve thread, closes the socket. Idempotent.
  void Stop();

  /// The bound TCP port (the kernel's pick when Options::port was 0).
  int port() const { return port_; }

 private:
  ObsHttpServer(int listen_fd, int port);

  void ServeLoop();
  void HandleClient(int client_fd);

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace serve
}  // namespace rotom

#endif  // ROTOM_SERVE_OBS_HTTP_H_
