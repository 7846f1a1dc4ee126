#ifndef ROTOM_SERVE_REGISTRY_H_
#define ROTOM_SERVE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/servelog.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace rotom {
namespace serve {

/// A thread-safe store of named, versioned models — the multi-tenant shape
/// of the serving stack (DESIGN.md §13). Each name (a tenant's model) holds
/// one or more immutable InferenceSessions built from RSNAP snapshots, one
/// of which is *active*; queries pin the active session for their duration
/// and a new version can be hot-swapped in under live traffic without any
/// request ever observing a torn or half-loaded model.
///
/// Lifecycle verbs:
///
///   Publish  load a snapshot (mmap-backed, Snapshot::Load) or adopt
///            an in-memory one under `name`; versions number 1, 2, ... per
///            name. The first published version of a name activates
///            immediately; later ones are staged until Swap().
///   Swap     atomically redirect new traffic for `name` to a staged
///            version. RCU-style: readers never wait on slow work —
///            in-flight requests finish on the version they pinned, new
///            requests pin the new one, and a subsequently retired version
///            is destroyed only when its last in-flight request drops the
///            pin.
///   Retire   remove a non-active version from the store (the drain: once
///            the store's reference and every request pin are gone, the
///            session and its weights are freed).
///   Acquire  the read side: one shared_ptr copy pinning the active
///            version, held for the duration of a request or batch.
///
/// Concurrency. Two levels, so the read path never waits on slow work: the
/// name → entry map is guarded by a shared_mutex taken exclusively only
/// when Publish adds a *new* name; each entry's version store and active
/// pointer are guarded by a per-entry mutex. Acquire() copies the active
/// shared_ptr under that mutex — a few nanoseconds — and Swap() reassigns
/// it under the same mutex, so a swap is linearizable against any number of
/// concurrent Acquires with no observable state between "old version" and
/// "new version" (registry_test.cc hammers this under TSan with client
/// threads racing repeated swaps). Snapshot loading and session
/// construction happen outside every lock, so the entry mutex is never held
/// longer than a map lookup.
///
/// Observability (OBSERVABILITY.md): `registry.models` / `registry.versions`
/// gauges, `registry.loads` / `registry.swaps` / `registry.retired`
/// counters, and `registry.load` / `registry.swap` spans. When Options
/// carries a serve log (usually the same one the TenantServer writes),
/// every successful Swap appends a `swap` event, so the flight recorder
/// shows exactly when each model's traffic was redirected relative to the
/// surrounding request stream.
class ModelRegistry {
 public:
  struct Options {
    /// Applied to every session the registry builds (precision, cache size).
    InferenceSession::Options session;
    /// Serve flight recorder for `swap` events; nullptr = none.
    std::shared_ptr<obs::ServeLog> servelog;
  };

  ModelRegistry() : ModelRegistry(Options()) {}
  explicit ModelRegistry(const Options& options) : options_(options) {}

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Loads the RSNAP file at `path` (Snapshot::Load) and publishes it
  /// under `name`. Returns the new version id (1-based, monotonic per
  /// name), or an error Status for unreadable/corrupt snapshots. The first
  /// version of a name becomes active immediately; later versions are
  /// staged for Swap().
  StatusOr<uint64_t> Publish(const std::string& name, const std::string& path);

  /// Publishes an in-memory snapshot (e.g. fresh from api::Train or
  /// QuantizeSnapshot) under `name`; same versioning/activation rules.
  StatusOr<uint64_t> Publish(const std::string& name,
                             const Snapshot& snapshot);

  /// Atomically makes `version` the active serving version of `name`. New
  /// Acquire() calls see the new session immediately; requests already
  /// holding the old session finish undisturbed. Error if the name or
  /// version is unknown. Swapping to the already-active version is a no-op.
  Status Swap(const std::string& name, uint64_t version);

  /// Removes `version` from the store. The active version cannot be
  /// retired — Swap() first. The session object itself is destroyed when
  /// the last in-flight request releases its pin (RCU drain).
  Status Retire(const std::string& name, uint64_t version);

  /// Pins the active version of `name`: one shared_ptr copy made under the
  /// entry mutex. The returned session is immutable and thread-safe; hold
  /// the pointer for the duration of one request or batch, then drop it.
  /// Returns nullptr for unknown names.
  std::shared_ptr<const InferenceSession> Acquire(
      const std::string& name) const;

  /// Pins a specific stored version (shadow traffic, A/B reads). nullptr if
  /// the name or version is unknown.
  std::shared_ptr<const InferenceSession> AcquireVersion(
      const std::string& name, uint64_t version) const;

  struct VersionInfo {
    uint64_t version = 0;
    bool active = false;
    bool quantized = false;  // int8 forward (InferenceSession::quantized)
  };
  struct ModelInfo {
    std::string name;
    uint64_t active_version = 0;
    std::vector<VersionInfo> versions;
  };

  /// Point-in-time inventory, name-sorted; versions ascending.
  std::vector<ModelInfo> List() const;

  /// True when `name` has at least one published version.
  bool Has(const std::string& name) const;

 private:
  struct Entry {
    // Guards the version store and the bookkeeping below. Never held while
    // a model loads or a forward runs.
    mutable std::mutex mu;
    std::map<uint64_t, std::shared_ptr<const InferenceSession>> versions;
    uint64_t next_version = 1;
    uint64_t active_version = 0;
    // The published pointer, copied under `mu` by Acquire(). Not a
    // std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic releases the
    // reader's internal spinlock with a relaxed RMW, so load() has no
    // happens-before edge to the next store() — a formal data race that
    // TSan reports. Acquire is per-batch, not per-request, so a
    // mutex-guarded copy costs nothing measurable and keeps the TSan
    // sweep meaningful.
    std::shared_ptr<const InferenceSession> active;
  };

  StatusOr<uint64_t> PublishSession(
      const std::string& name,
      std::shared_ptr<const InferenceSession> session);

  /// Looks up (shared lock) or creates (unique lock) the entry for `name`.
  Entry& EntryFor(const std::string& name);
  /// nullptr when the name was never published.
  const Entry* FindEntry(const std::string& name) const;

  const Options options_;
  // Guards only the map topology; entries are never erased, and unique_ptr
  // keeps Entry addresses stable, so a caller may use an Entry& after
  // releasing this lock.
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace serve
}  // namespace rotom

#endif  // ROTOM_SERVE_REGISTRY_H_
