#include "serve/registry.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rotom {
namespace serve {

namespace {

obs::Counter& LoadCounter() {
  static obs::Counter& c = obs::GetCounter("registry.loads");
  return c;
}

obs::Counter& SwapCounter() {
  static obs::Counter& c = obs::GetCounter("registry.swaps");
  return c;
}

obs::Counter& RetiredCounter() {
  static obs::Counter& c = obs::GetCounter("registry.retired");
  return c;
}

obs::Gauge& ModelsGauge() {
  static obs::Gauge& g = obs::GetGauge("registry.models");
  return g;
}

obs::Gauge& VersionsGauge() {
  static obs::Gauge& g = obs::GetGauge("registry.versions");
  return g;
}

}  // namespace

StatusOr<uint64_t> ModelRegistry::Publish(const std::string& name,
                                          const std::string& path) {
  // Load + session build happen outside every lock: a multi-second snapshot
  // load must not stall Acquire() or a concurrent Publish of another tenant.
  ROTOM_TRACE_SPAN("registry.load");
  auto snapshot = Snapshot::Load(path);
  if (!snapshot.ok()) return snapshot.status();
  auto session = InferenceSession::Create(snapshot.value(), options_.session);
  if (!session.ok()) return session.status();
  return PublishSession(name, std::shared_ptr<const InferenceSession>(
                                  std::move(session).value()));
}

StatusOr<uint64_t> ModelRegistry::Publish(const std::string& name,
                                          const Snapshot& snapshot) {
  ROTOM_TRACE_SPAN("registry.load");
  auto session = InferenceSession::Create(snapshot, options_.session);
  if (!session.ok()) return session.status();
  return PublishSession(name, std::shared_ptr<const InferenceSession>(
                                  std::move(session).value()));
}

ModelRegistry::Entry& ModelRegistry::EntryFor(const std::string& name) {
  {
    std::shared_lock lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) return *it->second;
  }
  std::unique_lock lock(mu_);
  std::unique_ptr<Entry>& slot = entries_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Entry>();
    ModelsGauge().Set(static_cast<int64_t>(entries_.size()));
  }
  return *slot;
}

const ModelRegistry::Entry* ModelRegistry::FindEntry(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

StatusOr<uint64_t> ModelRegistry::PublishSession(
    const std::string& name, std::shared_ptr<const InferenceSession> session) {
  Entry& entry = EntryFor(name);
  std::lock_guard lock(entry.mu);
  const uint64_t version = entry.next_version++;
  entry.versions.emplace(version, session);
  if (entry.active_version == 0) {
    // First version of this name: activate immediately so the tenant is
    // servable as soon as Publish returns.
    entry.active_version = version;
    entry.active = std::move(session);
  }
  LoadCounter().Add();
  VersionsGauge().Add(1);
  return version;
}

Status ModelRegistry::Swap(const std::string& name, uint64_t version) {
  ROTOM_TRACE_SPAN("registry.swap");
  const Entry* found = FindEntry(name);
  if (found == nullptr) {
    return Status::Error("registry has no model named '" + name + "'");
  }
  // Entries are append-only and address-stable, so mutating through the
  // lookup is safe once the entry mutex is held.
  Entry& entry = const_cast<Entry&>(*found);
  std::lock_guard lock(entry.mu);
  auto vit = entry.versions.find(version);
  if (vit == entry.versions.end()) {
    return Status::Error("model '" + name + "' has no version " +
                         std::to_string(version));
  }
  if (entry.active_version == version) return Status::Ok();
  // The linearization point: reassignment under the entry mutex. Readers
  // that already copied the old pointer keep serving on it; the next
  // Acquire() copies the new session.
  entry.active = vit->second;
  entry.active_version = version;
  SwapCounter().Add();
  if (options_.servelog != nullptr) options_.servelog->LogSwap(name, version);
  return Status::Ok();
}

Status ModelRegistry::Retire(const std::string& name, uint64_t version) {
  const Entry* found = FindEntry(name);
  if (found == nullptr) {
    return Status::Error("registry has no model named '" + name + "'");
  }
  Entry& entry = const_cast<Entry&>(*found);
  std::lock_guard lock(entry.mu);
  if (entry.active_version == version) {
    return Status::Error("version " + std::to_string(version) + " of '" +
                         name + "' is active; swap to another version first");
  }
  if (entry.versions.erase(version) == 0) {
    return Status::Error("model '" + name + "' has no version " +
                         std::to_string(version));
  }
  // The store's reference is gone; in-flight requests still pinning the
  // session keep it alive until the last one completes (the RCU drain).
  RetiredCounter().Add();
  VersionsGauge().Add(-1);
  return Status::Ok();
}

std::shared_ptr<const InferenceSession> ModelRegistry::Acquire(
    const std::string& name) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) return nullptr;
  std::lock_guard lock(entry->mu);
  return entry->active;
}

std::shared_ptr<const InferenceSession> ModelRegistry::AcquireVersion(
    const std::string& name, uint64_t version) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) return nullptr;
  std::lock_guard lock(entry->mu);
  auto vit = entry->versions.find(version);
  return vit == entry->versions.end() ? nullptr : vit->second;
}

std::vector<ModelRegistry::ModelInfo> ModelRegistry::List() const {
  std::shared_lock lock(mu_);
  std::vector<ModelInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    std::lock_guard entry_lock(entry->mu);
    ModelInfo info;
    info.name = name;
    info.active_version = entry->active_version;
    for (const auto& [version, session] : entry->versions) {
      info.versions.push_back(VersionInfo{
          version, version == entry->active_version, session->quantized()});
    }
    out.push_back(std::move(info));
  }
  return out;
}

bool ModelRegistry::Has(const std::string& name) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) return false;
  std::lock_guard lock(entry->mu);
  return !entry->versions.empty();
}

}  // namespace serve
}  // namespace rotom
