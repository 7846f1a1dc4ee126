#include "text/encoding_cache.h"

#include <cstring>
#include <functional>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace rotom {
namespace text {

namespace {

// Process-wide observability counters, aggregated across every cache
// instance (per-instance exact totals stay available via GetStats()). See
// OBSERVABILITY.md.
obs::Counter& HitCounter() {
  static obs::Counter& counter = obs::GetCounter("encoding_cache.hits");
  return counter;
}
obs::Counter& MissCounter() {
  static obs::Counter& counter = obs::GetCounter("encoding_cache.misses");
  return counter;
}
obs::Counter& EvictionCounter() {
  static obs::Counter& counter = obs::GetCounter("encoding_cache.evictions");
  return counter;
}

}  // namespace

EncodingCache::EncodingCache(const Vocabulary* vocab, int64_t max_len,
                             size_t capacity_rows)
    : vocab_(vocab), max_len_(max_len), capacity_(capacity_rows) {
  ROTOM_CHECK(vocab != nullptr);
  ROTOM_CHECK_GE(max_len, 2);
  // Round the per-shard cap up so the shards together hold at least
  // `capacity_rows`; a tiny capacity still caches one row per shard.
  shard_capacity_ = capacity_ == 0 ? 0 : (capacity_ + kShards - 1) / kShards;
}

size_t EncodingCache::ShardIndex(const std::string& text) const {
  return std::hash<std::string>{}(text) % kShards;
}

std::shared_ptr<const EncodedRow> EncodingCache::Encode(
    const std::string& text) {
  if (capacity_ == 0) {
    // Bypass mode: identical code path minus memoization, so enabling the
    // cache can only change timing, never results. Every call is a miss.
    shards_[ShardIndex(text)].misses.fetch_add(1, std::memory_order_relaxed);
    MissCounter().Add(1);
    return std::make_shared<const EncodedRow>(
        EncodeRowForClassifier(*vocab_, text, max_len_));
  }
  Shard& shard = shards_[ShardIndex(text)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(text);
    if (it != shard.map.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      HitCounter().Add(1);
      // Touch: move the key to the MRU position.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.it);
      return it->second.row;
    }
  }
  // Encode outside the lock — tokenization is the expensive part and is a
  // pure function, so a racing duplicate encode is wasted work, not a bug.
  auto row = std::make_shared<const EncodedRow>(
      EncodeRowForClassifier(*vocab_, text, max_len_));
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(text);
    if (it != shard.map.end()) {
      // Lost the race; adopt the winner's row so all callers share one copy.
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      HitCounter().Add(1);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.it);
      return it->second.row;
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    MissCounter().Add(1);
    while (shard.map.size() >= shard_capacity_ && !shard.lru.empty()) {
      shard.map.erase(shard.lru.back());
      shard.lru.pop_back();
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
      EvictionCounter().Add(1);
    }
    shard.lru.push_front(text);
    shard.map.emplace(text, Shard::Entry{row, shard.lru.begin()});
  }
  return row;
}

EncodingCache::Stats EncodingCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    stats.hits += shard.hits.load(std::memory_order_relaxed);
    stats.misses += shard.misses.load(std::memory_order_relaxed);
    stats.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  return stats;
}

size_t EncodingCache::Size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

void EncodingCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.lru.clear();
  }
}

EncodedBatch AssembleEncodedBatch(EncodingCache& cache,
                                  std::span<const std::string> texts) {
  const int64_t max_len = cache.max_len();
  EncodedBatch batch;
  batch.batch = static_cast<int64_t>(texts.size());
  batch.max_len = max_len;
  batch.ids.reserve(batch.batch * max_len);
  batch.flags.reserve(batch.batch * max_len);
  batch.mask = Tensor({batch.batch, max_len});
  float* mask = batch.mask.data();
  for (int64_t i = 0; i < batch.batch; ++i) {
    const std::shared_ptr<const EncodedRow> row = cache.Encode(texts[i]);
    batch.ids.insert(batch.ids.end(), row->ids.begin(), row->ids.end());
    batch.flags.insert(batch.flags.end(), row->flags.begin(),
                       row->flags.end());
    std::memcpy(mask + i * max_len, row->mask.data(),
                sizeof(float) * static_cast<size_t>(max_len));
  }
  return batch;
}

}  // namespace text
}  // namespace rotom
