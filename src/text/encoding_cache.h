#ifndef ROTOM_TEXT_ENCODING_CACHE_H_
#define ROTOM_TEXT_ENCODING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "text/tokenizer.h"
#include "text/vocab.h"

namespace rotom {
namespace text {

/// Sharded, thread-safe memo from raw text to its classifier encoding
/// (ids + mask + overlap flags). Tokenization and flag computation are pure
/// functions of (vocab, max_len, text), so a row encoded once can be reused
/// for the rest of the run: originals re-visited every epoch, validation
/// texts re-scored every eval, and repeated left/right records in serialized
/// EM pairs all become O(1) lookups after the first encounter.
///
/// Each shard is an independent LRU (mutex + intrusive list + hash map), so
/// concurrent encoders from the prefetcher contend only 1/kShards of the
/// time. A `capacity_rows` of 0 disables memoization entirely — Encode()
/// computes and returns without storing anything (counting the call as a
/// miss) — which gives the
/// cache-off configuration the exact same call path as cache-on (required by
/// the determinism test: the cache must never change results, only timing).
///
/// The cache is keyed by text alone, so it must not be shared between models
/// with different vocabularies or max_len; EncodingCache is owned by the
/// component that owns those (see core/pipeline.h).
///
/// Thread-safety: Encode()/GetStats()/Size()/Clear() are safe to call
/// concurrently; each shard takes its own mutex and the pointed-to
/// Vocabulary is only read. The vocabulary must outlive the cache.
///
/// Determinism: Encode() is a pure memo — hit or miss, bypass or cached, the
/// returned row is byte-identical to a fresh encode, and no Rng is consumed
/// (pipeline_determinism_test covers all configurations).
///
/// Observability: every lookup also bumps the process-wide obs counters
/// `encoding_cache.hits` / `encoding_cache.misses` / `encoding_cache.
/// evictions` (summed across all cache instances; the per-instance Stats
/// below remain exact per cache). See OBSERVABILITY.md.
class EncodingCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// `capacity_rows` caps the total number of cached rows across all shards
  /// (0 = bypass mode, nothing is ever stored).
  EncodingCache(const Vocabulary* vocab, int64_t max_len,
                size_t capacity_rows);

  EncodingCache(const EncodingCache&) = delete;
  EncodingCache& operator=(const EncodingCache&) = delete;

  /// Returns the encoding of `text`, computing and memoizing it on a miss.
  /// The returned pointer is valid for the lifetime of the cache (rows are
  /// shared_ptr-backed, so eviction cannot invalidate a row in use).
  std::shared_ptr<const EncodedRow> Encode(const std::string& text);

  /// Sums hit/miss/eviction counters across shards. Counters are relaxed
  /// atomics: totals are exact once concurrent Encode() calls have finished.
  Stats GetStats() const;

  /// Total rows currently cached across all shards.
  size_t Size() const;

  /// Drops every cached row (counters are kept).
  void Clear();

  size_t capacity() const { return capacity_; }
  int64_t max_len() const { return max_len_; }

 private:
  static constexpr size_t kShards = 8;

  struct Shard {
    mutable std::mutex mu;
    // Most-recently-used key at the front; the map entry keeps an iterator
    // into the list so touch/evict are O(1).
    std::list<std::string> lru;
    struct Entry {
      std::shared_ptr<const EncodedRow> row;
      std::list<std::string>::iterator it;
    };
    std::unordered_map<std::string, Entry> map;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  size_t ShardIndex(const std::string& text) const;

  const Vocabulary* vocab_;
  int64_t max_len_;
  size_t capacity_;
  size_t shard_capacity_;
  Shard shards_[kShards];
};

/// Concatenates cached rows into a classifier batch. Produces exactly what
/// EncodeBatchForClassifier(vocab, texts, cache.max_len()) would (overlap
/// flags are per-row, so row-wise concatenation matches the batch
/// computation), but repeated texts cost a lookup instead of a re-encode.
/// The returned batch owns its buffers; callers may mutate them freely.
EncodedBatch AssembleEncodedBatch(EncodingCache& cache,
                                  std::span<const std::string> texts);

}  // namespace text
}  // namespace rotom

#endif  // ROTOM_TEXT_ENCODING_CACHE_H_
