#ifndef ROTOM_STREAM_STREAM_H_
#define ROTOM_STREAM_STREAM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"
#include "util/status.h"

namespace rotom {
namespace stream {

/// Checkpointable position of a stream pipeline: an ordered list of
/// (key, value) counters, one or more per stage, keyed by the stage's
/// position in the pipeline ("root", "root.inner", "root.s0", ...). Small
/// enough to embed in the runlog manifest and a training checkpoint.
///
/// A StreamState is NOT a random-access seek table: restoring means
/// replaying draws on a freshly built pipeline of the same spec
/// (RestoreByReplay below) until the counters line up. That keeps every
/// stage's state down to plain integers — no buffered examples, no file
/// offsets that would break across CSV rewrites — at the cost of O(draws)
/// resume, which is cheap relative to a training step.
class StreamState {
 public:
  void Set(const std::string& key, int64_t value);
  bool Has(const std::string& key) const;
  /// Returns the value for `key`, or `fallback` when absent.
  int64_t Get(const std::string& key, int64_t fallback = 0) const;

  const std::vector<std::pair<std::string, int64_t>>& entries() const {
    return entries_;
  }

  bool operator==(const StreamState& other) const {
    return entries_ == other.entries_;
  }
  bool operator!=(const StreamState& other) const { return !(*this == other); }

  /// "key=value;key=value;..." — stable, newline-free, embeddable in JSONL.
  std::string Serialize() const;
  static StatusOr<StreamState> Parse(const std::string& text);

 private:
  std::vector<std::pair<std::string, int64_t>> entries_;
};

/// Pull-based infinite example stream. Stages compose by ownership:
/// ShuffleBuffer(Mix({CsvFileSource, VectorSource})) — each stage pulls
/// from its inner stream on demand.
///
/// Determinism contract (DESIGN.md §14): a stage owns its randomness and
/// derives every random decision as Rng(SplitSeed(stage_seed, draws_))
/// from a per-stage draw counter, rather than consuming a caller-threaded
/// Rng. That makes the example sequence a pure function of (pipeline spec,
/// seeds) — independent of which thread pulls, how far a prefetcher runs
/// ahead, or what other stages draw — and makes the complete stream state
/// a handful of integer counters.
///
/// Next() never returns "end of stream": sources wrap around (CsvFileSource
/// re-opens, VectorSource restarts) because streaming training is
/// step-budgeted, not epoch-budgeted. Errors (vanished file, ragged row)
/// are returned as Status and are fatal to the pipeline.
class ExampleStream {
 public:
  virtual ~ExampleStream() = default;

  /// Produces the next example. Deterministic given the pipeline spec and
  /// the number of prior calls.
  virtual StatusOr<data::Example> Next() = 0;

  /// Number of successful Next() calls on this stage.
  virtual int64_t draws() const = 0;

  /// Records this stage's counters (and recursively its children's) under
  /// `prefix` into *state.
  virtual void SaveState(const std::string& prefix,
                         StreamState* state) const = 0;
};

/// Captures the full pipeline state rooted at `root` under the "root"
/// prefix.
StreamState CaptureState(const ExampleStream& root);

/// Restores a freshly built pipeline (same spec and seeds as the one
/// `target` was captured from) by replaying target["root"] draws, then
/// verifies the replayed counters match `target` exactly. A mismatch means
/// the pipeline spec drifted since the checkpoint (different sources,
/// weights, seeds, or buffer capacity) and is returned as an error rather
/// than silently resuming a different stream.
Status RestoreByReplay(ExampleStream& root, const StreamState& target);

/// Wraps an in-memory example vector as an endless stream that wraps
/// around. Without `shuffle_seed` examples are yielded in order — the
/// source for mixtures of a file stream with an in-memory dataset, and for
/// tests. With it, pass p (draws [p*n, (p+1)*n)) is a permutation drawn
/// from Rng(SplitSeed(*shuffle_seed, p)): every example exactly once per
/// pass, in an order that is still a pure function of the draw counter —
/// the epochs of core::TrainLoop.
class VectorSource : public ExampleStream {
 public:
  VectorSource(std::string name, std::vector<data::Example> examples,
               std::optional<uint64_t> shuffle_seed = std::nullopt);

  StatusOr<data::Example> Next() override;
  int64_t draws() const override { return draws_; }
  void SaveState(const std::string& prefix,
                 StreamState* state) const override;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<data::Example> examples_;
  std::optional<uint64_t> shuffle_seed_;
  std::vector<size_t> order_;  // permutation of the current pass
  int64_t order_pass_ = -1;
  int64_t draws_ = 0;
};

/// Weighted interleave of multiple streams: each Next() picks a child with
/// probability proportional to its weight, via Rng(SplitSeed(seed, draws))
/// so draw i's source choice is independent of draws j != i. SOTASTREAM's
/// mixer, minus the worker sharding (parallelism lives in the prefetcher
/// above this layer).
class Mix : public ExampleStream {
 public:
  /// Validates the mixture: errors on an empty child list, a
  /// weight/children size mismatch, or any non-positive weight.
  static StatusOr<std::unique_ptr<Mix>> Create(
      std::vector<std::unique_ptr<ExampleStream>> children,
      std::vector<double> weights, uint64_t seed);

  StatusOr<data::Example> Next() override;
  int64_t draws() const override { return draws_; }
  void SaveState(const std::string& prefix,
                 StreamState* state) const override;

  size_t num_children() const { return children_.size(); }
  const ExampleStream& child(size_t i) const { return *children_[i]; }

 private:
  Mix(std::vector<std::unique_ptr<ExampleStream>> children,
      std::vector<double> weights, uint64_t seed);

  std::vector<std::unique_ptr<ExampleStream>> children_;
  std::vector<double> weights_;
  uint64_t seed_;
  int64_t draws_ = 0;
};

/// Bounded-reservoir shuffle: keeps `capacity` examples buffered; each
/// Next() picks a uniformly random slot via Rng(SplitSeed(seed, draws)),
/// yields it, and refills the slot from the inner stream. Approximate
/// shuffling with O(capacity) memory — the streaming replacement for the
/// epoch loop's full-dataset Fisher-Yates. capacity == 1 degenerates to a
/// pass-through.
class ShuffleBuffer : public ExampleStream {
 public:
  ShuffleBuffer(std::unique_ptr<ExampleStream> inner, int64_t capacity,
                uint64_t seed);

  StatusOr<data::Example> Next() override;
  int64_t draws() const override { return draws_; }
  void SaveState(const std::string& prefix,
                 StreamState* state) const override;

  int64_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<ExampleStream> inner_;
  int64_t capacity_;
  uint64_t seed_;
  std::vector<data::Example> buffer_;  // filled lazily on first Next()
  int64_t draws_ = 0;
};

}  // namespace stream
}  // namespace rotom

#endif  // ROTOM_STREAM_STREAM_H_
