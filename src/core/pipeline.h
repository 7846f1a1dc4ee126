#ifndef ROTOM_CORE_PIPELINE_H_
#define ROTOM_CORE_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "text/encoding_cache.h"
#include "text/vocab.h"

namespace rotom {

namespace stream {
class ExampleStream;  // stream/stream.h
}  // namespace stream

namespace core {

/// Where the training loop (core/train_loop.h) draws examples from, its
/// step budget, and its checkpointing. Every run is a stream: without a
/// `source` the loop streams TaskDataset::train as `epochs` passes, each a
/// fresh permutation, with one validation round per pass. With a `source`
/// it pulls labeled examples from that ExampleStream pipeline
/// (stream/stream.h) for `max_steps` optimizer steps, validating every
/// `valid_every` steps against the materialized valid split. The stream
/// replaces only the *train* split — valid/test and the unlabeled SSL pool
/// stay materialized.
///
/// Like `op_set`, `source` is a semantic knob: determinism holds per
/// configuration (same stream spec + seeds → bit-identical run), not
/// across sources.
struct StreamingOptions {
  /// Root of the example pipeline (typically ShuffleBuffer(Mix(sources))).
  /// Shared so a caller can inspect stream state after training; the
  /// trainer is the only puller while Train runs. Null = stream
  /// TaskDataset::train for `epochs` passes.
  std::shared_ptr<stream::ExampleStream> source;

  /// Total optimizer steps; must be > 0 when `source` is set (without one
  /// the budget is `epochs` passes).
  int64_t max_steps = 0;

  /// Validation/checkpoint cadence in steps when `source` is set; 0 =
  /// ceil(max_steps / epochs) so a streaming run logs the same number of
  /// "epoch" rounds as the epoch-budgeted configuration it replaces.
  int64_t valid_every = 0;

  /// When non-empty, a TrainCheckpoint (model + optimizers + stream
  /// cursors) is written here atomically at every validation round.
  std::string checkpoint_path;

  /// When non-empty, training state is restored from this checkpoint and
  /// the run continues at the recorded step; a `source` must be a freshly
  /// built pipeline of the same spec (it is fast-forwarded by replay). The
  /// resumed run's remaining steps reproduce the uninterrupted run
  /// bit-identically. A missing, corrupted, or mismatched checkpoint makes
  /// Train return TrainResult::status as an error.
  std::string resume_from;
};

/// Configuration of the training data pipeline shared by RotomTrainer,
/// FinetuneTrainer, and the pretraining loops. The pipeline is a pure
/// performance layer: every setting combination produces bit-identical
/// training trajectories (augmentation uses per-example RNG streams keyed
/// by the source draw counter, encoding consumes no randomness, and the
/// cache only memoizes pure functions), so these knobs trade memory and
/// threads for wall-clock only — with two flagged exceptions, `op_set`,
/// which selects the augmentation-operator space itself, and
/// `streaming.source` (see their comments).
/// pipeline_determinism_test enforces this — including with
/// the obs metrics/tracing layer recording, which is held to the same
/// contract (see obs/metrics.h).
///
/// Thread-safety: PipelineOptions is plain data; copy it freely. The
/// components it configures (EncodingCache, Prefetcher) document their own
/// concurrency rules.
///
/// Observability: whether each knob pays off is visible in the obs registry
/// — cache effectiveness via `encoding_cache.hits`/`.misses`, prefetch
/// health via `prefetcher.consumer_blocked` (steps that waited on data) and
/// `prefetcher.producer_blocked` (queue full); per-phase wall time via the
/// `span.*.us` histograms. See OBSERVABILITY.md for how to read them.
struct PipelineOptions {
  /// Memoize text encodings (ids + mask + overlap flags) across batches and
  /// epochs. 0 rows disables the cache.
  size_t cache_rows = 1 << 16;

  /// Materialize the next batch (augmentation + encoding) on a background
  /// thread while the current step trains. Off = produce inline, same code.
  bool prefetch = true;

  /// Queue depth of the prefetcher; 2 = double buffering.
  size_t prefetch_depth = 2;

  /// Directory for per-run flight-recorder JSONL logs (obs/runlog.h). Empty
  /// falls back to the ROTOM_RUNLOG_DIR environment variable; when both are
  /// empty, run logging is off. The log's step/epoch events are themselves
  /// part of the determinism contract above: bit-identical across every
  /// cache/prefetch/thread-count combination.
  std::string runlog_dir;

  /// Operator-set spec resolved against augment::OperatorRegistry (grammar
  /// in registry.h: "default", "all", comma lists, '*' globs). The one
  /// *semantic* knob in this struct — unlike the knobs above it changes
  /// which augmentations exist, so the determinism contract holds per spec
  /// value, not across values. It rides in PipelineOptions because this is
  /// the one config object that already reaches all five trainers and the
  /// eval candidate generators. "default" = the paper's Table 3 per-task
  /// set, which reproduces the legacy hard-wired behavior bit-for-bit.
  std::string op_set = "default";

  /// Example source, step budget and checkpointing of the training loop
  /// (see StreamingOptions above). Defaults to `epochs` passes over the
  /// train split, no checkpoints.
  StreamingOptions streaming;

  bool cache_enabled() const { return cache_rows > 0; }
};

/// Builds the (possibly bypassing) cache for a model's vocabulary/max_len.
inline std::shared_ptr<text::EncodingCache> MakeEncodingCache(
    const PipelineOptions& options, const text::Vocabulary* vocab,
    int64_t max_len) {
  return std::make_shared<text::EncodingCache>(vocab, max_len,
                                               options.cache_rows);
}

}  // namespace core
}  // namespace rotom

#endif  // ROTOM_CORE_PIPELINE_H_
