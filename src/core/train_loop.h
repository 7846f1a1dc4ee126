#ifndef ROTOM_CORE_TRAIN_LOOP_H_
#define ROTOM_CORE_TRAIN_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/train_checkpoint.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "models/classifier.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "stream/stream.h"
#include "util/prefetcher.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace rotom {
namespace core {

/// Outcome of a training run: the best validation score (percentage), wall
/// time, and the number of validation rounds ("epochs") and optimizer steps
/// executed. `loss_history` records the training loss of every optimizer
/// step — the determinism tests compare these trajectories bit-for-bit
/// across pipeline configurations. `runlog_path` is the flight-recorder
/// JSONL file written for the run (obs/runlog.h), "" when run logging is
/// off. `status` is an error when the run could not start or finish — an
/// unreadable, corrupted, or mismatched `resume_from` checkpoint, a failing
/// example stream, a checkpoint that could not be written — and the model
/// weights are then unspecified.
struct TrainResult {
  double best_valid_metric = 0.0;
  double seconds = 0.0;
  int64_t epochs_run = 0;
  int64_t steps = 0;
  std::vector<float> loss_history;
  std::string runlog_path;
  Status status;
};

/// Per-purpose seed salts of the training loop, split from the run seed:
/// candidate generation (keyed by source draw) and per-step training
/// randomness (keyed by global step). Arbitrary but frozen — changing either
/// breaks resume of existing checkpoints.
inline constexpr uint64_t kStreamGenSalt = 0x526f746f6d477331ULL;
inline constexpr uint64_t kStreamStepSalt = 0x526f746f6d537432ULL;

/// One example the loop pulled for a batch, with the generator its
/// augmentations must be drawn from: Rng(SplitSeed(gen_seed, draw index)),
/// keyed by the source draw counter so candidates are the same at any
/// thread count and after a resume.
struct PulledExample {
  data::Example example;
  Rng rng;
};

/// Where a step sits in the run.
struct StepInfo {
  int64_t step;   // global step index from 0; continues across a resume
  int64_t round;  // validation round of the step (the run log's `epoch`)
};

/// What a trainer plugs into the loop. `produce` and `step` are required;
/// the rest may be left empty.
template <typename Batch>
struct TrainerParts {
  /// Builds one batch (candidate generation + encoding) from the pulled
  /// examples. Runs on the prefetch thread: it must not touch state the
  /// step reads or writes.
  std::function<Batch(std::vector<PulledExample>)> produce;
  /// One optimizer step with this step's own Rng. Returns the step's
  /// run-log record with `loss` and any trainer-specific fields filled in;
  /// the loop fills `step` and `epoch`.
  std::function<obs::RunLogStep(Batch, const StepInfo&, Rng&)> step;
  /// Called at each round end before validation; returns the round's
  /// filter keep fraction for the `epoch` event (negative = none).
  std::function<double()> end_round;
  /// Trainer state beyond the model, best-state and loop counters: written
  /// into every checkpoint and read back on resume.
  std::function<void(TrainCheckpoint*)> save;
  std::function<Status(const TrainCheckpoint&)> restore;
};

/// The one training loop of RotomTrainer and FinetuneTrainer, SOTASTREAM
/// style (DESIGN.md §14): an example source feeds a prefetched producer,
/// the trainer's step runs on the consumer, and every `valid_every` steps
/// a round ends — validation, best-state selection, the run log's `epoch`
/// and `stream_state` events, and (with `checkpoint_path`) an RTCK1
/// checkpoint that `resume_from` continues bit-identically.
///
/// An epoch is one finite pass of a stream. Without
/// `StreamingOptions::source` the loop streams `ds.train` through a
/// VectorSource whose every pass is a fresh permutation, under a budget of
/// `epochs` passes: max_steps = epochs x ceil(|train| / pulls_per_batch)
/// and one validation round per pass. A batch may straddle two passes.
///
/// Randomness is keyed by counters only — candidates by source draw, step
/// stochasticity by global step — so the trajectory is bit-identical across
/// prefetch on/off and any thread count.
class TrainLoop {
 public:
  struct Config {
    models::TransformerClassifier* model = nullptr;
    eval::MetricKind metric = eval::MetricKind::kAccuracy;
    /// `train` is the epoch source when no stream is configured; `valid`
    /// is scored at every round end.
    const data::TaskDataset* ds = nullptr;
    const PipelineOptions* pipeline = nullptr;
    text::EncodingCache* cache = nullptr;  // validation encodings
    obs::RunLog* runlog = nullptr;         // null = run logging off
    int64_t epochs = 1;
    int64_t pulls_per_batch = 1;  // examples pulled per optimizer step
    uint64_t seed = 1;
  };

  explicit TrainLoop(Config config);

  /// Adds the loop's budget and resume fields to a run-log manifest.
  void AnnotateManifest(obs::RunLogManifest* manifest) const;

  /// Restores from `resume_from` (when set), runs the remaining steps, and
  /// leaves the best-validation weights in the model, in eval mode.
  template <typename Batch>
  TrainResult Run(const TrainerParts<Batch>& parts);

 private:
  // The prefetch thread's output: a batch and the stream cursors captured
  // right after its pulls. The capture rides with the batch because the
  // prefetcher runs ahead of the consumer: the resumable position is the
  // state of the last consumed batch.
  template <typename Batch>
  struct Produced {
    Batch batch;
    stream::StreamState state;
    Status status;
  };

  Status Restore(const std::function<Status(const TrainCheckpoint&)>& restore);
  StatusOr<std::vector<PulledExample>> Pull();
  // Records a finished step; at a round boundary validates, logs, and
  // checkpoints.
  Status EndStep(obs::RunLogStep record, stream::StreamState consumed,
                 const std::function<double()>& end_round,
                 const std::function<void(TrainCheckpoint*)>& save);
  Status WriteCheckpoint(const std::function<void(TrainCheckpoint*)>& save);
  TrainResult Finish(Status status);

  Config config_;
  const StreamingOptions& streaming_;
  WallTimer timer_;
  std::unique_ptr<stream::ExampleStream> owned_source_;  // epoch mode
  stream::ExampleStream* source_;
  int64_t max_steps_ = 0;
  int64_t valid_every_ = 1;
  uint64_t gen_seed_ = 0;
  uint64_t step_salt_ = 0;

  int64_t step_ = 0;  // global steps completed
  stream::StreamState consumed_;
  NamedTensors best_state_;
  double best_metric_ = -1.0;
  TrainResult result_;
};

template <typename Batch>
TrainResult TrainLoop::Run(const TrainerParts<Batch>& parts) {
  if (Status s = Restore(parts.restore); !s.ok()) return Finish(s);
  // Capture the resume point before the prefetcher exists: its producer
  // thread starts pulling immediately and owns the source from then on.
  consumed_ = stream::CaptureState(*source_);

  auto produce = [&](size_t) {
    ROTOM_TRACE_SPAN("stream.batch");
    Produced<Batch> out;
    auto pulled = Pull();
    if (!pulled.ok()) {
      out.status = pulled.status();
      return out;
    }
    out.batch = parts.produce(std::move(pulled).value());
    out.state = stream::CaptureState(*source_);
    return out;
  };
  Prefetcher<Produced<Batch>> prefetcher(
      produce, static_cast<size_t>(max_steps_ - step_),
      config_.pipeline->prefetch, config_.pipeline->prefetch_depth);

  static obs::Histogram& stall = obs::GetHistogram("stream.stall_us");
  config_.model->SetTraining(true);
  for (;;) {
    WallTimer wait;
    auto next = prefetcher.Next();
    stall.Record(static_cast<uint64_t>(wait.Seconds() * 1e6));
    if (!next) break;
    if (!next->status.ok()) return Finish(next->status);
    const StepInfo info{step_, step_ / valid_every_};
    Rng rng(SplitSeed(step_salt_, static_cast<uint64_t>(step_)));
    obs::RunLogStep record = parts.step(std::move(next->batch), info, rng);
    if (Status s = EndStep(std::move(record), std::move(next->state),
                           parts.end_round, parts.save);
        !s.ok())
      return Finish(s);
  }
  return Finish(Status::Ok());
}

/// Checkpoint helpers for trainer state: a module's parameters under
/// `prefix`, and an Adam optimizer's moments plus its `<prefix>step` count.
/// The restores validate names and shapes and return an error Status
/// instead of aborting on a mismatched checkpoint.
void SaveModule(const nn::Module& module, const std::string& prefix,
                TrainCheckpoint* ckpt);
Status RestoreModule(const TrainCheckpoint& ckpt, const std::string& prefix,
                     nn::Module* module);
void SaveAdam(const nn::Adam& opt, const std::string& prefix,
              TrainCheckpoint* ckpt);
Status RestoreAdam(const TrainCheckpoint& ckpt, const std::string& prefix,
                   nn::Adam* opt);

}  // namespace core
}  // namespace rotom

#endif  // ROTOM_CORE_TRAIN_LOOP_H_
