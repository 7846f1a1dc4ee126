#ifndef ROTOM_ROTOM_API_H_
#define ROTOM_ROTOM_API_H_

#include <cstdint>
#include <memory>

#include "data/dataset.h"
#include "data/source.h"
#include "eval/experiment.h"
#include "obs/servelog.h"
#include "serve/obs_http.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "serve/tenant_server.h"
#include "util/status.h"

namespace rotom {
namespace api {

// The stable user-facing surface of the library, covering the whole
// train -> export -> serve lifecycle (ARCHITECTURE.md walks the full
// request path):
//
//   TrainSpec spec{.source = data::DataSource::Inline(my_task)};
//   auto report = api::Train(spec);                    // meta-learned DA loop
//   report.value().snapshot.Save("model.rsnap");       // single-file export
//   api::ModelRegistry registry;
//   auto v1 = registry.Publish("matcher", "model.rsnap");   // mmap load
//   api::TenantServer server(&registry, {"matcher"});       // micro-batching
//   auto answer = server.Predict("matcher", "some record text");
//
// One model is a one-tenant server; more models are more names in the same
// registry and server. Versions of a name roll under live traffic:
//
//   auto v2 = registry.Publish("matcher", "model_int8.rsnap");
//   registry.Swap("matcher", v2.value());   // hot-swap under live traffic
//   registry.Retire("matcher", v1.value()); // drains when last pin drops
//
// Everything underneath (TaskContext, trainers, augmentation policies) stays
// reachable for research use; this facade is the supported path for
// applications. Recoverable failures surface as Status, never as aborts.

/// Serving types re-exported under the facade namespace. Int8 serving is
/// part of the surface: QuantizeSnapshot converts a float snapshot to the
/// int8 row-quantized form (tools/rotom_quantize wraps it), and
/// InferenceSession::Options::precision selects the forward-pass numerics.
/// ModelRegistry (Publish/Swap/Retire/Acquire, DESIGN.md §13) owns named
/// versioned models; TenantServer batches per-tenant traffic over it.
/// Serving observability is part of the surface too: ObsHttpOptions on the
/// server's Options starts the live /metrics listener (ObsHttpServer,
/// serve/obs_http.h) and ServeLog (obs/servelog.h) is the serve flight
/// recorder the server and the registry write through.
using obs::ServeLog;
using obs::ServeLogOptions;
using serve::InferenceSession;
using serve::ModelRegistry;
using serve::ObsHttpOptions;
using serve::ObsHttpServer;
using serve::Prediction;
using serve::QuantizeSnapshot;
using serve::Snapshot;
using serve::TenantServer;
using serve::TensorQuantReport;

/// One training request: a data source plus the method and knobs to train
/// it with. Defaults reproduce the paper's headline configuration (the full
/// Rotom filtering+weighting meta-learner) at this repo's scaled-down sizes.
///
/// Data comes in through `source` (data/source.h) — an in-memory dataset
/// (DataSource::Inline), a CSV file or weighted mixture of files
/// (DataSource::File / ::Mixture), or a step-budgeted streaming pipeline
/// (DataSource::Stream / ::StreamOf, DESIGN.md §14). A Stream source runs
/// `stream.max_steps` optimizer steps pulled from the pipeline, with
/// validation/checkpointing every `stream.valid_every` steps, resumable via
/// `stream.resume_from`; any other source trains `options.epochs` passes
/// over the train split (checkpoint/resume via
/// `options.pipeline.streaming`).
struct TrainSpec {
  data::DataSource source;
  eval::Method method = eval::Method::kRotom;
  eval::ExperimentOptions options;
  uint64_t seed = 1;
};

/// What Train() hands back: the evaluation numbers for the run and a
/// self-contained servable snapshot of the fine-tuned model (best validation
/// checkpoint, paired with the task vocabulary and IDF table).
struct TrainReport {
  eval::ExperimentResult metrics;
  serve::Snapshot snapshot;
};

/// Validates the spec, trains one model end to end (vocabulary + IDF build,
/// masked-LM pre-training, the selected method's fine-tuning loop), and
/// packages the result. Returns an error Status for unusable specs — unset
/// data source, unreadable path, empty mixture, non-positive mixture
/// weight, a stream without a step budget, empty train set, fewer than two
/// classes, labels outside [0, num_classes) — and for a `resume_from`
/// checkpoint that is missing, truncated or corrupted, written by another
/// trainer, or taken from a drifted stream spec, instead of CHECK-aborting
/// deep in the trainer. An empty valid set falls back to validating on
/// train (the paper's labeling-budget-saving setup for EM/EDT).
StatusOr<TrainReport> Train(const TrainSpec& spec);

}  // namespace api
}  // namespace rotom

#endif  // ROTOM_ROTOM_API_H_
