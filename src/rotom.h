#ifndef ROTOM_ROTOM_H_
#define ROTOM_ROTOM_H_

// Umbrella header for the Rotom library: a from-scratch C++20 reproduction
// of "Rotom: A Meta-Learned Data Augmentation Framework for Entity Matching,
// Data Cleaning, Text Classification, and Beyond" (SIGMOD 2021).
//
// Layering (each header is also individually includable):
//
//   util/     deterministic RNG, logging, CHECKs, Status, CSV, timers
//   tensor/   dense float tensors + reverse-mode autograd (Variable/ops)
//   nn/       layers, attention, transformer encoder/decoder, optimizers
//   text/     tokenizer, vocabulary, IDF, [COL]/[VAL] record serialization
//   data/     synthetic EM / EDT / TextCLS benchmark generators, CSV
//             loaders, and the DataSource spec (data/source.h)
//   stream/   pull-based endless example pipelines (CsvFileSource, Mix,
//             ShuffleBuffer) for step-budgeted streaming training
//   augment/  pluggable DA operator registry (Table 3 ops + beyond), synonyms, MixDA
//   models/   TransformerClassifier (+ MLM / same-origin pre-training),
//             Seq2SeqModel
//   invda/    the InvDA operator (Algorithm 1 + cached top-k sampling)
//   core/     filtering & weighting models, Algorithm 2 meta-trainer, SSL
//   baselines/ DeepMatcher-, Raha-, Hu et al.- and Kumar et al.-style
//             comparators
//   eval/     metrics and the TaskContext experiment runner
//   serve/    model snapshots + inference (Snapshot, InferenceSession),
//             the versioned model store (ModelRegistry) and the one
//             micro-batching server over it (TenantServer)
//   rotom/    the rotom::api facade (TrainSpec -> Train -> Snapshot)
//
// Quickstart: see examples/quickstart.cc.

#include "augment/mixda.h"
#include "augment/ops.h"
#include "augment/registry.h"
#include "augment/synonyms.h"
#include "baselines/deepmatcher.h"
#include "baselines/nlp_da.h"
#include "baselines/raha_like.h"
#include "core/filtering.h"
#include "core/finetune.h"
#include "core/label_cleaning.h"
#include "core/rotom_trainer.h"
#include "core/ssl.h"
#include "core/weighting.h"
#include "data/dataset.h"
#include "data/edt_gen.h"
#include "data/em_gen.h"
#include "data/loader.h"
#include "data/source.h"
#include "data/textcls_gen.h"
#include "stream/csv_source.h"
#include "stream/stream.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "invda/invda.h"
#include "models/classifier.h"
#include "models/pretrain.h"
#include "models/seq2seq.h"
#include "nn/optim.h"
#include "nn/transformer.h"
#include "rotom/api.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "serve/tenant_server.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"
#include "text/idf.h"
#include "text/records.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

#endif  // ROTOM_ROTOM_H_
