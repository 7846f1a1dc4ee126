#include "core/train_loop.h"

#include <algorithm>

#include "util/check.h"

namespace rotom {
namespace core {

namespace {

Status ResumeError(const std::string& path, const std::string& message) {
  return Status::Error("resume_from " + path + ": " + message);
}

// Checks that `ckpt` holds a tensor of the right shape for every entry of
// `expected` (named without `prefix`), so a LoadStateDict over them cannot
// abort.
Status CheckTensors(const TrainCheckpoint& ckpt, const std::string& prefix,
                    const NamedTensors& expected) {
  for (const auto& [name, tensor] : expected) {
    const Tensor* found = ckpt.FindTensor(prefix + name);
    if (found == nullptr) {
      return Status::Error("checkpoint tensor '" + prefix + name +
                           "' not found");
    }
    if (found->shape() != tensor.shape()) {
      return Status::Error("checkpoint tensor '" + prefix + name +
                           "' has a shape mismatch");
    }
  }
  return Status::Ok();
}

}  // namespace

void SaveModule(const nn::Module& module, const std::string& prefix,
                TrainCheckpoint* ckpt) {
  for (auto& [name, t] : module.StateDict(prefix))
    ckpt->tensors().emplace_back(name, std::move(t));
}

Status RestoreModule(const TrainCheckpoint& ckpt, const std::string& prefix,
                     nn::Module* module) {
  if (Status s = CheckTensors(ckpt, prefix, module->StateDict()); !s.ok())
    return s;
  module->LoadStateDict(ckpt.tensors(), prefix);
  return Status::Ok();
}

void SaveAdam(const nn::Adam& opt, const std::string& prefix,
              TrainCheckpoint* ckpt) {
  ckpt->SetInt(prefix + "step", opt.step_count());
  for (auto& [name, t] : opt.StateTensors(prefix))
    ckpt->tensors().emplace_back(name, std::move(t));
}

Status RestoreAdam(const TrainCheckpoint& ckpt, const std::string& prefix,
                   nn::Adam* opt) {
  auto step = ckpt.GetInt(prefix + "step");
  if (!step.ok()) return step.status();
  if (step.value() < 0) {
    return Status::Error("checkpoint scalar '" + prefix + "step' is negative");
  }
  return opt->LoadStateTensors(ckpt.tensors(), prefix, step.value());
}

TrainLoop::TrainLoop(Config config)
    : config_(config), streaming_(config.pipeline->streaming) {
  ROTOM_CHECK(config_.model != nullptr);
  ROTOM_CHECK(config_.ds != nullptr);
  ROTOM_CHECK_GT(config_.pulls_per_batch, 0);
  const int64_t epochs = std::max<int64_t>(1, config_.epochs);
  if (streaming_.source != nullptr) {
    source_ = streaming_.source.get();
    max_steps_ = streaming_.max_steps;
    ROTOM_CHECK_GT(max_steps_, 0);
  } else {
    // Epoch mode: `epochs` passes over ds.train, each a fresh permutation.
    ROTOM_CHECK_MSG(!config_.ds->train.empty(),
                    "training needs a train split or a streaming source");
    owned_source_ = std::make_unique<stream::VectorSource>(
        "train", config_.ds->train, config_.seed);
    source_ = owned_source_.get();
    const int64_t n = static_cast<int64_t>(config_.ds->train.size());
    const int64_t steps_per_pass =
        (n + config_.pulls_per_batch - 1) / config_.pulls_per_batch;
    max_steps_ = std::max<int64_t>(0, config_.epochs) * steps_per_pass;
  }
  // Default cadence ceil(max_steps / epochs): one round per pass in epoch
  // mode, and a streaming run logs as many rounds as the epoch-budgeted
  // configuration it replaces.
  valid_every_ = streaming_.source != nullptr && streaming_.valid_every > 0
                     ? streaming_.valid_every
                     : std::max<int64_t>(1, (max_steps_ + epochs - 1) / epochs);
  gen_seed_ = SplitSeed(config_.seed, kStreamGenSalt);
  step_salt_ = SplitSeed(config_.seed, kStreamStepSalt);
  best_state_ = config_.model->StateDict();
}

void TrainLoop::AnnotateManifest(obs::RunLogManifest* manifest) const {
  manifest->Set("streaming", streaming_.source != nullptr)
      .Set("max_steps", max_steps_)
      .Set("valid_every", valid_every_);
  if (!streaming_.resume_from.empty())
    manifest->Set("resumed_from", streaming_.resume_from);
}

Status TrainLoop::Restore(
    const std::function<Status(const TrainCheckpoint&)>& restore) {
  const std::string& path = streaming_.resume_from;
  if (path.empty()) return Status::Ok();
  auto loaded = TrainCheckpoint::Load(path);
  if (!loaded.ok()) return ResumeError(path, loaded.status().message());
  const TrainCheckpoint& ckpt = loaded.value();

  // Everything is validated before the model is touched, except what only
  // the trainer's restore and the stream replay can check.
  auto step = ckpt.GetInt("step");
  auto epochs_run = ckpt.GetInt("epochs_run");
  auto best_metric = ckpt.GetDouble("best_metric");
  auto stream_scalar = ckpt.GetScalar("stream");
  for (const Status* s : {&step.status(), &epochs_run.status(),
                          &best_metric.status(), &stream_scalar.status()}) {
    if (!s->ok()) return ResumeError(path, s->message());
  }
  if (step.value() < 0 || step.value() > max_steps_) {
    return ResumeError(path, "checkpoint step " + std::to_string(step.value()) +
                                 " is outside this run's budget of " +
                                 std::to_string(max_steps_) + " steps");
  }
  if (epochs_run.value() < 0)
    return ResumeError(path, "checkpoint epochs_run is negative");
  auto target = stream::StreamState::Parse(stream_scalar.value());
  if (!target.ok()) return ResumeError(path, target.status().message());
  const NamedTensors model_state = config_.model->StateDict();
  if (Status s = CheckTensors(ckpt, "best.", model_state); !s.ok())
    return ResumeError(path, s.message());

  if (Status s = RestoreModule(ckpt, "model.", config_.model); !s.ok())
    return ResumeError(path, s.message());
  if (restore) {
    if (Status s = restore(ckpt); !s.ok())
      return ResumeError(path, s.message());
  }
  if (Status s = stream::RestoreByReplay(*source_, target.value()); !s.ok())
    return ResumeError(path, s.message());

  best_state_.clear();
  for (const auto& [name, tensor] : model_state)
    best_state_.emplace_back(name, ckpt.FindTensor("best." + name)->Clone());
  best_metric_ = best_metric.value();
  result_.epochs_run = epochs_run.value();
  step_ = step.value();
  return Status::Ok();
}

StatusOr<std::vector<PulledExample>> TrainLoop::Pull() {
  std::vector<PulledExample> pulled;
  pulled.reserve(static_cast<size_t>(config_.pulls_per_batch));
  for (int64_t j = 0; j < config_.pulls_per_batch; ++j) {
    const uint64_t draw = static_cast<uint64_t>(source_->draws());
    auto example = source_->Next();
    if (!example.ok()) return example.status();
    pulled.push_back(
        {std::move(example).value(), Rng(SplitSeed(gen_seed_, draw))});
  }
  return pulled;
}

Status TrainLoop::EndStep(obs::RunLogStep record, stream::StreamState consumed,
                          const std::function<double()>& end_round,
                          const std::function<void(TrainCheckpoint*)>& save) {
  result_.loss_history.push_back(static_cast<float>(record.loss));
  ++result_.steps;
  if (config_.runlog != nullptr) {
    record.step = result_.steps;
    record.epoch = step_ / valid_every_;
    config_.runlog->LogStep(record);
  }
  consumed_ = std::move(consumed);
  ++step_;
  if (step_ % valid_every_ != 0 && step_ != max_steps_) return Status::Ok();

  // Round end.
  const int64_t round = (step_ - 1) / valid_every_;
  const double keep_fraction = end_round ? end_round() : -1.0;
  const double valid_metric = eval::EvaluateModel(
      *config_.model, config_.ds->valid, config_.metric, config_.cache);
  if (config_.runlog != nullptr)
    config_.runlog->LogEpoch(round, valid_metric, keep_fraction);
  if (valid_metric > best_metric_) {
    best_metric_ = valid_metric;
    best_state_ = config_.model->StateDict();
  }
  ++result_.epochs_run;
  if (config_.runlog != nullptr)
    config_.runlog->LogStreamState(step_, round, consumed_.Serialize());
  if (!streaming_.checkpoint_path.empty()) {
    if (Status s = WriteCheckpoint(save); !s.ok()) return s;
  }
  config_.model->SetTraining(true);
  return Status::Ok();
}

Status TrainLoop::WriteCheckpoint(
    const std::function<void(TrainCheckpoint*)>& save) {
  TrainCheckpoint ckpt;
  ckpt.SetInt("step", step_);
  ckpt.SetDouble("best_metric", best_metric_);
  ckpt.SetInt("epochs_run", result_.epochs_run);
  ckpt.SetScalar("stream", consumed_.Serialize());
  SaveModule(*config_.model, "model.", &ckpt);
  for (const auto& [name, t] : best_state_)
    ckpt.tensors().emplace_back("best." + name, t.Clone());
  if (save) save(&ckpt);
  if (Status s = ckpt.Save(streaming_.checkpoint_path); !s.ok()) return s;
  obs::GetCounter("stream.checkpoint.writes").Add();
  return Status::Ok();
}

TrainResult TrainLoop::Finish(Status status) {
  if (status.ok()) {
    config_.model->LoadStateDict(best_state_);
    config_.model->SetTraining(false);
    result_.best_valid_metric = best_metric_;
  }
  result_.status = std::move(status);
  result_.seconds = timer_.Seconds();
  if (config_.runlog != nullptr) result_.runlog_path = config_.runlog->path();
  return std::move(result_);
}

}  // namespace core
}  // namespace rotom
