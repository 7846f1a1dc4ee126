#include "stream/stream.h"

#include <cstdlib>

#include "obs/metrics.h"
#include "util/check.h"

namespace rotom {
namespace stream {

void StreamState::Set(const std::string& key, int64_t value) {
  for (auto& entry : entries_) {
    if (entry.first == key) {
      entry.second = value;
      return;
    }
  }
  entries_.emplace_back(key, value);
}

bool StreamState::Has(const std::string& key) const {
  for (const auto& entry : entries_) {
    if (entry.first == key) return true;
  }
  return false;
}

int64_t StreamState::Get(const std::string& key, int64_t fallback) const {
  for (const auto& entry : entries_) {
    if (entry.first == key) return entry.second;
  }
  return fallback;
}

std::string StreamState::Serialize() const {
  std::string out;
  for (const auto& entry : entries_) {
    if (!out.empty()) out += ';';
    out += entry.first;
    out += '=';
    out += std::to_string(entry.second);
  }
  return out;
}

StatusOr<StreamState> StreamState::Parse(const std::string& text) {
  StreamState state;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::Error("StreamState: malformed entry '" + item + "'");
    }
    char* parse_end = nullptr;
    const std::string value_text = item.substr(eq + 1);
    const long long value = std::strtoll(value_text.c_str(), &parse_end, 10);
    if (parse_end == value_text.c_str() || *parse_end != '\0') {
      return Status::Error("StreamState: non-integer value in '" + item + "'");
    }
    state.Set(item.substr(0, eq), static_cast<int64_t>(value));
  }
  return state;
}

StreamState CaptureState(const ExampleStream& root) {
  StreamState state;
  root.SaveState("root", &state);
  return state;
}

Status RestoreByReplay(ExampleStream& root, const StreamState& target) {
  if (!target.Has("root")) {
    return Status::Error("RestoreByReplay: target state has no 'root' entry");
  }
  const int64_t target_draws = target.Get("root");
  if (root.draws() > target_draws) {
    return Status::Error(
        "RestoreByReplay: stream already past target (" +
        std::to_string(root.draws()) + " > " + std::to_string(target_draws) +
        " draws); replay needs a freshly built pipeline");
  }
  while (root.draws() < target_draws) {
    auto example = root.Next();
    if (!example.ok()) {
      return Status::Error("RestoreByReplay: replay failed at draw " +
                           std::to_string(root.draws()) + ": " +
                           example.status().message());
    }
  }
  const StreamState replayed = CaptureState(root);
  if (replayed != target) {
    return Status::Error(
        "RestoreByReplay: replayed state diverges from checkpoint (pipeline "
        "spec drift?) — got '" +
        replayed.Serialize() + "', want '" + target.Serialize() + "'");
  }
  return Status::Ok();
}

VectorSource::VectorSource(std::string name,
                           std::vector<data::Example> examples,
                           std::optional<uint64_t> shuffle_seed)
    : name_(std::move(name)),
      examples_(std::move(examples)),
      shuffle_seed_(shuffle_seed) {
  ROTOM_CHECK_MSG(!examples_.empty(), name_.c_str());
}

StatusOr<data::Example> VectorSource::Next() {
  const int64_t n = static_cast<int64_t>(examples_.size());
  size_t index = static_cast<size_t>(draws_ % n);
  if (shuffle_seed_) {
    const int64_t pass = draws_ / n;
    if (pass != order_pass_) {
      order_.resize(examples_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      Rng rng(SplitSeed(*shuffle_seed_, static_cast<uint64_t>(pass)));
      rng.Shuffle(order_);
      order_pass_ = pass;
    }
    index = order_[index];
  }
  const data::Example& example = examples_[index];
  ++draws_;
  obs::GetCounter("stream.examples").Add();
  obs::GetCounter("stream.source." + name_ + ".draws").Add();
  return example;
}

void VectorSource::SaveState(const std::string& prefix,
                             StreamState* state) const {
  state->Set(prefix, draws_);
}

StatusOr<std::unique_ptr<Mix>> Mix::Create(
    std::vector<std::unique_ptr<ExampleStream>> children,
    std::vector<double> weights, uint64_t seed) {
  if (children.empty()) return Status::Error("Mix: empty mixture");
  if (weights.size() != children.size()) {
    return Status::Error("Mix: " + std::to_string(children.size()) +
                         " sources but " + std::to_string(weights.size()) +
                         " weights");
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] > 0.0)) {
      return Status::Error("Mix: non-positive weight " +
                           std::to_string(weights[i]) + " for source " +
                           std::to_string(i));
    }
    if (children[i] == nullptr) {
      return Status::Error("Mix: null source " + std::to_string(i));
    }
  }
  return std::unique_ptr<Mix>(
      new Mix(std::move(children), std::move(weights), seed));
}

Mix::Mix(std::vector<std::unique_ptr<ExampleStream>> children,
         std::vector<double> weights, uint64_t seed)
    : children_(std::move(children)),
      weights_(std::move(weights)),
      seed_(seed) {}

StatusOr<data::Example> Mix::Next() {
  Rng rng(SplitSeed(seed_, static_cast<uint64_t>(draws_)));
  const size_t idx = static_cast<size_t>(rng.WeightedIndex(weights_));
  auto example = children_[idx]->Next();
  if (!example.ok()) return example.status();
  ++draws_;
  obs::GetCounter("stream.mix.draws").Add();
  return example;
}

void Mix::SaveState(const std::string& prefix, StreamState* state) const {
  state->Set(prefix, draws_);
  for (size_t i = 0; i < children_.size(); ++i) {
    children_[i]->SaveState(prefix + ".s" + std::to_string(i), state);
  }
}

ShuffleBuffer::ShuffleBuffer(std::unique_ptr<ExampleStream> inner,
                             int64_t capacity, uint64_t seed)
    : inner_(std::move(inner)), capacity_(capacity), seed_(seed) {
  ROTOM_CHECK(inner_ != nullptr);
  ROTOM_CHECK_GE(capacity_, 1);
}

StatusOr<data::Example> ShuffleBuffer::Next() {
  if (capacity_ == 1) {
    auto example = inner_->Next();
    if (!example.ok()) return example.status();
    ++draws_;
    return example;
  }
  while (static_cast<int64_t>(buffer_.size()) < capacity_) {
    auto example = inner_->Next();
    if (!example.ok()) return example.status();
    buffer_.push_back(std::move(example.value()));
    obs::GetGauge("stream.shuffle.fill")
        .Set(static_cast<int64_t>(buffer_.size()));
  }
  Rng rng(SplitSeed(seed_, static_cast<uint64_t>(draws_)));
  const size_t slot = static_cast<size_t>(rng.UniformInt(capacity_));
  data::Example out = std::move(buffer_[slot]);
  auto refill = inner_->Next();
  if (!refill.ok()) return refill.status();
  buffer_[slot] = std::move(refill.value());
  ++draws_;
  return out;
}

void ShuffleBuffer::SaveState(const std::string& prefix,
                              StreamState* state) const {
  state->Set(prefix, draws_);
  inner_->SaveState(prefix + ".inner", state);
}

}  // namespace stream
}  // namespace rotom
