#include "core/train_checkpoint.h"

#include <cstdio>
#include <cstdlib>

namespace rotom {
namespace core {

namespace {

constexpr char kMagic[6] = "RTCK1";

}  // namespace

void TrainCheckpoint::SetScalar(const std::string& key, std::string value) {
  for (auto& entry : scalars_) {
    if (entry.first == key) {
      entry.second = std::move(value);
      return;
    }
  }
  scalars_.emplace_back(key, std::move(value));
}

void TrainCheckpoint::SetInt(const std::string& key, int64_t value) {
  SetScalar(key, std::to_string(value));
}

void TrainCheckpoint::SetDouble(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  SetScalar(key, buf);
}

StatusOr<std::string> TrainCheckpoint::GetScalar(
    const std::string& key) const {
  for (const auto& entry : scalars_) {
    if (entry.first == key) return entry.second;
  }
  return Status::Error("checkpoint scalar '" + key + "' not found");
}

StatusOr<int64_t> TrainCheckpoint::GetInt(const std::string& key) const {
  auto raw = GetScalar(key);
  if (!raw.ok()) return raw.status();
  char* end = nullptr;
  const long long value = std::strtoll(raw.value().c_str(), &end, 10);
  if (end == raw.value().c_str() || *end != '\0') {
    return Status::Error("checkpoint scalar '" + key + "' is not an integer");
  }
  return static_cast<int64_t>(value);
}

StatusOr<double> TrainCheckpoint::GetDouble(const std::string& key) const {
  auto raw = GetScalar(key);
  if (!raw.ok()) return raw.status();
  char* end = nullptr;
  const double value = std::strtod(raw.value().c_str(), &end);
  if (end == raw.value().c_str() || *end != '\0') {
    return Status::Error("checkpoint scalar '" + key + "' is not a number");
  }
  return value;
}

const Tensor* TrainCheckpoint::FindTensor(const std::string& name) const {
  for (const auto& entry : tensors_) {
    if (entry.first == name) return &entry.second;
  }
  return nullptr;
}

Status TrainCheckpoint::Save(const std::string& path) const {
  ByteWriter out;
  out.Bytes(kMagic, sizeof(kMagic));
  out.Pod<uint64_t>(scalars_.size());
  for (const auto& [key, value] : scalars_) {
    out.String(key);
    out.String(value);
  }
  out.Pod<uint64_t>(tensors_.size());
  for (const auto& [name, tensor] : tensors_) {
    out.String(name);
    out.TensorEntry(tensor);
  }
  return WriteFileAtomic(path, {out.buffer()});
}

StatusOr<TrainCheckpoint> TrainCheckpoint::Load(const std::string& path) {
  auto file = MappedFile::Open(path);
  if (!file.ok()) return file.status();
  ByteReader in(file.value().bytes());
  char magic[sizeof(kMagic)];
  if (!in.Bytes(magic, sizeof(magic)) ||
      std::string_view(magic, sizeof(magic)) !=
          std::string_view(kMagic, sizeof(kMagic))) {
    return Status::Error("bad checkpoint magic in " + path);
  }
  TrainCheckpoint ckpt;
  uint64_t num_scalars = 0;
  if (!in.Pod(&num_scalars)) return Status::Error("truncated header");
  for (uint64_t i = 0; i < num_scalars; ++i) {
    std::string key, value;
    if (!in.String(&key) || !in.String(&value)) {
      return Status::Error("truncated scalar in " + path);
    }
    ckpt.scalars_.emplace_back(std::move(key), std::move(value));
  }
  uint64_t num_tensors = 0;
  if (!in.Pod(&num_tensors)) return Status::Error("truncated header");
  for (uint64_t i = 0; i < num_tensors; ++i) {
    std::string name;
    if (!in.String(&name))
      return Status::Error("truncated tensor name in " + path);
    Tensor t;
    if (Status s = in.TensorEntry(&t); !s.ok())
      return Status::Error(s.message() + " in " + path);
    // A repeated name would let a shape check and a later load read
    // different entries.
    if (ckpt.FindTensor(name) != nullptr)
      return Status::Error("duplicate tensor '" + name + "' in " + path);
    ckpt.tensors_.emplace_back(std::move(name), std::move(t));
  }
  return ckpt;
}

}  // namespace core
}  // namespace rotom
