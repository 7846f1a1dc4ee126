#include "core/train_checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace rotom {
namespace core {

namespace {

constexpr char kMagic[6] = "RTCK1";

template <typename T>
void WritePod(std::ofstream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

void WriteString(std::ofstream& out, const std::string& s) {
  WritePod<uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// Bytes left to read in `in`; length fields are checked against it so a
// corrupted count fails cleanly instead of allocating wildly.
uint64_t Remaining(std::ifstream& in, uint64_t file_size) {
  const std::streamoff pos = in.tellg();
  return pos < 0 ? 0 : file_size - static_cast<uint64_t>(pos);
}

bool ReadString(std::ifstream& in, uint64_t file_size, std::string* s) {
  uint64_t len = 0;
  if (!ReadPod(in, &len) || len > Remaining(in, file_size)) return false;
  s->assign(len, '\0');
  in.read(s->data(), static_cast<std::streamsize>(len));
  return static_cast<bool>(in);
}

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
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return Status::Error("cannot open " + tmp + " for writing");
    out.write(kMagic, sizeof(kMagic));
    WritePod<uint64_t>(out, scalars_.size());
    for (const auto& [key, value] : scalars_) {
      WriteString(out, key);
      WriteString(out, value);
    }
    WritePod<uint64_t>(out, tensors_.size());
    for (const auto& [name, tensor] : tensors_) {
      WriteString(out, name);
      WritePod<uint64_t>(out, tensor.shape().size());
      for (int64_t d : tensor.shape()) WritePod<int64_t>(out, d);
      out.write(reinterpret_cast<const char*>(tensor.data()),
                static_cast<std::streamsize>(sizeof(float) * tensor.size()));
    }
    if (!out) return Status::Error("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Error("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

StatusOr<TrainCheckpoint> TrainCheckpoint::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::Error("cannot open " + path);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::string(magic, sizeof(magic)) !=
                 std::string(kMagic, sizeof(kMagic))) {
    return Status::Error("bad checkpoint magic in " + path);
  }
  TrainCheckpoint ckpt;
  uint64_t num_scalars = 0;
  if (!ReadPod(in, &num_scalars)) return Status::Error("truncated header");
  for (uint64_t i = 0; i < num_scalars; ++i) {
    std::string key, value;
    if (!ReadString(in, file_size, &key) ||
        !ReadString(in, file_size, &value)) {
      return Status::Error("truncated scalar in " + path);
    }
    ckpt.scalars_.emplace_back(std::move(key), std::move(value));
  }
  uint64_t num_tensors = 0;
  if (!ReadPod(in, &num_tensors)) return Status::Error("truncated header");
  for (uint64_t i = 0; i < num_tensors; ++i) {
    std::string name;
    if (!ReadString(in, file_size, &name))
      return Status::Error("truncated tensor name in " + path);
    uint64_t ndim = 0;
    if (!ReadPod(in, &ndim) || ndim > 8)
      return Status::Error("bad tensor rank in " + path);
    std::vector<int64_t> shape(ndim);
    uint64_t numel = 1;
    for (auto& d : shape) {
      if (!ReadPod(in, &d) || d < 0)
        return Status::Error("bad tensor shape in " + path);
      // Every element is 4 bytes on disk: a count past the remaining bytes
      // is corruption, caught before allocating (and before overflowing).
      const uint64_t limit = Remaining(in, file_size) / sizeof(float);
      if (numel != 0 && static_cast<uint64_t>(d) > limit / numel)
        return Status::Error("truncated tensor data in " + path);
      numel *= static_cast<uint64_t>(d);
    }
    Tensor t(shape);
    in.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(sizeof(float) * t.size()));
    if (!in) return Status::Error("truncated tensor data in " + path);
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
