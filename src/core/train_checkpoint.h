#ifndef ROTOM_CORE_TRAIN_CHECKPOINT_H_
#define ROTOM_CORE_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/serialize.h"
#include "util/status.h"

namespace rotom {
namespace core {

/// On-disk snapshot of a streaming training run: named tensors (model
/// weights, meta-model weights, optimizer moments, best-so-far state) plus
/// string scalars (step counters, RNG-free stream state, metrics). One file
/// written atomically (WriteFileAtomic: tmp + rename) at each validation
/// round, so a killed run resumes from the last completed round with
/// nothing torn. Format RTCK1, in the byte codec of tensor/serialize.h:
/// magic "RTCK1\0", u64 scalar count, {key, value} strings, u64 tensor
/// count, then {name string, tensor entry} per tensor.
///
/// Scalars are strings; Int/Double accessors parse on read (doubles
/// round-trip through %.17g, so resumed float comparisons stay
/// bit-identical).
class TrainCheckpoint {
 public:
  void SetScalar(const std::string& key, std::string value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);

  /// Returns the raw scalar, or error if absent.
  StatusOr<std::string> GetScalar(const std::string& key) const;
  StatusOr<int64_t> GetInt(const std::string& key) const;
  StatusOr<double> GetDouble(const std::string& key) const;

  NamedTensors& tensors() { return tensors_; }
  const NamedTensors& tensors() const { return tensors_; }
  /// Tensor lookup by exact name; nullptr when absent.
  const Tensor* FindTensor(const std::string& name) const;

  /// Writes "<path>.tmp" then renames over `path`.
  Status Save(const std::string& path) const;
  /// Maps and parses `path`; an error Status (never an abort) for a
  /// missing, truncated or corrupt file.
  static StatusOr<TrainCheckpoint> Load(const std::string& path);

 private:
  std::vector<std::pair<std::string, std::string>> scalars_;
  NamedTensors tensors_;
};

}  // namespace core
}  // namespace rotom

#endif  // ROTOM_CORE_TRAIN_CHECKPOINT_H_
