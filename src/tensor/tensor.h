#ifndef ROTOM_TENSOR_TENSOR_H_
#define ROTOM_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace rotom {

/// Dense, contiguous, row-major float tensor. Copying a Tensor is cheap and
/// shares the underlying buffer (like torch.Tensor); use Clone() for a deep
/// copy. All shape arithmetic is validated with CHECKs.
class Tensor {
 public:
  /// An empty (undefined) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  /// Tensor of the given shape whose elements are unspecified: the buffer
  /// comes from BufferPool::AcquireUninitialized, so a recycled one holds
  /// its previous owner's values. Only for outputs that are written in full
  /// before any element is read.
  static Tensor Uninitialized(std::vector<int64_t> shape);

  /// Factory helpers.
  static Tensor Zeros(std::vector<int64_t> shape) { return Tensor(std::move(shape)); }
  static Tensor Full(std::vector<int64_t> shape, float value);
  static Tensor Ones(std::vector<int64_t> shape) { return Full(std::move(shape), 1.0f); }
  /// Tensor wrapping the given values; `values.size()` must match the shape.
  static Tensor FromVector(std::vector<int64_t> shape, std::vector<float> values);
  /// A scalar (0-d represented as shape {1}).
  static Tensor Scalar(float value) { return Full({1}, value); }
  /// I.i.d. normal entries with the given standard deviation. Under a
  /// NoRandomInitGuard: uninitialized, and `rng` is not advanced.
  static Tensor Randn(std::vector<int64_t> shape, Rng& rng, float stddev = 1.0f);
  /// I.i.d. uniform entries in [lo, hi). Under a NoRandomInitGuard:
  /// uninitialized, and `rng` is not advanced.
  static Tensor RandUniform(std::vector<int64_t> shape, Rng& rng, float lo, float hi);

  bool defined() const { return data_ != nullptr; }
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  /// Total number of elements.
  int64_t size() const { return numel_; }
  /// Extent of dimension `d` (supports negative indexing from the back).
  int64_t size(int64_t d) const;

  float* data() { return data_->data(); }
  const float* data() const { return data_->data(); }

  /// Flat element access.
  float& operator[](int64_t i) {
    ROTOM_CHECK_LT(i, numel_);
    return (*data_)[i];
  }
  float operator[](int64_t i) const {
    ROTOM_CHECK_LT(i, numel_);
    return (*data_)[i];
  }

  /// Multi-dimensional element access (slow; intended for tests and setup).
  float& at(const std::vector<int64_t>& index);
  float at(const std::vector<int64_t>& index) const;

  /// Returns a tensor sharing this buffer with a new shape of equal size.
  /// One dimension may be -1 and is inferred.
  Tensor Reshape(std::vector<int64_t> new_shape) const;

  /// Deep copy.
  Tensor Clone() const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// this += other (same shape).
  void AddInPlace(const Tensor& other);
  /// this += alpha * other (same shape).
  void AddScaled(const Tensor& other, float alpha);
  /// this *= alpha.
  void Scale(float alpha);
  /// Copies values from `other` (same shape) into this buffer.
  void CopyFrom(const Tensor& other);

  /// Sum of all elements.
  float Sum() const;
  /// Mean of all elements; requires non-empty.
  float Mean() const;
  /// Largest absolute element; 0 for empty.
  float AbsMax() const;
  /// Euclidean norm.
  float Norm() const;

  /// True if shapes and all elements match exactly.
  bool Equals(const Tensor& other) const;
  /// True if shapes match and elements agree within `tol`.
  bool AllClose(const Tensor& other, float tol = 1e-5f) const;

  /// Human-readable short description, e.g. "Tensor[2,3]".
  std::string ShapeString() const;

 private:
  std::vector<int64_t> shape_;
  int64_t numel_ = 0;
  std::shared_ptr<std::vector<float>> data_;
};

/// Validates a shape (all extents positive) and returns the element count.
int64_t NumElements(const std::vector<int64_t>& shape);

/// RAII scope in which Tensor::Randn and Tensor::RandUniform skip the draw
/// and return Tensor::Uninitialized storage. For building a module whose
/// every parameter is replaced at once: Snapshot::BuildModel constructs the
/// classifier under one, so serving never pays the random init. Like
/// NoGradGuard it is per thread and nests.
class NoRandomInitGuard {
 public:
  NoRandomInitGuard();
  ~NoRandomInitGuard();
  NoRandomInitGuard(const NoRandomInitGuard&) = delete;
  NoRandomInitGuard& operator=(const NoRandomInitGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace rotom

#endif  // ROTOM_TENSOR_TENSOR_H_
