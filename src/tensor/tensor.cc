#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"

namespace rotom {

int64_t NumElements(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    ROTOM_CHECK_GT(d, 0);
    n *= d;
  }
  return n;
}

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)),
      numel_(NumElements(shape_)),
      data_(BufferPool::Instance().Acquire(numel_)) {}

Tensor Tensor::Uninitialized(std::vector<int64_t> shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = NumElements(t.shape_);
  t.data_ = BufferPool::Instance().AcquireUninitialized(t.numel_);
  return t;
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t = Uninitialized(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          std::vector<float> values) {
  const int64_t n = NumElements(shape);
  ROTOM_CHECK_EQ(n, static_cast<int64_t>(values.size()));
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = n;
  t.data_ = std::make_shared<std::vector<float>>(std::move(values));
  return t;
}

namespace {

thread_local bool g_no_random_init = false;

}  // namespace

NoRandomInitGuard::NoRandomInitGuard() : previous_(g_no_random_init) {
  g_no_random_init = true;
}

NoRandomInitGuard::~NoRandomInitGuard() { g_no_random_init = previous_; }

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng& rng, float stddev) {
  Tensor t = Uninitialized(std::move(shape));
  if (g_no_random_init) return t;
  for (int64_t i = 0; i < t.numel_; ++i)
    (*t.data_)[i] = static_cast<float>(rng.Normal()) * stddev;
  return t;
}

Tensor Tensor::RandUniform(std::vector<int64_t> shape, Rng& rng, float lo,
                           float hi) {
  Tensor t = Uninitialized(std::move(shape));
  if (g_no_random_init) return t;
  for (int64_t i = 0; i < t.numel_; ++i)
    (*t.data_)[i] = static_cast<float>(rng.Uniform(lo, hi));
  return t;
}

int64_t Tensor::size(int64_t d) const {
  const int64_t nd = dim();
  if (d < 0) d += nd;
  ROTOM_CHECK_GE(d, 0);
  ROTOM_CHECK_LT(d, nd);
  return shape_[d];
}

namespace {

int64_t FlatIndex(const std::vector<int64_t>& shape,
                  const std::vector<int64_t>& index) {
  ROTOM_CHECK_EQ(index.size(), shape.size());
  int64_t flat = 0;
  for (size_t d = 0; d < index.size(); ++d) {
    ROTOM_CHECK_GE(index[d], 0);
    ROTOM_CHECK_LT(index[d], shape[d]);
    flat = flat * shape[d] + index[d];
  }
  return flat;
}

}  // namespace

float& Tensor::at(const std::vector<int64_t>& index) {
  return (*data_)[FlatIndex(shape_, index)];
}

float Tensor::at(const std::vector<int64_t>& index) const {
  return (*data_)[FlatIndex(shape_, index)];
}

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) const {
  ROTOM_CHECK(defined());
  int64_t known = 1;
  int infer_at = -1;
  for (size_t d = 0; d < new_shape.size(); ++d) {
    if (new_shape[d] == -1) {
      ROTOM_CHECK_MSG(infer_at == -1, "at most one -1 dimension");
      infer_at = static_cast<int>(d);
    } else {
      ROTOM_CHECK_GT(new_shape[d], 0);
      known *= new_shape[d];
    }
  }
  if (infer_at >= 0) {
    ROTOM_CHECK_EQ(numel_ % known, 0);
    new_shape[infer_at] = numel_ / known;
    known *= new_shape[infer_at];
  }
  ROTOM_CHECK_EQ(known, numel_);
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.numel_ = numel_;
  t.data_ = data_;
  return t;
}

Tensor Tensor::Clone() const {
  if (!defined()) return Tensor();
  Tensor t = Uninitialized(shape_);
  std::memcpy(t.data_->data(), data_->data(), sizeof(float) * numel_);
  return t;
}

void Tensor::Fill(float value) {
  for (auto& x : *data_) x = value;
}

void Tensor::AddInPlace(const Tensor& other) {
  ROTOM_CHECK(shape_ == other.shape_);
  kernels::Axpy(other.data(), data(), numel_, 1.0f);
}

void Tensor::AddScaled(const Tensor& other, float alpha) {
  ROTOM_CHECK(shape_ == other.shape_);
  kernels::Axpy(other.data(), data(), numel_, alpha);
}

void Tensor::Scale(float alpha) {
  kernels::Apply(data(), numel_, [alpha](float x) { return x * alpha; });
}

void Tensor::CopyFrom(const Tensor& other) {
  ROTOM_CHECK(shape_ == other.shape_);
  std::memcpy(data(), other.data(), sizeof(float) * numel_);
}

float Tensor::Sum() const {
  double s = 0.0;
  for (const auto& x : *data_) s += x;
  return static_cast<float>(s);
}

float Tensor::Mean() const {
  ROTOM_CHECK_GT(numel_, 0);
  return Sum() / static_cast<float>(numel_);
}

float Tensor::AbsMax() const {
  float m = 0.0f;
  for (const auto& x : *data_) m = std::max(m, std::fabs(x));
  return m;
}

float Tensor::Norm() const {
  double s = 0.0;
  for (const auto& x : *data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

bool Tensor::Equals(const Tensor& other) const {
  if (shape_ != other.shape_) return false;
  for (int64_t i = 0; i < numel_; ++i)
    if ((*data_)[i] != (*other.data_)[i]) return false;
  return true;
}

bool Tensor::AllClose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (int64_t i = 0; i < numel_; ++i)
    if (std::fabs((*data_)[i] - (*other.data_)[i]) > tol) return false;
  return true;
}

std::string Tensor::ShapeString() const {
  std::ostringstream out;
  out << "Tensor[";
  for (size_t d = 0; d < shape_.size(); ++d) {
    if (d > 0) out << ',';
    out << shape_[d];
  }
  out << ']';
  return out.str();
}

}  // namespace rotom
