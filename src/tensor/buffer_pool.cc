#include "tensor/buffer_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace rotom {

namespace {

// Observability mirrors of Stats (see OBSERVABILITY.md). The references are
// into the leaked obs registry, so they stay valid even when Release() runs
// during exit teardown of static Tensors.
obs::Counter& ReusedCounter() {
  static obs::Counter& counter = obs::GetCounter("buffer_pool.reused");
  return counter;
}
obs::Counter& AllocatedCounter() {
  static obs::Counter& counter = obs::GetCounter("buffer_pool.allocated");
  return counter;
}
obs::Counter& ReturnedCounter() {
  static obs::Counter& counter = obs::GetCounter("buffer_pool.returned");
  return counter;
}
obs::Counter& DroppedCounter() {
  static obs::Counter& counter = obs::GetCounter("buffer_pool.dropped");
  return counter;
}
obs::Counter& ZeroFilledBytesCounter() {
  static obs::Counter& counter =
      obs::GetCounter("buffer_pool.zero_filled_bytes");
  return counter;
}
obs::Gauge& CachedBytesGauge() {
  static obs::Gauge& gauge = obs::GetGauge("buffer_pool.cached_bytes");
  return gauge;
}

// Index of the bin whose capacity class covers `n` elements: the smallest b
// with 2^b >= n. Bin capacity is exactly 2^b so every buffer in a bin can
// serve any request routed there.
size_t BinIndex(size_t n) {
  size_t b = 0;
  while ((size_t{1} << b) < n) ++b;
  return b;
}

// Bin a buffer by the largest b with 2^b <= capacity: everything parked in
// bin b can then serve any request routed there (requests need <= 2^b), even
// if the allocator over-provisioned the capacity past the class size.
size_t FloorBinIndex(size_t capacity) {
  size_t b = 0;
  while ((size_t{1} << (b + 1)) <= capacity) ++b;
  return b;
}

}  // namespace

BufferPool& BufferPool::Instance() {
  // Leaked: Tensors with static storage duration run their deleters during
  // exit teardown, which must find the pool alive.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

std::shared_ptr<std::vector<float>> BufferPool::Acquire(int64_t numel) {
  return AcquireBuffer(numel, /*zero_fill=*/true);
}

std::shared_ptr<std::vector<float>> BufferPool::AcquireUninitialized(
    int64_t numel) {
  return AcquireBuffer(numel, /*zero_fill=*/false);
}

std::shared_ptr<std::vector<float>> BufferPool::AcquireBuffer(int64_t numel,
                                                              bool zero_fill) {
  ROTOM_CHECK_GE(numel, 0);
  const size_t n = static_cast<size_t>(numel);
  std::unique_ptr<std::vector<float>> buffer;
  if (n > 0) {
    const size_t bin = BinIndex(n);
    // Elements this acquire writes zeros into: all n when it fills, else
    // only what resize() value-initializes past the buffer's old size (all
    // n for a fresh allocation).
    size_t zeroed = n;
    std::lock_guard<std::mutex> lock(mu_);
    if (!bins_[bin].empty()) {
      buffer = std::move(bins_[bin].back());
      bins_[bin].pop_back();
      cached_bytes_ -= buffer->capacity() * sizeof(float);
      if (!zero_fill) zeroed = n > buffer->size() ? n - buffer->size() : 0;
      ++stats_.reused;
      ReusedCounter().Add(1);
      CachedBytesGauge().Set(static_cast<int64_t>(cached_bytes_));
    } else {
      ++stats_.allocated;
      AllocatedCounter().Add(1);
    }
    if (zeroed > 0) {
      stats_.zero_filled_bytes += zeroed * sizeof(float);
      ZeroFilledBytesCounter().Add(zeroed * sizeof(float));
    }
  }
  if (buffer == nullptr) {
    buffer = std::make_unique<std::vector<float>>();
    if (n > 0) buffer->reserve(size_t{1} << BinIndex(n));
  }
  // A recycled buffer's capacity is already the bin's class size, so
  // neither call reallocates. assign() restores the zero-initialized state
  // Tensor's constructor promises; resize() keeps the old elements and
  // value-initializes only those past the old size.
  if (zero_fill) {
    buffer->assign(n, 0.0f);
  } else {
    buffer->resize(n);
  }
  std::vector<float>* raw = buffer.release();
  return std::shared_ptr<std::vector<float>>(
      raw, [](std::vector<float>* b) { BufferPool::Instance().Release(b); });
}

void BufferPool::Release(std::vector<float>* buffer) {
  const size_t bytes = buffer->capacity() * sizeof(float);
  if (bytes > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cached_bytes_ + bytes <= capacity_bytes_) {
      bins_[FloorBinIndex(buffer->capacity())].emplace_back(buffer);
      cached_bytes_ += bytes;
      ++stats_.returned;
      ReturnedCounter().Add(1);
      CachedBytesGauge().Set(static_cast<int64_t>(cached_bytes_));
      return;
    }
    ++stats_.dropped;
    DroppedCounter().Add(1);
  }
  delete buffer;
}

void BufferPool::Trim() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& bin : bins_) bin.clear();
  cached_bytes_ = 0;
  CachedBytesGauge().Set(0);
}

BufferPool::Stats BufferPool::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.cached_bytes = cached_bytes_;
  return stats;
}

void BufferPool::SetCapacityBytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_bytes_ = bytes;
}

}  // namespace rotom
