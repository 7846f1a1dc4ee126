#ifndef ROTOM_TENSOR_BUFFER_POOL_H_
#define ROTOM_TENSOR_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace rotom {

/// Size-class freelist for the float buffers behind Tensor. Training loops
/// allocate the same activation/gradient shapes every step; recycling those
/// buffers turns most Tensor constructions into a freelist pop instead of an
/// allocator round trip (malloc + page faults on first touch).
///
/// Buffers are binned by the power of two that covers their element count
/// and returned to the pool by the shared_ptr deleter when the last Tensor
/// referencing them dies, so a buffer still referenced anywhere can never
/// be handed out again. The pool is a leaked singleton (tensors with static
/// storage duration may outlive any destructible pool) and is byte-capped:
/// releases beyond the cap free the buffer normally.
///
/// Two acquires: Acquire() zero-fills, AcquireUninitialized() does not. A
/// recycled buffer of the latter keeps whatever its last owner wrote (a
/// fresh allocation, or the part of a recycled one that grows past its old
/// size, is still zeroed by std::vector), so it is only for outputs that a
/// kernel or copy writes in full before anything reads them.
///
/// Thread-safety: all public methods are safe to call concurrently (one
/// internal mutex; shared_ptr deleters may run Release from any thread,
/// including during static destruction — which the leaked singleton and the
/// leaked obs registry both survive).
///
/// Determinism: Acquire() returns buffers indistinguishable from fresh
/// zeroed allocations. AcquireUninitialized() returns stale contents, so
/// numerics stay independent of the pool only if every element is written
/// before it is read. That is each caller's contract, and
/// tests/buffer_reuse_test.cc checks it: ops, a training step and both
/// serving forwards give the same bits on a pool that recycles nothing as
/// on one primed with NaN-filled buffers.
///
/// Observability: acquisitions/releases mirror into the obs registry as
/// `buffer_pool.reused` / `buffer_pool.allocated` / `buffer_pool.returned` /
/// `buffer_pool.dropped` / `buffer_pool.zero_filled_bytes` and the gauge
/// `buffer_pool.cached_bytes`. See OBSERVABILITY.md.
class BufferPool {
 public:
  struct Stats {
    uint64_t reused = 0;     // acquisitions served from the freelist
    uint64_t allocated = 0;  // acquisitions that hit the allocator
    uint64_t returned = 0;   // buffers parked back in the freelist
    uint64_t dropped = 0;    // buffers freed because the pool was full
    uint64_t zero_filled_bytes = 0;  // bytes an acquire wrote zeros into
    size_t cached_bytes = 0;
  };

  /// The process-wide pool used by Tensor.
  static BufferPool& Instance();

  /// Returns a zero-filled buffer of exactly `numel` elements whose deleter
  /// recycles it into the pool. `numel` = 0 is allowed (empty buffer).
  std::shared_ptr<std::vector<float>> Acquire(int64_t numel);

  /// As Acquire(), but a recycled buffer is not zeroed: its elements are
  /// whatever the previous owner left. The caller must write every element
  /// before reading any.
  std::shared_ptr<std::vector<float>> AcquireUninitialized(int64_t numel);

  /// Frees all cached buffers (buffers still referenced by live Tensors are
  /// unaffected and recycle on release as usual).
  void Trim();

  Stats GetStats() const;

  /// Caps cached (idle) bytes; releases beyond the cap are freed instead of
  /// parked. Intended for tests; the default is 256 MiB.
  void SetCapacityBytes(size_t bytes);

 private:
  BufferPool() = default;

  // Buffers are binned by ceil(log2(numel)); bin b holds capacities in
  // (2^(b-1), 2^b]. 64 bins cover any int64 element count.
  static constexpr size_t kBins = 64;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<float>>> bins_[kBins];
  size_t cached_bytes_ = 0;
  size_t capacity_bytes_ = 256ull << 20;
  Stats stats_;

  std::shared_ptr<std::vector<float>> AcquireBuffer(int64_t numel,
                                                    bool zero_fill);
  void Release(std::vector<float>* buffer);
};

}  // namespace rotom

#endif  // ROTOM_TENSOR_BUFFER_POOL_H_
