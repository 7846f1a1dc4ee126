#ifndef ROTOM_UTIL_THREAD_POOL_H_
#define ROTOM_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace rotom {

/// A persistent pool of worker threads that executes ParallelFor loops.
///
/// The pool exists so the tensor kernel layer (tensor/kernels.h) can
/// parallelize the batch/row dimension of dense math without paying a
/// thread-spawn per op. A training step is several hundred small kernels,
/// so the cost that matters is the handoff of one job to the workers:
///
/// - A job is published through atomics (a generation counter and the job
///   fields); workers read it without taking a lock.
/// - A worker that finishes a job polls the generation, yielding its core
///   between polls, for kSpinWindow; only then does it park on a condition
///   variable. Back-to-back kernels therefore reach workers that are still
///   awake, and a dispatch takes the lock to wake parked workers only when
///   some worker has parked.
/// - The calling thread runs chunks too, then yields until the last chunk
///   is done; it never sleeps on a running job.
///
/// The spinning is paid in CPU time: workers stay runnable for up to
/// kSpinWindow after each job (OBSERVABILITY.md "Thread pool").
///
/// Determinism contract: ParallelFor partitions the index space into
/// contiguous chunks whose boundaries depend only on the loop bounds and
/// pool configuration — never on timing. Each index is executed by exactly
/// one chunk, so a kernel whose per-index computation is itself
/// deterministic produces bit-identical results at any thread count.
///
/// Thread-safety: ParallelFor may be called from any thread; concurrent
/// invocations are serialized on an internal dispatch mutex, and calls from
/// inside pool work run inline (no deadlock, no nested fan-out). The
/// destructor must not race with an in-flight ParallelFor.
///
/// Ownership: `body` is borrowed for the duration of the call only. The
/// process-wide ComputePool() below is a lazily-created singleton whose
/// lifetime is managed by SetComputeThreads(); user code never owns a pool
/// worker.
///
/// Observability: dispatches are counted in the obs registry —
/// `thread_pool.parallel_for` (pool dispatches), `thread_pool.inline_for`
/// (loops run inline because the pool is size 1, the range is a single
/// chunk, or the caller is already pool work), and `thread_pool.chunks`
/// (chunks executed by pool threads). See OBSERVABILITY.md.
class ThreadPool {
 public:
  /// How long an idle worker keeps polling for the next job before it
  /// parks. Chosen by a sweep on the training and serving benchmarks
  /// (EXPERIMENTS.md "Spin-then-park compute pool").
  static constexpr std::chrono::microseconds kSpinWindow{100};

  /// Starts `num_threads - 1` workers; the thread calling ParallelFor is the
  /// remaining executor. `num_threads <= 1` means every loop runs inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Logical parallelism (workers + the calling thread).
  int num_threads() const { return num_threads_; }

  /// Runs body(begin, end) over a static partition of [0, total) into
  /// contiguous chunks of at least `grain` indices and blocks until every
  /// chunk has finished. The calling thread participates. Calls from inside
  /// a pool worker (nested parallelism) run the whole range inline.
  void ParallelFor(int64_t total, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

  /// True on a thread currently executing pool work (used to serialize
  /// nested ParallelFor calls).
  static bool InParallelRegion();

 private:
  using Body = std::function<void(int64_t, int64_t)>;

  void WorkerLoop();
  /// Waits for a job newer than `seen`: polls for kSpinWindow, then parks.
  /// Returns the new generation, or 0 when the pool is shutting down.
  uint64_t AwaitJob(uint64_t seen);
  /// Claims and runs chunks of job `generation`; returns how many it ran.
  /// The claim word is tagged with the generation, so a worker holding a
  /// stale job can never claim (and re-run) chunks of a newer job.
  int64_t RunChunks(uint64_t generation, const Body* body, int64_t total,
                    int64_t chunk, int64_t num_chunks);

  const int num_threads_;

  // The current job. ParallelFor stores the tagged claim word first, then
  // the fields, then the generation (release), so a worker that reads any
  // field of a newer job also sees that job's tag and claims nothing.
  std::atomic<uint64_t> generation_{0};  // 0 before the first job
  std::atomic<const Body*> body_{nullptr};
  std::atomic<int64_t> total_{0};
  std::atomic<int64_t> chunk_{0};
  std::atomic<int64_t> num_chunks_{0};
  std::atomic<int64_t> done_chunks_{0};  // the caller yields until complete
  // (generation << kChunkBits) | chunks_claimed. num_chunks is bounded by a
  // small multiple of num_threads, so kChunkBits is ample.
  std::atomic<uint64_t> claim_{0};
  static constexpr int kChunkBits = 20;

  // Parking. A worker increments sleepers_ under mu_ before it waits, and
  // ParallelFor reads it after publishing the generation; both sides are
  // seq_cst, so either the dispatcher sees the sleeper and notifies under
  // mu_, or the sleeper's predicate sees the new generation.
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> shutdown_{false};

  std::mutex dispatch_mu_;  // serializes whole ParallelFor invocations

  std::vector<std::thread> workers_;  // last: workers use every member above
};

/// The result of reading a ROTOM_NUM_THREADS value.
struct ThreadCountSetting {
  int threads = 0;      // the pool size to use; 0 means size automatically
  std::string warning;  // why the value was not used as given; empty if it was
};

/// Parses a ROTOM_NUM_THREADS value. The whole string must be a decimal
/// integer: "" and "0" ask for automatic sizing, a positive count above
/// `max_threads` is clamped to it (with a warning), and anything else
/// ("4abc", "-1", " 4") is ignored with a warning.
ThreadCountSetting ParseThreadCount(std::string_view value, int max_threads);

/// The process-wide compute pool used by tensor/kernels. Created lazily on
/// first use; sized from the ROTOM_NUM_THREADS environment variable when set
/// to a positive integer (see ParseThreadCount), otherwise from
/// std::thread::hardware_concurrency().
/// The resolved size is logged once at startup.
ThreadPool& ComputePool();

/// Current size of the compute pool (creating it if necessary).
int ComputeThreads();

/// Rebuilds the compute pool with `num_threads` workers; 0 restores the
/// automatic sizing (env var / hardware concurrency). Must not be called
/// while another thread is inside a kernel. Intended for benchmarks and the
/// thread-count-invariance tests.
void SetComputeThreads(int num_threads);

}  // namespace rotom

#endif  // ROTOM_UTIL_THREAD_POOL_H_
