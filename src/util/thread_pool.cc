#include "util/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace rotom {

namespace {

// Dispatch/execution counters (see OBSERVABILITY.md). Function-local static
// references so each call site pays one registry lookup per process.
obs::Counter& InlineForCounter() {
  static obs::Counter& counter = obs::GetCounter("thread_pool.inline_for");
  return counter;
}
obs::Counter& ParallelForCounter() {
  static obs::Counter& counter = obs::GetCounter("thread_pool.parallel_for");
  return counter;
}
obs::Counter& ChunksCounter() {
  static obs::Counter& counter = obs::GetCounter("thread_pool.chunks");
  return counter;
}

thread_local bool tls_in_parallel_region = false;

/// RAII marker so nested ParallelFor calls from kernel bodies degrade to
/// inline execution instead of deadlocking on the pool.
class ScopedParallelRegion {
 public:
  ScopedParallelRegion() : previous_(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~ScopedParallelRegion() { tls_in_parallel_region = previous_; }

 private:
  bool previous_;
};

}  // namespace

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_.store(true);
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int64_t ThreadPool::RunChunks(uint64_t generation, const Body* body,
                              int64_t total, int64_t chunk,
                              int64_t num_chunks) {
  ScopedParallelRegion region;
  int64_t completed = 0;
  uint64_t cur = claim_.load(std::memory_order_relaxed);
  for (;;) {
    if ((cur >> kChunkBits) != generation) break;
    const int64_t claimed = static_cast<int64_t>(
        cur & ((uint64_t{1} << kChunkBits) - 1));
    if (claimed >= num_chunks) break;
    if (!claim_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_relaxed)) {
      continue;  // cur was reloaded by the failed CAS
    }
    const int64_t begin = claimed * chunk;
    const int64_t end = std::min(total, begin + chunk);
    (*body)(begin, end);
    ++completed;
    cur = claim_.load(std::memory_order_relaxed);
  }
  if (completed > 0)
    ChunksCounter().Add(static_cast<uint64_t>(completed));
  return completed;
}

uint64_t ThreadPool::AwaitJob(uint64_t seen) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (;;) {
    if (shutdown_.load(std::memory_order_relaxed)) return 0;
    const uint64_t generation = generation_.load(std::memory_order_acquire);
    if (generation != seen) return generation;
    if (std::chrono::steady_clock::now() >= deadline) break;
    // Yield rather than pause: a spinning worker must give its core to any
    // other runnable thread (a server's request threads, say) at once.
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(mu_);
  sleepers_.fetch_add(1);
  wake_cv_.wait(lock, [&] {
    return shutdown_.load() || generation_.load() != seen;
  });
  sleepers_.fetch_sub(1);
  if (shutdown_.load()) return 0;
  return generation_.load(std::memory_order_acquire);
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    const uint64_t generation = AwaitJob(seen);
    if (generation == 0) return;
    seen = generation;
    // These fields may already belong to a newer job; its tag in claim_
    // then differs from `generation` and RunChunks claims nothing.
    const Body* body = body_.load(std::memory_order_acquire);
    const int64_t total = total_.load(std::memory_order_acquire);
    const int64_t chunk = chunk_.load(std::memory_order_acquire);
    const int64_t num_chunks = num_chunks_.load(std::memory_order_acquire);
    const int64_t completed =
        RunChunks(generation, body, total, chunk, num_chunks);
    if (completed > 0)
      done_chunks_.fetch_add(completed, std::memory_order_release);
  }
}

void ThreadPool::ParallelFor(int64_t total, int64_t grain, const Body& body) {
  if (total <= 0) return;
  grain = std::max<int64_t>(1, grain);
  if (num_threads_ == 1 || total <= grain || InParallelRegion()) {
    InlineForCounter().Add(1);
    ScopedParallelRegion region;
    body(0, total);
    return;
  }

  // Static chunking: a few chunks per thread for load balance. Boundaries
  // depend only on total/grain/num_threads, so the element->chunk assignment
  // is reproducible run to run; which thread runs a chunk is not, and must
  // not matter.
  const int64_t target_chunks = static_cast<int64_t>(num_threads_) * 4;
  const int64_t chunk =
      std::max(grain, (total + target_chunks - 1) / target_chunks);
  const int64_t num_chunks = (total + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    InlineForCounter().Add(1);
    ScopedParallelRegion region;
    body(0, total);
    return;
  }
  ROTOM_CHECK_LT(num_chunks, int64_t{1} << kChunkBits);
  ParallelForCounter().Add(1);

  std::lock_guard<std::mutex> dispatch(dispatch_mu_);
  // Every chunk of the previous job was counted before its caller returned,
  // so no worker still adds to done_chunks_ when it is reset here.
  const uint64_t generation =
      generation_.load(std::memory_order_relaxed) + 1;
  claim_.store(generation << kChunkBits, std::memory_order_relaxed);
  body_.store(&body, std::memory_order_release);
  total_.store(total, std::memory_order_release);
  chunk_.store(chunk, std::memory_order_release);
  num_chunks_.store(num_chunks, std::memory_order_release);
  done_chunks_.store(0, std::memory_order_relaxed);
  generation_.store(generation);
  if (sleepers_.load() > 0) {
    { std::lock_guard<std::mutex> lock(mu_); }
    wake_cv_.notify_all();
  }

  const int64_t completed =
      RunChunks(generation, &body, total, chunk, num_chunks);
  done_chunks_.fetch_add(completed, std::memory_order_acq_rel);
  while (done_chunks_.load(std::memory_order_acquire) != num_chunks)
    std::this_thread::yield();
}

namespace {

struct GlobalPool {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;
};

GlobalPool& GlobalPoolState() {
  static GlobalPool* state = new GlobalPool();  // intentionally leaked
  return *state;
}

// The largest pool ROTOM_NUM_THREADS may ask for. Beyond a few threads per
// core a larger pool only adds dispatch cost, and a typo such as "100000"
// would otherwise start that many threads.
int MaxEnvThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return 4 * static_cast<int>(std::max(1u, hw));
}

int ResolveAutoThreads(const char** source) {
  if (const char* env = std::getenv("ROTOM_NUM_THREADS"); env != nullptr) {
    const ThreadCountSetting setting = ParseThreadCount(env, MaxEnvThreads());
    if (!setting.warning.empty()) ROTOM_LOG(Warning) << setting.warning;
    if (setting.threads > 0) {
      *source = "ROTOM_NUM_THREADS";
      return setting.threads;
    }
  }
  *source = "hardware_concurrency";
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void LogPoolSizeOnce(int threads, const char* source) {
  static bool logged = false;
  if (logged) return;
  logged = true;
  ROTOM_LOG(Info) << "compute pool: " << threads << " thread"
                  << (threads == 1 ? "" : "s") << " (" << source << ")";
}

}  // namespace

ThreadCountSetting ParseThreadCount(std::string_view value, int max_threads) {
  ThreadCountSetting setting;
  if (value.empty()) return setting;
  const std::string quoted =
      "ROTOM_NUM_THREADS=\"" + std::string(value) + "\"";
  int parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ptr != end || value.front() == '-') {
    setting.warning = "ignoring invalid " + quoted +
                      " (want a non-negative integer); sizing automatically";
    return setting;
  }
  if (ec == std::errc::result_out_of_range || parsed > max_threads) {
    setting.warning = "clamping " + quoted + " to the maximum of " +
                      std::to_string(max_threads) + " threads";
    parsed = max_threads;
  }
  setting.threads = parsed;
  return setting;
}

ThreadPool& ComputePool() {
  GlobalPool& state = GlobalPoolState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.pool == nullptr) {
    const char* source = nullptr;
    const int threads = ResolveAutoThreads(&source);
    LogPoolSizeOnce(threads, source);
    state.pool = std::make_unique<ThreadPool>(threads);
  }
  return *state.pool;
}

int ComputeThreads() { return ComputePool().num_threads(); }

void SetComputeThreads(int num_threads) {
  ROTOM_CHECK_GE(num_threads, 0);
  GlobalPool& state = GlobalPoolState();
  std::lock_guard<std::mutex> lock(state.mu);
  const char* source = "SetComputeThreads";
  int threads = num_threads;
  if (threads == 0) threads = ResolveAutoThreads(&source);
  LogPoolSizeOnce(threads, source);
  if (state.pool != nullptr && state.pool->num_threads() == threads) return;
  state.pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace rotom
