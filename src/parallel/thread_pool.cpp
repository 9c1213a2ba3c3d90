#include "parallel/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nebula {

namespace {

// Identifies which pool (if any) owns the current thread, and its index
// within that pool. Caller threads keep the defaults (nullptr, 0).
thread_local ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;

ThreadPool* g_global_override = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  scratch_.resize(num_threads);
  // The caller thread always participates, so spawn n-1 workers.
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  if (g_global_override != nullptr) return *g_global_override;
  static ThreadPool pool;
  return pool;
}

ThreadPool* ThreadPool::set_global(ThreadPool* pool) {
  ThreadPool* prev = g_global_override;
  g_global_override = pool;
  return prev;
}

std::size_t ThreadPool::current_worker_index() { return tls_index; }

std::size_t ThreadPool::scratch_row() const {
  // Threads that are not workers of this pool (index out of range) share
  // slot row 0 with the canonical caller thread; inside a parallel region of
  // this pool all participants have distinct in-range indices.
  std::size_t w = tls_pool == this ? tls_index : 0;
  if (w >= scratch_.size()) w = 0;
  return w;
}

float* ThreadPool::scratch_floats(std::size_t slot, std::size_t min_floats) {
  WorkerScratch& row = scratch_[scratch_row()];
  slot %= kScratchSlots;
  NEBULA_CHECK_MSG(!row.leased[slot],
                   "scratch slot " << slot
                                   << " is leased by another kernel on this "
                                      "worker (aliasing hazard)");
  std::vector<float>& buf = row.slots[slot];
  if (buf.size() < min_floats) buf.resize(min_floats);
  return buf.data();
}

ThreadPool::ScratchLease::ScratchLease(ThreadPool& pool, std::size_t slot,
                                       std::size_t min_floats)
    : pool_(pool), row_(pool.scratch_row()), slot_(slot % kScratchSlots) {
  WorkerScratch& row = pool_.scratch_[row_];
  NEBULA_CHECK_MSG(!row.leased[slot_],
                   "scratch slot " << slot_ << " is already leased");
  std::vector<float>& buf = row.slots[slot_];
  if (buf.size() < min_floats) buf.resize(min_floats);
  row.leased[slot_] = true;
  data_ = buf.data();
}

ThreadPool::ScratchLease::~ScratchLease() {
  pool_.scratch_[row_].leased[slot_] = false;
}

float* ThreadPool::ScratchLease::grow(std::size_t min_floats) {
  std::vector<float>& buf = pool_.scratch_[row_].slots[slot_];
  if (buf.size() < min_floats) buf.resize(min_floats);
  data_ = buf.data();
  return data_;
}

std::size_t ThreadPool::reduce_chunks(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return std::min(kReduceChunks, (n + grain - 1) / grain);
}

ThreadPool::ReduceArenaLease::ReduceArenaLease(ThreadPool& pool,
                                               std::size_t min_floats)
    : pool_(pool), row_(pool.scratch_row()) {
  WorkerScratch& row = pool_.scratch_[row_];
  NEBULA_CHECK_MSG(!row.reduce_live,
                   "reduce_ordered nested inside its own chunk body on the "
                   "same thread (the outer accumulators would be clobbered)");
  if (row.reduce_arena.size() < min_floats) row.reduce_arena.resize(min_floats);
  row.reduce_live = true;
  data_ = row.reduce_arena.data();
}

ThreadPool::ReduceArenaLease::~ReduceArenaLease() {
  pool_.scratch_[row_].reduce_live = false;
}

void ThreadPool::reduce_tree(float* slots, std::size_t width,
                             std::size_t nchunks) {
  for (std::size_t step = 1; step < nchunks; step *= 2) {
    for (std::size_t i = 0; i + step < nchunks; i += 2 * step) {
      float* dst = slots + i * width;
      const float* src = slots + (i + step) * width;
      for (std::size_t j = 0; j < width; ++j) dst[j] += src[j];
    }
  }
}

void ThreadPool::run_chunks() {
  const std::size_t nchunks = job_nchunks_;
  for (;;) {
    const std::size_t c = job_next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= nchunks) break;
    const std::size_t lo = job_begin_ + c * job_chunk_;
    const std::size_t hi = std::min(job_end_, lo + job_chunk_);
    try {
      if (lo < hi) job_fn_(job_ctx_, lo, hi);
    } catch (...) {
      // Keep the lowest-indexed chunk's exception: chunks are contiguous and
      // ordered, so that is the lowest throwing iteration whatever the pool
      // size. The chunk still counts as completed, or the barrier would
      // wait forever.
      std::lock_guard<std::mutex> lock(mu_);
      if (!job_error_ || c < job_error_chunk_) {
        job_error_ = std::current_exception();
        job_error_chunk_ = c;
      }
    }
    job_completed_.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_index = index;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || (job_active_ && job_seq_ != seen); });
      if (stop_) return;
      seen = job_seq_;
      ++job_workers_;
    }
    run_chunks();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --job_workers_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_run(std::size_t begin, std::size_t end, RangeFn fn,
                              void* ctx, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (grain == 0) grain = 1;
  // Serial fast paths: 1-thread pool, tiny range, or a nested call from one
  // of this pool's own workers (re-entering the job machinery would deadlock;
  // inline execution keeps nested kernels correct and cheap).
  static obs::Counter& m_regions = obs::counter("pool.regions");
  static obs::Counter& m_inline = obs::counter("pool.regions_inline");
  m_regions.add(1);
  if (size() == 1 || n <= grain || tls_pool == this) {
    m_inline.add(1);
    fn(ctx, begin, end);
    return;
  }
  NEBULA_SPAN("pool.region");

  // Static partition: at most one chunk per participant, rounded to grain.
  const std::size_t chunks =
      std::min(size(), (n + grain - 1) / grain);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  std::unique_lock<std::mutex> lock(mu_);
  // One job at a time: a second caller thread queues here until the previous
  // region fully drains.
  done_cv_.wait(lock, [&] { return !job_active_ && job_workers_ == 0; });
  job_fn_ = fn;
  job_ctx_ = ctx;
  job_begin_ = begin;
  job_end_ = end;
  job_chunk_ = chunk_size;
  job_nchunks_ = chunks;
  job_next_.store(0, std::memory_order_relaxed);
  job_completed_.store(0, std::memory_order_relaxed);
  job_active_ = true;
  ++job_seq_;
  lock.unlock();
  cv_.notify_all();

  // The caller participates as worker 0. Marking it as in-pool for the
  // duration makes nested parallel calls from its chunks run inline (exactly
  // as they do on real workers) instead of deadlocking on the job slot, and
  // gives its scratch lookups the worker-0 row.
  ThreadPool* prev_pool = tls_pool;
  const std::size_t prev_index = tls_index;
  tls_pool = this;
  tls_index = 0;
  run_chunks();
  tls_pool = prev_pool;
  tls_index = prev_index;

  lock.lock();
  done_cv_.wait(lock, [&] {
    return job_completed_.load(std::memory_order_acquire) == job_nchunks_ &&
           job_workers_ == 0;
  });
  job_active_ = false;
  const std::exception_ptr error = std::move(job_error_);
  job_error_ = nullptr;
  lock.unlock();
  done_cv_.notify_all();  // release any caller queued for the job slot
  if (error) std::rethrow_exception(error);
}

}  // namespace nebula
