// Shared-memory parallel runtime.
//
// A fixed-size worker pool with a `parallel_for` front-end, in the spirit of
// an OpenMP `parallel for` with static chunking. All heavy kernels (GEMM,
// convolution, per-device simulation) funnel through this so that thread
// count is controlled in exactly one place (`ThreadPool::global()`).
//
// Design notes:
//  * A parallel region is a single "range job" published to the workers: the
//    chunk partition is computed statically up front and workers claim chunks
//    through one atomic counter. No per-chunk `std::function` (or any other
//    per-chunk heap allocation) is ever created — the callable is passed as a
//    raw function pointer + context pointer.
//  * The caller thread always participates, so a 1-thread pool degenerates to
//    a serial loop with no synchronisation on the hot path.
//  * Nested parallelism from inside a worker of the *same* pool runs inline
//    (serially) — this is what lets Conv2d parallelise over the batch while
//    its per-sample GEMMs still call into the same kernels.
//  * An exception thrown by a chunk, on any participant, is rethrown on the
//    caller after the barrier — the one from the lowest-indexed throwing
//    iteration, so the error is the same for every pool size. Every other
//    chunk still runs to completion first, and the pool is left ready for
//    the next region. Inline regions propagate the throw directly.
//  * Each pool owns a per-worker scratch arena (`scratch_floats`), keyed by
//    `current_worker_index()`. Buffers are grow-only and persist across
//    parallel regions, so hot kernels (im2col, GEMM packing) reuse memory
//    instead of allocating per call.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace nebula {

class ThreadPool {
 public:
  /// Raw chunk callable: fn(ctx, lo, hi) processes iterations [lo, hi).
  using RangeFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);

  /// Well-known scratch slots. Slots 0-1 are reserved by the GEMM packing
  /// engine; layers pick from the remaining ones. Two kernels may only share
  /// a slot if they can never be live on the same worker at the same time —
  /// hold a `ScratchLease` across the live range so that rule is checked
  /// instead of assumed. (Gradient *partials* do not live here at all: they
  /// go through the chunk-indexed `reduce_ordered` arena below, so no kernel
  /// scratch call can ever alias them.)
  enum ScratchSlot : std::size_t {
    kScratchGemmA = 0,
    kScratchGemmB = 1,
    kScratchConvGrad = 2,
    kScratchSlots = 6,
  };

  /// Creates `num_threads` workers. 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, created on first use. Tests may swap it out with
  /// `set_global` to run kernels under pools of specific sizes.
  static ThreadPool& global();

  /// Replaces the pool returned by `global()`. Pass nullptr to restore the
  /// default process-wide pool. Returns the previous override (or nullptr).
  /// Intended for tests; not thread-safe against concurrent `global()` users.
  static ThreadPool* set_global(ThreadPool* pool);

  std::size_t size() const { return workers_.size() + 1; }  // +1: caller thread

  /// Index of the calling thread within this pool: workers are 1..size()-1,
  /// every other thread (including the caller of a parallel region) is 0.
  /// Inside a parallel region the participating threads therefore have
  /// distinct indices, which is what makes `scratch_floats` race-free there.
  static std::size_t current_worker_index();

  /// Grow-only per-worker scratch buffer of at least `min_floats` floats,
  /// keyed by (current_worker_index(), slot). The pointer stays valid until a
  /// larger request hits the same (worker, slot) pair. Contents persist
  /// across calls — callers must not assume zero-initialisation. Checks that
  /// the (worker, slot) pair is not currently held by a `ScratchLease`: a
  /// kernel reaching for a slot another kernel still has live is the
  /// aliasing bug this guards against.
  float* scratch_floats(std::size_t slot, std::size_t min_floats);

  /// RAII exclusivity marker for a scratch slot: while alive, any
  /// `scratch_floats` (or second lease) on the same (worker, slot) pair
  /// throws. Hold one across every region where a scratch pointer must stay
  /// valid through calls into other kernels (e.g. Conv2d::backward keeps its
  /// dcol buffer live across nested GEMM + col2im calls). Create and destroy
  /// on the same thread.
  class ScratchLease {
   public:
    ScratchLease(ThreadPool& pool, std::size_t slot, std::size_t min_floats);
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;

    float* data() const { return data_; }
    /// Re-grows the leased buffer (allowed for the holder only); the
    /// returned pointer supersedes previous `data()` results.
    float* grow(std::size_t min_floats);

   private:
    ThreadPool& pool_;
    std::size_t row_;
    std::size_t slot_;
    float* data_;
  };

  /// Number of chunks `reduce_ordered` partitions a range of `n` items into:
  /// min(kReduceChunks, ceil(n / grain)). A pure function of the range —
  /// never of the pool size — which is what makes the float accumulation
  /// grouping, and hence the reduced bits, identical for every worker count.
  static std::size_t reduce_chunks(std::size_t n, std::size_t grain = 1);

  /// Upper bound on reduce_ordered chunks: enough to feed the pool sizes in
  /// practical use while keeping the accumulator arena (chunks x width
  /// floats) small for wide gradients.
  static constexpr std::size_t kReduceChunks = 8;

  /// Deterministic ordered reduction (DESIGN.md §11). Partitions
  /// [begin, end) into `reduce_chunks(end - begin, grain)` contiguous chunks
  /// and runs `body(lo, hi, acc)` for each, fanned out over the pool, where
  /// `acc` is a zeroed accumulator of `width` floats in a slot of the
  /// chunk-indexed arena — indexed by the *static chunk id*, never by the
  /// executing worker. After the barrier the per-chunk partials are combined
  /// by a fixed pairwise tree over chunk ids and `merge(total)` runs once on
  /// the calling thread with the reduced slot. Because both the partition
  /// and the merge tree depend only on (end - begin, grain, width), the
  /// result is bit-identical for any worker count, chunk schedule, or
  /// arrival timing. Empty ranges return without calling `merge`; so does a
  /// throwing `body`, whose exception propagates as from `parallel_run`.
  ///
  /// Nested calls (from inside a region of this pool) run inline on the
  /// owning worker using that worker's private arena row — same partition,
  /// same tree, same bits. A thread must not start a second reduce_ordered
  /// while one of its own is live (checked); concurrent *top-level* calls
  /// from distinct non-pool threads share arena row 0 and are not supported,
  /// matching the scratch-arena rule.
  template <typename Body, typename Merge>
  void reduce_ordered(std::size_t begin, std::size_t end, std::size_t width,
                      const Body& body, const Merge& merge,
                      std::size_t grain = 1) {
    if (begin >= end || width == 0) return;
    const std::size_t n = end - begin;
    const std::size_t nchunks = reduce_chunks(n, grain);
    const std::size_t chunk = (n + nchunks - 1) / nchunks;
    ReduceArenaLease arena(*this, nchunks * width);
    struct Ctx {
      const Body* body;
      float* slots;
      std::size_t width, begin, end, chunk;
    } ctx{&body, arena.data(), width, begin, end, chunk};
    parallel_run(
        0, nchunks,
        [](void* raw, std::size_t lo, std::size_t hi) {
          const Ctx& c = *static_cast<const Ctx*>(raw);
          for (std::size_t id = lo; id < hi; ++id) {
            float* acc = c.slots + id * c.width;
            std::fill(acc, acc + c.width, 0.0f);
            const std::size_t l = c.begin + id * c.chunk;
            const std::size_t h = std::min(c.end, l + c.chunk);
            (*c.body)(l, h, acc);
          }
        },
        &ctx, /*grain=*/1);
    reduce_tree(arena.data(), width, nchunks);
    merge(static_cast<const float*>(arena.data()));
  }

  /// Runs fn(ctx, lo, hi) over a static chunking of [begin, end). Blocks
  /// until all chunks finish. `grain` is the minimum chunk width; ranges no
  /// wider than one grain (and nested calls from this pool's own workers)
  /// run inline on the calling thread. If chunks throw, the exception of
  /// the lowest-indexed throwing chunk is rethrown here after the barrier.
  void parallel_run(std::size_t begin, std::size_t end, RangeFn fn, void* ctx,
                    std::size_t grain = 1);

  /// Runs body(chunk_begin, chunk_end) over contiguous chunks — preferred for
  /// kernels that can amortise per-call overhead across a range. The callable
  /// is passed by reference through `parallel_run`; nothing is heap-allocated.
  template <typename F>
  void parallel_for_chunked(std::size_t begin, std::size_t end, const F& body,
                            std::size_t grain = 1) {
    parallel_run(
        begin, end,
        [](void* ctx, std::size_t lo, std::size_t hi) {
          (*static_cast<const F*>(ctx))(lo, hi);
        },
        const_cast<void*>(static_cast<const void*>(&body)), grain);
  }

  /// Runs body(i) for i in [begin, end). Blocks until all iterations finish.
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, const F& body,
                    std::size_t grain = 1) {
    parallel_for_chunked(
        begin, end,
        [&body](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        },
        grain);
  }

 private:
  void worker_loop(std::size_t index);
  void run_chunks();

  /// Arena row for the calling thread: its worker index inside this pool,
  /// row 0 for every other thread (the canonical caller row).
  std::size_t scratch_row() const;

  /// RAII hold on the calling thread's reduce arena row (grow-only, like
  /// scratch): marks the row live for the duration so self-nested
  /// reduce_ordered calls — which would silently clobber the outer partials —
  /// fail loudly instead.
  class ReduceArenaLease {
   public:
    ReduceArenaLease(ThreadPool& pool, std::size_t min_floats);
    ~ReduceArenaLease();
    ReduceArenaLease(const ReduceArenaLease&) = delete;
    ReduceArenaLease& operator=(const ReduceArenaLease&) = delete;
    float* data() const { return data_; }

   private:
    ThreadPool& pool_;
    std::size_t row_;
    float* data_;
  };

  /// Combines `nchunks` per-chunk partials of `width` floats (laid out
  /// contiguously in `slots`) into slots[0..width) with a fixed pairwise
  /// tree over chunk ids.
  static void reduce_tree(float* slots, std::size_t width,
                          std::size_t nchunks);

  std::vector<std::thread> workers_;

  // Scratch arena: fixed-size outer vector (one entry per participant, caller
  // included), so per-worker rows have stable addresses. `leased` flags are
  // only touched by the row's owning thread.
  struct WorkerScratch {
    std::vector<float> slots[kScratchSlots];
    bool leased[kScratchSlots] = {};
    std::vector<float> reduce_arena;
    bool reduce_live = false;
  };
  std::vector<WorkerScratch> scratch_;

  // One range job at a time, published through pool members (no heap).
  std::mutex mu_;
  std::condition_variable cv_;       // wakes workers for a new job / shutdown
  std::condition_variable done_cv_;  // wakes callers waiting for completion
  bool stop_ = false;
  bool job_active_ = false;          // guarded by mu_
  std::uint64_t job_seq_ = 0;        // guarded by mu_
  std::size_t job_workers_ = 0;      // workers currently inside the job
  RangeFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::size_t job_begin_ = 0, job_end_ = 0;
  std::size_t job_chunk_ = 0, job_nchunks_ = 0;
  std::atomic<std::size_t> job_next_{0};
  std::atomic<std::size_t> job_completed_{0};
  std::exception_ptr job_error_;     // guarded by mu_; lowest throwing chunk
  std::size_t job_error_chunk_ = 0;  // guarded by mu_
};

/// Convenience free function over the global pool.
template <typename F>
inline void parallel_for(std::size_t begin, std::size_t end, const F& body,
                         std::size_t grain = 1) {
  ThreadPool::global().parallel_for(begin, end, body, grain);
}

}  // namespace nebula
