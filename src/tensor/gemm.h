// Single-precision GEMM engine: cache-blocked, panel-packed, register-tiled,
// with runtime micro-kernel dispatch.
//
// Every matrix-shaped kernel in the library (Linear forward/backward, Conv2d
// forward and both backward products) routes through this engine, so there
// is exactly one place to optimise and benchmark. The Tensor-level wrappers
// in tensor/ops.h add shape checking; Conv2d, which works on raw folded-batch
// pointers, calls this interface directly.
//
// Micro-kernel dispatch: the binary is compiled for the baseline ISA, but the
// engine picks the widest micro-kernel the executing CPU supports on first
// use (AVX2/FMA 6x16 on x86, NEON 8x8 on aarch64, portable 6x8 otherwise) —
// see tensor/gemm_kernels.h for the registry and DESIGN.md §12 for the
// architecture. Set NEBULA_FORCE_PORTABLE_KERNEL=1 to pin the portable
// kernel (CI runs the equivalence suite both ways).
//
// Layout: all operands are row-major with explicit leading dimensions, BLAS
// style. op(A) is (m, k), op(B) is (k, n), C is (m, n):
//
//   C = op(A) · op(B)            (accumulate == false)
//   C += op(A) · op(B)           (accumulate == true)
//
// See DESIGN.md "Kernel architecture & threading model" for the blocking
// scheme (MC/KC/NC, MRxNR micro-tile) and where the pack buffers live.
#pragma once

#include <cstdint>

namespace nebula {

enum class Trans : std::uint8_t { N, T };

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float* c, std::int64_t ldc, bool accumulate);

/// True when gemm(…, m, n, k, …) runs the small-problem naive path rather
/// than the blocked one. The two paths round differently (the blocked
/// micro-kernels sum in KC slices, with FMA where the kernel has it), so a
/// row of C carries the same bits in two products only when both take the
/// same path.
bool gemm_runs_naive(std::int64_t m, std::int64_t n, std::int64_t k);

// ---- Dispatch introspection -------------------------------------------------

/// Name of the micro-kernel the dispatcher selected for this process
/// ("portable-6x8", "avx2-6x16", "neon-8x8"). Stable ids — recorded in bench
/// context and perf trajectories.
const char* gemm_kernel_name();

/// Pins the micro-kernel by name; "auto" (or "") restores runtime dispatch.
/// Returns false (and changes nothing) if the name is unknown, the executing
/// CPU lacks the kernel, or NEBULA_FORCE_PORTABLE_KERNEL is set and a
/// non-portable kernel was requested. Test/bench hook — not thread-safe
/// against concurrent GEMM calls.
bool gemm_force_kernel(const char* name);

// ---- Fused im2col -----------------------------------------------------------

/// Geometry of an im2col lowering over `batch` NCHW images placed side by
/// side: the virtual column matrix has rows() = channels*kh*kw and
/// cols() = batch*pixels(), where pixels() = out_h()*out_w(). Element (r, c)
/// with c = b*pixels() + q is the input pixel of image b under kernel tap r
/// at output pixel q (zero outside the padded image). The images lie back to
/// back, image b starting b*volume() floats past the first.
struct Im2colMap {
  std::int64_t channels, height, width;
  std::int64_t kh, kw;
  std::int64_t stride, pad;
  std::int64_t batch = 1;

  std::int64_t volume() const { return channels * height * width; }
  std::int64_t out_h() const { return (height + 2 * pad - kh) / stride + 1; }
  std::int64_t out_w() const { return (width + 2 * pad - kw) / stride + 1; }
  std::int64_t pixels() const { return out_h() * out_w(); }
  std::int64_t rows() const { return channels * kh * kw; }
  std::int64_t cols() const { return batch * pixels(); }
};

/// C (+)= A · op(col) where col = im2col(img, map) is never materialised:
/// the engine's B-packing stage reads the images (with pad > 0, a
/// zero-padded copy of them) through a tap table of offsets resolved once
/// per call, crossing image boundaries inside a panel. Only a small-problem
/// call gathers its at most 8192 col elements into a buffer. Bit-identical to materialising col (each image's im2col
/// side by side) and calling gemm — the packed panels (and the small-problem
/// path) are element-for-element the same.
///
///   trans_col == Trans::N:  C(m, cols) (+)= A(m, rows) · col      (conv fwd)
///   trans_col == Trans::T:  C(m, rows) (+)= A(m, cols) · col^T    (conv dW)
///
/// The naive-or-blocked choice is made once for the whole call, from the
/// full m·cols·rows volume. With Trans::N the images may fan out across the
/// pool at image boundaries; every output column is computed by the same
/// arithmetic either way, so the bits do not depend on the pool size. With
/// Trans::T the batch is the reduction dimension; the output columns may fan
/// out instead, each summing its batch·pixels terms in one fixed order.
void gemm_im2col(Trans trans_col, std::int64_t m, const float* a,
                 std::int64_t lda, const float* img, const Im2colMap& map,
                 float* c, std::int64_t ldc, bool accumulate);

/// C (+)= op(A) · B for a product whose n columns come in groups of `group`
/// columns (a folded conv batch's images: dcol = Wᵀ · G). Same result as
/// gemm(ta, Trans::N, ...), but the groups may fan out across the pool. The
/// naive-or-blocked choice is made once, from the whole m·n·k, and each
/// column gets the same arithmetic on either side of a split, so the bits
/// equal one gemm call's and do not depend on the pool size. n must be a
/// multiple of group.
void gemm_column_groups(Trans ta, std::int64_t m, std::int64_t n,
                        std::int64_t k, const float* a, std::int64_t lda,
                        const float* b, std::int64_t ldb, float* c,
                        std::int64_t ldc, bool accumulate, std::int64_t group);

}  // namespace nebula
