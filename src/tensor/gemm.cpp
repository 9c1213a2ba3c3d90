#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm_kernels.h"

#define NEBULA_RESTRICT __restrict__

namespace nebula {

namespace {

// Cache blocking, shared by every micro-kernel. KC*NR B sub-panel (8-16 KB)
// lives in L1 across the ip sweep, the MC*KC A block (~96 KB) in L2, the
// KC*NC packed B panel (~512 KB) in L2/L3. MC is a multiple of every
// registered MR (6, 8) and NC of every NR (8, 16), so edge handling happens
// only in packing and the C store.
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kMC = 96;
constexpr std::int64_t kNC = 512;

// Problems below this many multiply-adds skip packing entirely: for tiny
// per-sample GEMMs (selector gates, small heads, module dispatch) the
// O(mk + kn) pack traffic is a measurable fraction of the O(mnk) compute.
constexpr std::int64_t kNaiveFlopThreshold = 8192;

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

// ---- Portable micro-kernel --------------------------------------------------
//
// C[0:mr, 0:nr] (+)= Ap(kc x MR panel) * Bp(kc x NR panel). The 6x8 tile is
// held in twelve explicit 4-wide vector accumulators for the entire K loop —
// written with GCC/Clang vector extensions (no intrinsics headers), which
// lower to SSE2 on baseline x86-64, NEON on aarch64, and pick up FMA/AVX
// under NEBULA_NATIVE. A plain float array here spills to the stack and runs
// ~1.5x *slower* than the naive kernel; the explicit registers are the point.

namespace detail {

namespace {

constexpr std::int64_t kPortableMR = 6;
constexpr std::int64_t kPortableNR = 8;

typedef float v4f __attribute__((vector_size(16)));
// Same lanes, alignment 4: loads/stores through this type emit unaligned ops.
typedef float v4f_u __attribute__((vector_size(16), aligned(4)));

inline v4f load4(const float* p) {
  return *reinterpret_cast<const v4f_u*>(p);
}
inline void store4(float* p, v4f v) { *reinterpret_cast<v4f_u*>(p) = v; }
inline v4f splat4(float x) { return v4f{x, x, x, x}; }

void micro_kernel_portable(std::int64_t kc, const float* NEBULA_RESTRICT ap,
                           const float* NEBULA_RESTRICT bp,
                           float* NEBULA_RESTRICT c, std::int64_t ldc,
                           bool accumulate, std::int64_t mr, std::int64_t nr) {
  v4f c00 = {}, c01 = {}, c10 = {}, c11 = {}, c20 = {}, c21 = {};
  v4f c30 = {}, c31 = {}, c40 = {}, c41 = {}, c50 = {}, c51 = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const v4f b0 = load4(bp);
    const v4f b1 = load4(bp + 4);
    v4f a;
    a = splat4(ap[0]); c00 += a * b0; c01 += a * b1;
    a = splat4(ap[1]); c10 += a * b0; c11 += a * b1;
    a = splat4(ap[2]); c20 += a * b0; c21 += a * b1;
    a = splat4(ap[3]); c30 += a * b0; c31 += a * b1;
    a = splat4(ap[4]); c40 += a * b0; c41 += a * b1;
    a = splat4(ap[5]); c50 += a * b0; c51 += a * b1;
    ap += kPortableMR;
    bp += kPortableNR;
  }
  if (mr == kPortableMR && nr == kPortableNR) {
    float* c0 = c;
    float* c1 = c + ldc;
    float* c2 = c + 2 * ldc;
    float* c3 = c + 3 * ldc;
    float* c4 = c + 4 * ldc;
    float* c5 = c + 5 * ldc;
    if (accumulate) {
      store4(c0, load4(c0) + c00); store4(c0 + 4, load4(c0 + 4) + c01);
      store4(c1, load4(c1) + c10); store4(c1 + 4, load4(c1 + 4) + c11);
      store4(c2, load4(c2) + c20); store4(c2 + 4, load4(c2 + 4) + c21);
      store4(c3, load4(c3) + c30); store4(c3 + 4, load4(c3 + 4) + c31);
      store4(c4, load4(c4) + c40); store4(c4 + 4, load4(c4 + 4) + c41);
      store4(c5, load4(c5) + c50); store4(c5 + 4, load4(c5 + 4) + c51);
    } else {
      store4(c0, c00); store4(c0 + 4, c01);
      store4(c1, c10); store4(c1 + 4, c11);
      store4(c2, c20); store4(c2 + 4, c21);
      store4(c3, c30); store4(c3 + 4, c31);
      store4(c4, c40); store4(c4 + 4, c41);
      store4(c5, c50); store4(c5 + 4, c51);
    }
  } else {
    // Edge tile: spill the full tile once, then mask the store.
    float tile[kPortableMR * kPortableNR];
    store4(tile + 0, c00);  store4(tile + 4, c01);
    store4(tile + 8, c10);  store4(tile + 12, c11);
    store4(tile + 16, c20); store4(tile + 20, c21);
    store4(tile + 24, c30); store4(tile + 28, c31);
    store4(tile + 32, c40); store4(tile + 36, c41);
    store4(tile + 40, c50); store4(tile + 44, c51);
    for (std::int64_t i = 0; i < mr; ++i) {
      float* ci = c + i * ldc;
      const float* ti = tile + i * kPortableNR;
      if (accumulate) {
        for (std::int64_t j = 0; j < nr; ++j) ci[j] += ti[j];
      } else {
        for (std::int64_t j = 0; j < nr; ++j) ci[j] = ti[j];
      }
    }
  }
}

}  // namespace

const GemmKernel& portable_kernel() {
  static const GemmKernel kernel = {"portable-6x8", kPortableMR, kPortableNR,
                                    &micro_kernel_portable};
  return kernel;
}

}  // namespace detail

namespace {

using detail::GemmKernel;

// ---- Kernel dispatch --------------------------------------------------------

bool env_force_portable() {
  static const bool forced = [] {
    const char* e = std::getenv("NEBULA_FORCE_PORTABLE_KERNEL");
    return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
  }();
  return forced;
}

const GemmKernel& auto_kernel() {
  if (env_force_portable()) return detail::portable_kernel();
#if defined(__x86_64__) || defined(__i386__)
  if (const GemmKernel* k = detail::avx2_kernel()) return *k;
#elif defined(__aarch64__)
  if (const GemmKernel* k = detail::neon_kernel()) return *k;
#endif
  return detail::portable_kernel();
}

std::atomic<const GemmKernel*> g_forced_kernel{nullptr};

inline const GemmKernel& active_kernel() {
  const GemmKernel* k = g_forced_kernel.load(std::memory_order_acquire);
  return k ? *k : auto_kernel();
}

// ---- Packing ---------------------------------------------------------------
//
// A block rows [i0, i0+mc) x cols [p0, p0+kc) of op(A) is laid out as
// ceil(mc/MR) panels; panel q holds rows [q*MR, q*MR+MR) column-major within
// the panel: dst[q*kc*MR + p*MR + r]. Rows past mc are zero-padded so the
// micro-kernel always computes a full MR x NR tile and only the C store needs
// edge masking. B is packed symmetrically into NR-column panels. MR/NR are
// runtime parameters of the active micro-kernel; the layout is otherwise
// kernel-independent.

void pack_a(Trans ta, const float* a, std::int64_t lda, std::int64_t i0,
            std::int64_t p0, std::int64_t mc, std::int64_t kc, std::int64_t mr,
            float* dst) {
  for (std::int64_t ip = 0; ip < mc; ip += mr) {
    const std::int64_t rows = std::min(mr, mc - ip);
    if (ta == Trans::N) {
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* src = a + (i0 + ip + r) * lda + p0;
        for (std::int64_t p = 0; p < kc; ++p) dst[p * mr + r] = src[p];
      }
    } else {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = a + (p0 + p) * lda + i0 + ip;
        for (std::int64_t r = 0; r < rows; ++r) dst[p * mr + r] = src[r];
      }
    }
    if (rows < mr) {
      for (std::int64_t p = 0; p < kc; ++p) {
        for (std::int64_t r = rows; r < mr; ++r) dst[p * mr + r] = 0.0f;
      }
    }
    dst += kc * mr;
  }
}

// B-panel sources. The blocked driver is agnostic to where B elements come
// from: a plain matrix (gemm) or the virtual im2col matrix of a batch
// (gemm_im2col — the fusion that deletes the materialised col intermediate).
// Each source packs the (kc x nc) block at (p0, j0) of op(B) into
// NR-column zero-padded panels.
struct TapTable;

struct BSource {
  using PackFn = void (*)(const BSource& src, std::int64_t p0, std::int64_t j0,
                          std::int64_t kc, std::int64_t nc, std::int64_t nr,
                          float* dst);
  PackFn pack;
  // Matrix source.
  const float* b = nullptr;
  std::int64_t ldb = 0;
  Trans tb = Trans::N;
  // Im2col source. row0 / col0 are the im2col row / column of the product's
  // first output column when it covers only some of them.
  const TapTable* taps = nullptr;
  std::int64_t row0 = 0;
  std::int64_t col0 = 0;
};

void pack_b_matrix(const BSource& src, std::int64_t p0, std::int64_t j0,
                   std::int64_t kc, std::int64_t nc, std::int64_t nr,
                   float* dst) {
  const float* b = src.b;
  const std::int64_t ldb = src.ldb;
  for (std::int64_t jp = 0; jp < nc; jp += nr) {
    const std::int64_t cols = std::min(nr, nc - jp);
    if (src.tb == Trans::N) {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* s = b + (p0 + p) * ldb + j0 + jp;
        float* d = dst + p * nr;
        for (std::int64_t j = 0; j < cols; ++j) d[j] = s[j];
        for (std::int64_t j = cols; j < nr; ++j) d[j] = 0.0f;
      }
    } else {
      for (std::int64_t j = 0; j < cols; ++j) {
        const float* s = b + (j0 + jp + j) * ldb + p0;
        for (std::int64_t p = 0; p < kc; ++p) dst[p * nr + j] = s[p];
      }
      for (std::int64_t p = 0; p < kc && cols < nr; ++p) {
        for (std::int64_t j = cols; j < nr; ++j) dst[p * nr + j] = 0.0f;
      }
    }
    dst += kc * nr;
  }
}

// ---- Im2col tap table -------------------------------------------------------
//
// The virtual column matrix of one gemm_im2col call, with its geometry
// resolved once: element (r, c) is img[row_off[r] + col_off[c]], where img is
// the batch copied into zero-padded planes ((height + 2·pad) x
// (width + 2·pad), the image at offset (pad, pad) of each), or the caller's
// images themselves when pad is 0. row_off[r] is im2col row r's channel
// plane plus its tap (ky, kx); col_off[c] is column c's image plus the top
// left corner of its output pixel's receptive field. Every tap of every
// pixel lands inside its padded plane, so a padding tap reads a stored zero:
// the packers and the naive path run no division, modulo or bounds test per
// element, only one add of two offsets. Column offsets rise strictly with
// the column, and by exactly 1 per column along a stride-1 output row, which
// is how the packer spots a contiguous panel.
struct TapTable {
  const float* img;
  const std::int64_t* row_off;  // map.rows() entries
  const std::int64_t* col_off;  // map.cols() entries
};

// Grow-only per-thread buffers behind the calling thread's table. A table is
// built and read within one gemm_im2col call (its parallel regions only
// read it), so one set per thread suffices.
struct TapWorkspace {
  std::vector<std::int64_t> offsets;
  std::vector<float> padded;
};

TapTable build_tap_table(const float* img, const Im2colMap& m) {
  thread_local TapWorkspace ws;
  const std::int64_t hp = m.height + 2 * m.pad, wp = m.width + 2 * m.pad;
  const std::int64_t plane = hp * wp, vol = m.channels * plane;
  const std::size_t n_off = static_cast<std::size_t>(m.rows() + m.cols());
  if (ws.offsets.size() < n_off) ws.offsets.resize(n_off);
  std::int64_t* row_off = ws.offsets.data();
  std::int64_t* col_off = row_off + m.rows();
  for (std::int64_t c = 0, r = 0; c < m.channels; ++c) {
    for (std::int64_t ky = 0; ky < m.kh; ++ky) {
      for (std::int64_t kx = 0; kx < m.kw; ++kx, ++r) {
        row_off[r] = c * plane + ky * wp + kx;
      }
    }
  }
  const std::int64_t oh = m.out_h(), ow = m.out_w();
  for (std::int64_t b = 0, col = 0; b < m.batch; ++b) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++col) {
        col_off[col] = b * vol + oy * m.stride * wp + ox * m.stride;
      }
    }
  }
  if (m.pad == 0) return {img, row_off, col_off};
  const std::size_t n_pad = static_cast<std::size_t>(m.batch * vol);
  if (ws.padded.size() < n_pad) ws.padded.resize(n_pad);
  float* dst = ws.padded.data();
  std::fill(dst, dst + n_pad, 0.0f);
  const std::int64_t planes = m.batch * m.channels;
  for (std::int64_t q = 0; q < planes; ++q) {
    const float* s = img + q * m.height * m.width;
    float* d = dst + q * plane + m.pad * wp + m.pad;
    for (std::int64_t y = 0; y < m.height; ++y) {
      std::copy_n(s + y * m.width, m.width, d + y * wp);
    }
  }
  return {dst, row_off, col_off};
}

// op(B) = col: panel rows are im2col rows (kernel taps), panel columns are
// output pixels of the batch. Reads the images through the tap table —
// exactly the elements im2col would have written, in the same pack layout as
// pack_b_matrix(Trans::N). A panel whose columns are consecutive input
// pixels (along a stride-1 output row) copies each row as one run.
void pack_b_im2col_n(const BSource& src, std::int64_t p0, std::int64_t j0,
                     std::int64_t kc, std::int64_t nc, std::int64_t nr,
                     float* dst) {
  const TapTable& t = *src.taps;
  const std::int64_t* NEBULA_RESTRICT row_off = t.row_off + p0;
  for (std::int64_t jp = 0; jp < nc; jp += nr) {
    const std::int64_t cols = std::min(nr, nc - jp);
    const std::int64_t* NEBULA_RESTRICT col_off =
        t.col_off + src.col0 + j0 + jp;
    if (col_off[cols - 1] - col_off[0] == cols - 1) {
      const float* img = t.img + col_off[0];
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* NEBULA_RESTRICT s = img + row_off[p];
        float* NEBULA_RESTRICT d = dst + p * nr;
        for (std::int64_t j = 0; j < cols; ++j) d[j] = s[j];
        for (std::int64_t j = cols; j < nr; ++j) d[j] = 0.0f;
      }
    } else {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* NEBULA_RESTRICT s = t.img + row_off[p];
        float* NEBULA_RESTRICT d = dst + p * nr;
        for (std::int64_t j = 0; j < cols; ++j) d[j] = s[col_off[j]];
        for (std::int64_t j = cols; j < nr; ++j) d[j] = 0.0f;
      }
    }
    dst += kc * nr;
  }
}

// op(B) = col^T: panel rows are output pixels of the batch, panel columns
// are im2col rows. Mirrors pack_b_matrix(Trans::T) element-for-element.
void pack_b_im2col_t(const BSource& src, std::int64_t p0, std::int64_t j0,
                     std::int64_t kc, std::int64_t nc, std::int64_t nr,
                     float* dst) {
  const TapTable& t = *src.taps;
  const std::int64_t* NEBULA_RESTRICT col_off = t.col_off + p0;
  for (std::int64_t jp = 0; jp < nc; jp += nr) {
    const std::int64_t cols = std::min(nr, nc - jp);
    for (std::int64_t j = 0; j < cols; ++j) {
      const float* NEBULA_RESTRICT s =
          t.img + t.row_off[src.row0 + j0 + jp + j];
      for (std::int64_t p = 0; p < kc; ++p) dst[p * nr + j] = s[col_off[p]];
    }
    for (std::int64_t p = 0; p < kc && cols < nr; ++p) {
      for (std::int64_t j = cols; j < nr; ++j) dst[p * nr + j] = 0.0f;
    }
    dst += kc * nr;
  }
}

// ---- Naive small-problem paths ----------------------------------------------

inline void zero_c_rows(std::int64_t m, std::int64_t n, float* c,
                        std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
  }
}

// Sub-threshold products (m·n·k <= kNaiveFlopThreshold, which bounds every
// scratch array below). Contract, DESIGN.md §12: each output element sees
// the textbook loop's float operations in the textbook order — p ascending,
// starting from C (B read row-wise) or from a 0.0f partial sum added to C at
// the end (B read column-wise) — and no branch tests an entry's value.

// c[0:n) += val[q] · rows[q][0:n) for q = 0, 1, ..., count-1, one q after
// the other, so every c[j] sees the plain loop's adds in the plain loop's
// order. Four rows go per pass over j, which keeps c[j] in a register across
// them instead of storing and reloading it after every row.
inline void add_scaled_rows(std::int64_t n, std::int64_t count,
                            const float* val, const float* const* rows,
                            float* NEBULA_RESTRICT c) {
  std::int64_t q = 0;
  for (; q + 4 <= count; q += 4) {
    const float v0 = val[q], v1 = val[q + 1], v2 = val[q + 2],
                v3 = val[q + 3];
    const float* NEBULA_RESTRICT r0 = rows[q];
    const float* NEBULA_RESTRICT r1 = rows[q + 1];
    const float* NEBULA_RESTRICT r2 = rows[q + 2];
    const float* NEBULA_RESTRICT r3 = rows[q + 3];
    for (std::int64_t j = 0; j < n; ++j) {
      c[j] = c[j] + v0 * r0[j] + v1 * r1[j] + v2 * r2[j] + v3 * r3[j];
    }
  }
  for (; q < count; ++q) {
    const float v = val[q];
    const float* NEBULA_RESTRICT r = rows[q];
    for (std::int64_t j = 0; j < n; ++j) c[j] += v * r[j];
  }
}

void gemm_naive(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                bool accumulate) {
  NEBULA_CHECK(m * n * k <= kNaiveFlopThreshold);
  if (!accumulate) zero_c_rows(m, n, c, ldc);
  // op(A)(i, p) = a[i * a_row + p * a_col].
  const std::int64_t a_row = ta == Trans::N ? lda : 1;
  const std::int64_t a_col = ta == Trans::N ? 1 : lda;
  float val[kNaiveFlopThreshold];
  const float* rows[kNaiveFlopThreshold];
  if (tb == Trans::N) {
    // C's row i takes the rows of B facing the nonzero entries of op(A)'s
    // row i, gathered without branching. Skipping exactly these keeps the
    // plain loop's skip: 0·Inf never makes a NaN, a −0 entry is skipped
    // too, and a −0 accumulator stays −0.
    for (std::int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * a_row;
      std::int64_t nnz = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ai[p * a_col];
        val[nnz] = av;
        rows[nnz] = b + p * ldb;
        nnz += av != 0.0f;
      }
      add_scaled_rows(n, nnz, val, rows, c + i * ldc);
    }
    return;
  }
  // B read column-wise: transposed into bt(k, n), the j loop runs over
  // contiguous memory while each s[j] still sums p in ascending order from
  // 0.0f before it is added to C.
  float bt[kNaiveFlopThreshold];
  float s[kNaiveFlopThreshold];
  for (std::int64_t j = 0; j < n; ++j) {
    const float* bj = b + j * ldb;
    for (std::int64_t p = 0; p < k; ++p) bt[p * n + j] = bj[p];
  }
  for (std::int64_t p = 0; p < k; ++p) rows[p] = bt + p * n;
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * a_row;
    for (std::int64_t p = 0; p < k; ++p) val[p] = ai[p * a_col];
    std::fill(s, s + n, 0.0f);
    add_scaled_rows(n, k, val, rows, s);
    float* ci = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) ci[j] += s[j];
  }
}

// Writes columns [col0, col0 + n) of the table's virtual matrix, all of its
// rows, to col (row-major, leading dimension n). The naive paths run
// gemm_naive on this copy, so their float operations are those of the
// materialised lowering by construction.
void gather_columns(const TapTable& t, std::int64_t rows, std::int64_t col0,
                    std::int64_t n, float* NEBULA_RESTRICT col) {
  const std::int64_t* NEBULA_RESTRICT col_off = t.col_off + col0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* NEBULA_RESTRICT s = t.img + t.row_off[r];
    float* NEBULA_RESTRICT d = col + r * n;
    for (std::int64_t j = 0; j < n; ++j) d[j] = s[col_off[j]];
  }
}

// ---- Blocked driver ---------------------------------------------------------

// Parallel row-block sweep over one packed B panel: packs A blocks into
// per-worker scratch and runs the micro-kernel grid. `bpack` is read (never
// written) by every participant.
void row_sweep(const GemmKernel& ker, Trans ta, std::int64_t m, std::int64_t kc,
               std::int64_t nc, const float* a, std::int64_t lda,
               std::int64_t p0, std::int64_t j0, const float* bpack, float* c,
               std::int64_t ldc, bool acc_pass) {
  ThreadPool& pool = ThreadPool::global();
  const std::int64_t mr = ker.mr, nr = ker.nr;
  const std::size_t nblocks = static_cast<std::size_t>(ceil_div(m, kMC));
  pool.parallel_for_chunked(
      0, nblocks,
      [&](std::size_t blo, std::size_t bhi) {
        float* apack = pool.scratch_floats(ThreadPool::kScratchGemmA,
                                           static_cast<std::size_t>(kMC * kc));
        for (std::size_t blk = blo; blk < bhi; ++blk) {
          const std::int64_t i0 = static_cast<std::int64_t>(blk) * kMC;
          const std::int64_t mc = std::min(kMC, m - i0);
          pack_a(ta, a, lda, i0, p0, mc, kc, mr, apack);
          for (std::int64_t jp = 0; jp < nc; jp += nr) {
            const std::int64_t nrr = std::min(nr, nc - jp);
            const float* bp = bpack + (jp / nr) * kc * nr;
            for (std::int64_t ip = 0; ip < mc; ip += mr) {
              const std::int64_t mrr = std::min(mr, mc - ip);
              const float* ap = apack + (ip / mr) * kc * mr;
              ker.fn(kc, ap, bp, c + (i0 + ip) * ldc + j0 + jp, ldc, acc_pass,
                     mrr, nrr);
            }
          }
        }
      },
      1);
}

void gemm_blocked(const GemmKernel& ker, Trans ta, std::int64_t m,
                  std::int64_t n, std::int64_t k, const float* a,
                  std::int64_t lda, const BSource& bsrc, float* c,
                  std::int64_t ldc, bool accumulate) {
  NEBULA_SPAN("gemm.blocked");
  ThreadPool& pool = ThreadPool::global();
  const std::int64_t nr = ker.nr;
  // The B panel stays live across each row_sweep below — lease the slot so
  // any other kernel reaching for it on this thread fails loudly.
  ThreadPool::ScratchLease bpack_lease(pool, ThreadPool::kScratchGemmB, 0);
  for (std::int64_t j0 = 0; j0 < n; j0 += kNC) {
    const std::int64_t nc = std::min(kNC, n - j0);
    const std::int64_t nc_pad = ceil_div(nc, nr) * nr;
    for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
      const std::int64_t kc = std::min(kKC, k - p0);
      const bool acc_pass = accumulate || p0 > 0;
      // The B panel is packed once by the calling thread and read (not
      // written) by every participant of the row-block sweep below.
      float* bpack = bpack_lease.grow(static_cast<std::size_t>(kc * nc_pad));
      {
        NEBULA_SPAN("gemm.pack_b");
        bsrc.pack(bsrc, p0, j0, kc, nc, nr, bpack);
      }
      row_sweep(ker, ta, m, kc, nc, a, lda, p0, j0, bpack, c, ldc, acc_pass);
    }
  }
}

}  // namespace

// ---- Public entry points ----------------------------------------------------

const char* gemm_kernel_name() { return active_kernel().name; }

bool gemm_force_kernel(const char* name) {
  if (name == nullptr || name[0] == '\0' ||
      std::strcmp(name, "auto") == 0) {
    g_forced_kernel.store(nullptr, std::memory_order_release);
    return true;
  }
  const GemmKernel* candidates[] = {
    &detail::portable_kernel(),
#if defined(__x86_64__) || defined(__i386__)
    detail::avx2_kernel(),
#elif defined(__aarch64__)
    detail::neon_kernel(),
#endif
  };
  for (const GemmKernel* k : candidates) {
    if (k == nullptr || std::strcmp(k->name, name) != 0) continue;
    // Under NEBULA_FORCE_PORTABLE_KERNEL the whole process is pinned
    // portable; refuse to hand out SIMD kernels so a forced-portable test
    // run stays pure.
    if (env_force_portable() && k != &detail::portable_kernel()) return false;
    g_forced_kernel.store(k, std::memory_order_release);
    return true;
  }
  return false;
}

bool gemm_runs_naive(std::int64_t m, std::int64_t n, std::int64_t k) {
  return m * n * k <= kNaiveFlopThreshold;
}

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float* c, std::int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) zero_c_rows(m, n, c, ldc);
    return;
  }
  // Sharded relaxed adds: a handful of ns even for the tiny per-sample
  // GEMMs, but they make gemm.flops / gemm.calls first-class quantities.
  static obs::Counter& m_calls = obs::counter("gemm.calls");
  static obs::Counter& m_flops = obs::counter("gemm.flops");
  m_calls.add(1);
  m_flops.add(2 * m * n * k);
  if (gemm_runs_naive(m, n, k)) {
    static obs::Counter& m_naive = obs::counter("gemm.naive_calls");
    m_naive.add(1);
    gemm_naive(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
    return;
  }
  BSource src;
  src.pack = &pack_b_matrix;
  src.b = b;
  src.ldb = ldb;
  src.tb = tb;
  gemm_blocked(active_kernel(), ta, m, n, k, a, lda, src, c, ldc, accumulate);
}

void gemm_column_groups(Trans ta, std::int64_t m, std::int64_t n,
                        std::int64_t k, const float* a, std::int64_t lda,
                        const float* b, std::int64_t ldb, float* c,
                        std::int64_t ldc, bool accumulate, std::int64_t group) {
  NEBULA_CHECK_MSG(group > 0 && n % group == 0,
                   "gemm_column_groups: " << n << " columns in groups of "
                                          << group);
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) zero_c_rows(m, n, c, ldc);
    return;
  }
  static obs::Counter& m_calls = obs::counter("gemm.calls");
  static obs::Counter& m_flops = obs::counter("gemm.flops");
  m_calls.add(1);
  m_flops.add(2 * m * n * k);
  // Classified once for the whole call, as gemm_im2col does.
  const bool naive = gemm_runs_naive(m, n, k);
  if (naive) {
    static obs::Counter& m_naive = obs::counter("gemm.naive_calls");
    m_naive.add(1);
  }
  const GemmKernel& ker = active_kernel();
  ThreadPool::global().parallel_for_chunked(
      0, static_cast<std::size_t>(n / group),
      [&](std::size_t lo, std::size_t hi) {
        const std::int64_t j0 = static_cast<std::int64_t>(lo) * group;
        const std::int64_t nc = static_cast<std::int64_t>(hi - lo) * group;
        if (naive) {
          gemm_naive(ta, Trans::N, m, nc, k, a, lda, b + j0, ldb, c + j0, ldc,
                     accumulate);
          return;
        }
        BSource src;
        src.pack = &pack_b_matrix;
        src.b = b + j0;
        src.ldb = ldb;
        src.tb = Trans::N;
        gemm_blocked(ker, ta, m, nc, k, a, lda, src, c + j0, ldc, accumulate);
      });
}

void gemm_im2col(Trans trans_col, std::int64_t m, const float* a,
                 std::int64_t lda, const float* img, const Im2colMap& map,
                 float* c, std::int64_t ldc, bool accumulate) {
  NEBULA_CHECK(map.channels > 0 && map.kh > 0 && map.kw > 0 && map.stride > 0);
  NEBULA_CHECK_MSG(map.out_h() > 0 && map.out_w() > 0,
                   "gemm_im2col: output collapsed to zero");
  NEBULA_CHECK_MSG(map.batch > 0, "gemm_im2col: bad batch " << map.batch);
  const std::int64_t n = (trans_col == Trans::N) ? map.cols() : map.rows();
  const std::int64_t k = (trans_col == Trans::N) ? map.rows() : map.cols();
  if (m <= 0) return;
  static obs::Counter& m_calls = obs::counter("gemm.calls");
  static obs::Counter& m_flops = obs::counter("gemm.flops");
  static obs::Counter& m_fused = obs::counter("gemm.im2col_fused_calls");
  m_calls.add(1);
  m_flops.add(2 * m * n * k);
  m_fused.add(1);
  // Classified once, from the whole call's volume: were each image chunk
  // below classified on its own, a pool split could send a small chunk down
  // the naive path while a 1-worker pool runs the same images blocked, and
  // the bits would depend on the pool size.
  const bool naive = gemm_runs_naive(m, n, k);
  if (naive) {
    static obs::Counter& m_naive = obs::counter("gemm.naive_calls");
    m_naive.add(1);
  }
  const GemmKernel& ker = active_kernel();
  ThreadPool& pool = ThreadPool::global();
  const TapTable taps = build_tap_table(img, map);
  // A naive product is at most kNaiveFlopThreshold multiply-adds, so the
  // columns it reads fit a buffer of that many floats on the stack.
  if (trans_col == Trans::T) {
    if (naive) {
      float col[kNaiveFlopThreshold];
      gather_columns(taps, n, 0, k, col);
      gemm_naive(Trans::N, Trans::T, m, n, k, a, lda, col, k, c, ldc,
                 accumulate);
      return;
    }
    // The batch is the reduction dimension here, so the product fans out
    // over its output columns (im2col rows) instead, in whole register
    // panels; every column still sums its K = batch·pixels terms in one
    // fixed order.
    pool.parallel_for_chunked(
        0, static_cast<std::size_t>(ceil_div(n, ker.nr)),
        [&](std::size_t lo, std::size_t hi) {
          const std::int64_t j0 = static_cast<std::int64_t>(lo) * ker.nr;
          const std::int64_t j1 =
              std::min(n, static_cast<std::int64_t>(hi) * ker.nr);
          BSource src;
          src.pack = &pack_b_im2col_t;
          src.taps = &taps;
          src.row0 = j0;
          gemm_blocked(ker, Trans::N, m, j1 - j0, k, a, lda, src, c + j0, ldc,
                       accumulate);
        });
    return;
  }
  // Output columns are independent, so images fan out across the pool.
  pool.parallel_for_chunked(
      0, static_cast<std::size_t>(map.batch),
      [&](std::size_t lo, std::size_t hi) {
        const std::int64_t col0 = static_cast<std::int64_t>(lo) * map.pixels();
        const std::int64_t cols =
            static_cast<std::int64_t>(hi - lo) * map.pixels();
        float* sub_c = c + col0;
        if (naive) {
          float sub_col[kNaiveFlopThreshold];
          gather_columns(taps, k, col0, cols, sub_col);
          gemm_naive(Trans::N, Trans::N, m, cols, k, a, lda, sub_col, cols,
                     sub_c, ldc, accumulate);
          return;
        }
        BSource src;
        src.pack = &pack_b_im2col_n;
        src.taps = &taps;
        src.col0 = col0;
        gemm_blocked(ker, Trans::N, m, cols, k, a, lda, src, sub_c, ldc,
                     accumulate);
      });
}

}  // namespace nebula
