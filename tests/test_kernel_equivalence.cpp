// Equivalence properties for the blocked GEMM engine and Conv2d.
//
//  * serial vs parallel: every GEMM variant and the conv forward/backward
//    path under a 1-thread and an N-thread pool, against a double-precision
//    reference — the partition must not change the result beyond float
//    re-association noise;
//  * SIMD vs portable: the dispatched micro-kernel against the pinned
//    portable kernel across remainder shapes around every tile boundary
//    (tolerance-compared — FMA contraction is the only permitted difference);
//  * Conv2d against a direct convolution accumulated in double: forward,
//    dx, dW and db;
//  * fused im2col vs explicit: gemm_im2col against materialise-then-gemm,
//    bit-identical, on single- and multi-image maps;
//  * the sub-threshold naive path against a verbatim copy of its original
//    branchy loops, bit-identical, through gemm and gemm_column_groups (the
//    latter on 1- and 4-worker pools);
//  * the selector's gate memo: frozen-selector training fed from it against
//    a loop that runs the selector per batch, importance against a fresh
//    forward, and every part of its key forcing a recompute — bitwise;
//  * training steps: the parameter-only backward against backward (Linear,
//    the conv stems, every model family) on 1- and 4-worker pools, and
//    frozen-selector training against a full-backward reference — bitwise.
//
// CTest runs this binary twice (label `kernels`): once with runtime dispatch
// and once under NEBULA_FORCE_PORTABLE_KERNEL=1, where the SIMD comparisons
// skip and everything else must still hold on the pure portable path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/model_zoo.h"
#include "core/train.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/layers_basic.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace nebula {
namespace {

using testutil::ScopedPool;

void fill_random(Tensor& t, Rng& rng) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[static_cast<std::size_t>(i)] = rng.normal();
  }
}

// C = A(M,K)·B(K,N) in double precision (the ground truth for all variants).
Tensor reference_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor transpose(const Tensor& a) {
  Tensor t({a.dim(1), a.dim(0)});
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < a.dim(1); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

void expect_close(const Tensor& got, const Tensor& want, float tol,
                  const char* what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float g = got[static_cast<std::size_t>(i)];
    const float w = want[static_cast<std::size_t>(i)];
    ASSERT_NEAR(g, w, tol * (1.0f + std::fabs(w))) << what << " at " << i;
  }
}

void expect_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << what << " is not bit-identical";
}

// Odd, deliberately non-multiple-of-tile sizes so every pack/store edge path
// is exercised; includes sizes straddling the naive/packed threshold and the
// KC/MC/NC block boundaries.
std::int64_t odd_dim(Rng& rng) {
  static const std::int64_t sizes[] = {1, 3, 5, 7, 9, 13, 17, 31, 65, 97, 129};
  return sizes[rng.uniform_int(sizeof(sizes) / sizeof(sizes[0]))];
}

TEST(GemmEquivalence, AllVariantsSerialVsParallelRandomShapes) {
  Rng rng(20240805);
  for (int iter = 0; iter < 25; ++iter) {
    const std::int64_t m = odd_dim(rng), k = odd_dim(rng), n = odd_dim(rng);
    Tensor a({m, k}), b({k, n}), c0({m, n});
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(c0, rng);  // initial C for the accumulate variants
    const Tensor ab = reference_matmul(a, b);
    const Tensor at = transpose(a);
    const Tensor bt = transpose(b);
    const float tol =
        1e-4f * std::sqrt(static_cast<float>(std::max<std::int64_t>(
                    {m, k, n})));

    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ScopedPool scope(threads);
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " m=" << m
                                      << " k=" << k << " n=" << n);

      Tensor c({m, n});
      matmul(a, b, c);
      expect_close(c, ab, tol, "matmul");

      // matmul_tn_acc: C(K',N) += A'(M',K')^T·B'(M',N) with A' = at^T = a...
      // use A'=at (shape (k,m) -> transposed product = a·b) so the reference
      // is the same ab plus the initial C.
      Tensor cacc = c0;
      matmul_tn_acc(at, b, cacc);
      Tensor want_acc = ab;
      add_inplace(want_acc, c0);
      expect_close(cacc, want_acc, tol, "matmul_tn_acc");

      Tensor ctn({m, n});
      matmul_tn(at, b, ctn);
      expect_close(ctn, ab, tol, "matmul_tn");

      Tensor cnt({m, n});
      matmul_nt(a, bt, cnt);
      expect_close(cnt, ab, tol, "matmul_nt");

      Tensor cnt_acc = c0;
      matmul_nt_acc(a, bt, cnt_acc);
      expect_close(cnt_acc, want_acc, tol, "matmul_nt_acc");
    }
  }
}

TEST(GemmEquivalence, LargeSquareCrossesAllBlockBoundaries) {
  // 300 > MC (96), NC not hit, K > KC (256): exercises the multi-pass
  // K-accumulation and parallel row-block sweep together.
  Rng rng(7);
  const std::int64_t s = 300;
  Tensor a({s, s}), b({s, s});
  fill_random(a, rng);
  fill_random(b, rng);
  Tensor serial({s, s}), parallel({s, s});
  {
    ScopedPool scope(1);
    matmul(a, b, serial);
  }
  {
    ScopedPool scope(4);
    matmul(a, b, parallel);
  }
  expect_close(parallel, serial, 1e-5f, "matmul 300x300");
}

TEST(MatmulShapeCheck, RejectsTransposedB) {
  // Regression: a (n, k) B with k != n has the right volume but the wrong
  // layout; the volume-only check used to leave this class of bug to the
  // inner-dimension check alone. It must throw, never compute.
  Tensor a({4, 6}), b_t({9, 6}), c({4, 9});
  EXPECT_THROW(matmul(a, b_t, c), std::runtime_error);
  Tensor flat({54, 1});  // right volume, wrong rank-2 layout
  EXPECT_THROW(matmul(a, flat, c), std::runtime_error);
}

struct ConvCase {
  std::int64_t in_c, out_c, h, w, k, stride, pad, batch;
};

// Generic conv geometries: odd channels, stride, rectangular maps, 5x5 and
// 1x1 kernels.
const ConvCase kConvCases[] = {
    {3, 5, 9, 9, 3, 1, 1, 5},   // odd channels, pad
    {1, 7, 11, 7, 3, 2, 0, 3},  // stride 2, rectangular
    {5, 3, 7, 13, 5, 2, 2, 4},  // 5x5 kernel, stride+pad
    {2, 4, 8, 8, 1, 1, 0, 7},   // 1x1 kernel, odd batch
};

// The ResNet18-style model's conv shapes (3x3, pad 1) at the batch sizes a
// round hands them: the full local batch for the stem and bridge, a few
// routed samples for a module.
const ConvCase kResnetConvCases[] = {
    {3, 8, 8, 8, 3, 1, 1, 16},  // stem, 8x8
    {8, 16, 4, 4, 3, 2, 1, 16}, // bridge, stride 2: 4x4 -> 2x2
    {8, 4, 4, 4, 3, 1, 1, 5},   // module conv at 4x4, routed sub-batch
    {16, 16, 2, 2, 3, 1, 1, 3}, // module conv at 2x2, routed sub-batch
};

TEST(ConvEquivalence, ForwardBackwardSerialVsParallel) {
  // Besides the generic and ResNet shapes, cases whose per-worker image
  // chunks sit on the other side of the naive/blocked threshold than the
  // whole batch (3x3, pad 1, 2x2 maps): 8->4 at batch 8 is blocked as a
  // whole (4·32·72 MACs) but naive per 4-image chunk; 8->8 at batch 7 is
  // blocked as a whole and per 4-image chunk but naive per 3-, 2- or 1-image
  // chunk. 8->4 at batch 7 (4·28·72 = 8064 MACs) is naive as a whole. Every
  // pool size must reproduce the serial bits, which holds only if the
  // naive-or-blocked choice is made once per call.
  std::vector<ConvCase> cases(std::begin(kConvCases), std::end(kConvCases));
  cases.insert(cases.end(), std::begin(kResnetConvCases),
               std::end(kResnetConvCases));
  cases.push_back({8, 4, 2, 2, 3, 1, 1, 7});
  cases.push_back({8, 4, 2, 2, 3, 1, 1, 8});
  cases.push_back({8, 8, 2, 2, 3, 1, 1, 7});
  Rng rng(99);
  for (const auto& cc : cases) {
    SCOPED_TRACE(testing::Message()
                 << "conv in_c=" << cc.in_c << " out_c=" << cc.out_c
                 << " h=" << cc.h << " w=" << cc.w << " k=" << cc.k
                 << " stride=" << cc.stride << " pad=" << cc.pad
                 << " batch=" << cc.batch);
    Conv2d conv(cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad);
    Tensor x({cc.batch, cc.in_c, cc.h, cc.w});
    fill_random(x, rng);
    const auto os = conv.out_shape(x.shape());
    Tensor gy(os);
    fill_random(gy, rng);

    Tensor y1, dx1, dw1, db1;
    {
      ScopedPool scope(1);
      conv.zero_grad();
      y1 = conv.forward(x, true);
      dx1 = conv.backward(gy);
      dw1 = conv.params()[0]->grad;
      db1 = conv.params()[1]->grad;
    }
    // Forward and dx may split the batch across workers at image
    // boundaries and dW its output columns; db is one serial sum. Every
    // pool size must reproduce the serial bits exactly.
    for (std::size_t workers : {2u, 4u, 7u}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers);
      ScopedPool scope(workers);
      conv.zero_grad();
      Tensor yn = conv.forward(x, true);
      Tensor dxn = conv.backward(gy);
      expect_bits(yn, y1, "conv forward");
      expect_bits(dxn, dx1, "conv dx");
      expect_bits(conv.params()[0]->grad, dw1, "conv dW");
      expect_bits(conv.params()[1]->grad, db1, "conv db");
    }
  }
}

// Direct nested-loop convolution accumulated in double: the ground truth for
// Conv2d's forward and its three gradients. Each output also carries the sum
// of the magnitudes of the terms it adds up — the scale of float summation
// error — so the comparison is relative even where the terms cancel.
struct Accum {
  std::vector<double> sum, mag;
  explicit Accum(std::int64_t n)
      : sum(static_cast<std::size_t>(n)), mag(static_cast<std::size_t>(n)) {}
  void add(std::int64_t i, double term) {
    sum[static_cast<std::size_t>(i)] += term;
    mag[static_cast<std::size_t>(i)] += std::fabs(term);
  }
};

void expect_rel(const Tensor& got, const Accum& want, double rel,
                const char* what) {
  ASSERT_EQ(static_cast<std::size_t>(got.numel()), want.sum.size()) << what;
  for (std::size_t i = 0; i < want.sum.size(); ++i) {
    ASSERT_LE(std::fabs(got[i] - want.sum[i]), rel * want.mag[i])
        << what << " at " << i << ": got " << got[i] << " want "
        << want.sum[i];
  }
}

TEST(ConvReference, MatchesDirectConvolutionInDouble) {
  std::vector<ConvCase> cases(std::begin(kConvCases), std::end(kConvCases));
  cases.insert(cases.end(), std::begin(kResnetConvCases),
               std::end(kResnetConvCases));
  cases.push_back({3, 8, 8, 8, 3, 1, 1, 1});   // batch 1
  cases.push_back({8, 16, 4, 4, 3, 2, 1, 3});  // odd batch, stride 2
  cases.push_back({16, 16, 2, 2, 3, 1, 1, 9}); // odd batch, blocked products
  Rng rng(2718);
  for (const auto& cc : cases) {
    for (const bool bias : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "conv in_c=" << cc.in_c << " out_c=" << cc.out_c
                   << " h=" << cc.h << " w=" << cc.w << " k=" << cc.k
                   << " stride=" << cc.stride << " pad=" << cc.pad
                   << " batch=" << cc.batch << " bias=" << bias);
      Conv2d conv(cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad, bias);
      Tensor& wgt = conv.params()[0]->value;
      if (bias) fill_random(conv.params()[1]->value, rng);
      Tensor x({cc.batch, cc.in_c, cc.h, cc.w});
      fill_random(x, rng);
      const auto os = conv.out_shape(x.shape());
      const std::int64_t oh = os[2], ow = os[3], kk = cc.k * cc.k;
      Tensor gy(os);
      fill_random(gy, rng);

      Accum y(gy.numel()), dx(x.numel()), dw(wgt.numel()), db(cc.out_c);
      for (std::int64_t b = 0; b < cc.batch; ++b) {
        for (std::int64_t o = 0; o < cc.out_c; ++o) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t yi = ((b * cc.out_c + o) * oh + oy) * ow + ox;
              const double g = gy[static_cast<std::size_t>(yi)];
              if (bias) {
                y.add(yi, conv.params()[1]->value[static_cast<std::size_t>(o)]);
              }
              db.add(o, g);
              for (std::int64_t c = 0; c < cc.in_c; ++c) {
                for (std::int64_t ky = 0; ky < cc.k; ++ky) {
                  const std::int64_t iy = oy * cc.stride - cc.pad + ky;
                  if (iy < 0 || iy >= cc.h) continue;
                  for (std::int64_t kx = 0; kx < cc.k; ++kx) {
                    const std::int64_t ix = ox * cc.stride - cc.pad + kx;
                    if (ix < 0 || ix >= cc.w) continue;
                    const std::int64_t xi =
                        ((b * cc.in_c + c) * cc.h + iy) * cc.w + ix;
                    const std::int64_t wi = o * cc.in_c * kk + c * kk +
                                            ky * cc.k + kx;
                    const double xv = x[static_cast<std::size_t>(xi)];
                    const double wv = wgt[static_cast<std::size_t>(wi)];
                    y.add(yi, wv * xv);
                    dw.add(wi, g * xv);
                    dx.add(xi, g * wv);
                  }
                }
              }
            }
          }
        }
      }

      conv.zero_grad();
      const Tensor got_y = conv.forward(x, true);
      const Tensor got_dx = conv.backward(gy);
      expect_rel(got_y, y, 1e-4, "conv forward");
      expect_rel(got_dx, dx, 1e-4, "conv dx");
      expect_rel(conv.params()[0]->grad, dw, 1e-4, "conv dW");
      if (bias) expect_rel(conv.params()[1]->grad, db, 1e-4, "conv db");
      EXPECT_EQ(conv.params().size(), bias ? 2u : 1u);
    }
  }
}

TEST(BatchNormEquivalence, BackwardSerialVsParallelBitIdentical) {
  // The backward's cross-batch sums ride the same deterministic reduction as
  // conv's dW/db; rank-2 and rank-4 layouts, odd sizes, every pool size.
  struct Case {
    std::vector<std::int64_t> shape;
  };
  const Case cases[] = {{{9, 5}}, {{4, 3, 5, 7}}, {{17, 6}}, {{3, 8, 4, 4}}};
  Rng rng(123);
  for (const auto& cc : cases) {
    SCOPED_TRACE(testing::Message() << "rank=" << cc.shape.size());
    const std::int64_t features = cc.shape[1];
    BatchNorm bn(features);
    Tensor x(cc.shape), gy(cc.shape);
    fill_random(x, rng);
    fill_random(gy, rng);

    Tensor dx1, dgamma1, dbeta1;
    {
      ScopedPool scope(1);
      bn.zero_grad();
      bn.forward(x, true);
      dx1 = bn.backward(gy);
      dgamma1 = bn.params()[0]->grad;
      dbeta1 = bn.params()[1]->grad;
    }
    for (std::size_t workers : {2u, 4u, 7u}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers);
      ScopedPool scope(workers);
      bn.zero_grad();
      bn.forward(x, true);
      Tensor dxn = bn.backward(gy);
      expect_bits(dxn, dx1, "bn dx");
      expect_bits(bn.params()[0]->grad, dgamma1, "bn dgamma");
      expect_bits(bn.params()[1]->grad, dbeta1, "bn dbeta");
    }
  }
}

// Restores runtime dispatch even if an assertion unwinds the test body.
class ScopedKernel {
 public:
  explicit ScopedKernel(const char* name) : ok_(gemm_force_kernel(name)) {}
  ~ScopedKernel() { gemm_force_kernel("auto"); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

void expect_bits_equal(const float* got, const float* want, std::int64_t n,
                       const char* what) {
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << what << " differs at " << i << ": got " << got[i] << " want "
        << want[i];
  }
}

TEST(KernelDispatch, ForceAndRestore) {
  const std::string initial = gemm_kernel_name();
  EXPECT_FALSE(initial.empty());
  {
    ScopedKernel pin("portable-6x8");
    ASSERT_TRUE(pin.ok());
    EXPECT_STREQ(gemm_kernel_name(), "portable-6x8");
    EXPECT_FALSE(gemm_force_kernel("no-such-kernel"));
    EXPECT_STREQ(gemm_kernel_name(), "portable-6x8");  // unchanged on failure
  }
  EXPECT_EQ(gemm_kernel_name(), initial);
}

TEST(KernelDispatch, SimdVsPortableAcrossRemainderShapes) {
  if (std::string(gemm_kernel_name()) == "portable-6x8") {
    GTEST_SKIP() << "no SIMD kernel dispatched on this host/configuration";
  }
  // Every value straddles a tile boundary of at least one registered kernel:
  // 1..9 covers MR±1 for MR ∈ {6, 8}, 15..17 covers NR±1 for NR = 16, and
  // 129/255 cross the MC/KC cache blocks with a remainder. The portable
  // result (no FMA) is the baseline; SIMD may differ only by fused rounding.
  const std::int64_t dims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 129,
                               255};
  Rng rng(20260808);
  for (const std::int64_t m : dims) {
    for (const std::int64_t k : dims) {
      for (const std::int64_t n : dims) {
        Tensor a({m, k}), b({k, n});
        fill_random(a, rng);
        fill_random(b, rng);
        Tensor c_simd({m, n}), c_port({m, n});
        gemm(Trans::N, Trans::N, m, n, k, a.data(), k, b.data(), n,
             c_simd.data(), n, false);
        {
          ScopedKernel pin("portable-6x8");
          ASSERT_TRUE(pin.ok());
          gemm(Trans::N, Trans::N, m, n, k, a.data(), k, b.data(), n,
               c_port.data(), n, false);
        }
        SCOPED_TRACE(testing::Message()
                     << "m=" << m << " k=" << k << " n=" << n);
        const float tol = 1e-5f * std::sqrt(static_cast<float>(k));
        expect_close(c_simd, c_port, tol, "simd vs portable");
      }
    }
  }
}

// gemm_im2col must produce exactly the bits of materialise-col-then-gemm:
// the packed panels (and the naive paths) read identical elements in
// identical order, so this is equality, not tolerance. A multi-image map is
// compared against each image's explicit im2col placed side by side along
// the columns.
TEST(FusedIm2col, BitIdenticalToExplicitLowering) {
  struct Case {
    std::int64_t in_c, out_c, h, w, kh, kw, stride, pad, batch;
  };
  std::vector<Case> cases = {
      {3, 5, 9, 9, 3, 3, 1, 1, 1},    // small: naive path
      {1, 4, 7, 5, 3, 3, 2, 0, 1},    // stride 2, no pad
      {4, 6, 17, 13, 5, 5, 2, 2, 1},  // 5x5 taps, rectangular
      {8, 16, 19, 19, 3, 3, 1, 1, 1},  // blocked path (beats the flop threshold)
      // Multi-image maps. P (pixels per image) is no multiple of any NR, so
      // register panels straddle images.
      {2, 3, 3, 3, 3, 3, 2, 1, 3},    // 2x2 maps, stride 2 + pad: naive
      {4, 6, 7, 5, 3, 3, 2, 1, 5},    // 4x3 maps, stride 2 + pad: blocked
      {8, 16, 9, 9, 3, 3, 1, 1, 4},   // K = 324 for dW: a KC block straddles
      {2, 4, 10, 10, 3, 3, 1, 1, 7},  // N = K = 700: NC and KC blocks straddle
      // The traffic's shapes (3x3, pad 1). ResNet18: the stem sees the full
      // local batch on 8x8 (P = 64, above every NR, out_w == width), the
      // stride-2 bridge 4x4 -> 2x2.
      {3, 8, 8, 8, 3, 3, 1, 1, 16},
      {8, 16, 4, 4, 3, 3, 2, 1, 16},
      // Speech/ResNet34: the stem on 16x8 and its stride-2 conv 8x4 -> 4x2.
      {1, 8, 16, 8, 3, 3, 1, 1, 16},
      {8, 12, 8, 4, 3, 3, 2, 1, 16},
      // A 1x1 pad-0 map: every panel of one image is one contiguous run.
      {6, 5, 4, 4, 1, 1, 1, 0, 3},
      // kh != kw: out_w > width (3x1, pad 1), stride 2 with no pad (1x3),
      // and out_w == width with out_h < height (5x3, pad 1).
      {2, 3, 6, 7, 3, 1, 1, 1, 2},
      {3, 4, 5, 9, 1, 3, 2, 0, 4},
      {2, 6, 7, 6, 5, 3, 1, 1, 3},
      // P = 9 lies between the portable NR (8) and the AVX2 NR (16).
      {4, 6, 3, 3, 3, 3, 1, 1, 7},
      // 2x2 taps, no pad, out_w = 9: a panel crossing one output row skips
      // a single input column, the nearest miss of a contiguous panel.
      {8, 8, 6, 10, 2, 2, 1, 0, 2},
  };
  // Routed module convs at 4x4 (P = 16: at the AVX2 NR, above the portable
  // one) and 2x2 (P = 4, below every NR), for the sub-batch sizes a round
  // hands them; batch 1 of the narrower ones runs the naive path.
  for (const std::int64_t b : {1, 2, 5, 16}) {
    cases.push_back({8, 4, 4, 4, 3, 3, 1, 1, b});
    cases.push_back({8, 8, 4, 4, 3, 3, 1, 1, b});
    cases.push_back({16, 8, 2, 2, 3, 3, 1, 1, b});
    cases.push_back({16, 16, 2, 2, 3, 3, 1, 1, b});
  }
  Rng rng(4242);
  for (const auto& cc : cases) {
    const Im2colMap map{cc.in_c, cc.h,      cc.w,   cc.kh,
                        cc.kw,   cc.stride, cc.pad, cc.batch};
    const std::int64_t rows = map.rows(), cols = map.cols();
    const std::int64_t pix = map.pixels();
    Tensor x({cc.batch, cc.in_c, cc.h, cc.w}), wgt({cc.out_c, rows}),
        gy({cc.out_c, cols});
    fill_random(x, rng);
    fill_random(wgt, rng);
    fill_random(gy, rng);
    // Half the weights zero, so the naive forward's skip of zero entries
    // of A runs against the materialised lowering too.
    for (std::int64_t i = 0; i < wgt.numel(); ++i) {
      if (rng.uniform() < 0.5f) wgt[static_cast<std::size_t>(i)] = 0.0f;
    }
    Tensor col({rows, cols});
    for (std::int64_t b = 0; b < cc.batch; ++b) {
      im2col(x.data() + b * map.volume(), cc.in_c, cc.h, cc.w, cc.kh, cc.kw,
             cc.stride, cc.pad, col.data() + b * pix, cols);
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ScopedPool scope(threads);
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " in_c=" << cc.in_c
                   << " out_c=" << cc.out_c << " map=" << cc.h << "x" << cc.w
                   << " k=" << cc.kh << "x" << cc.kw
                   << " stride=" << cc.stride << " pad=" << cc.pad
                   << " batch=" << cc.batch);
      // Forward product: C(out_c, cols) = W · col.
      Tensor want({cc.out_c, cols}), got({cc.out_c, cols});
      gemm(Trans::N, Trans::N, cc.out_c, cols, rows, wgt.data(), rows,
           col.data(), cols, want.data(), cols, false);
      gemm_im2col(Trans::N, cc.out_c, wgt.data(), rows, x.data(), map,
                  got.data(), cols, false);
      expect_bits_equal(got.data(), want.data(), got.numel(), "fused fwd");
      // Weight-gradient product: C(out_c, rows) += gy · col^T.
      Tensor want_t({cc.out_c, rows}), got_t({cc.out_c, rows});
      fill_random(want_t, rng);
      std::memcpy(got_t.data(), want_t.data(),
                  static_cast<std::size_t>(want_t.numel()) * sizeof(float));
      gemm(Trans::N, Trans::T, cc.out_c, rows, cols, gy.data(), cols,
           col.data(), cols, want_t.data(), rows, true);
      gemm_im2col(Trans::T, cc.out_c, gy.data(), cols, x.data(), map,
                  got_t.data(), rows, true);
      expect_bits_equal(got_t.data(), want_t.data(), got_t.numel(),
                        "fused dW");
    }
  }
}

// col2im as it stood before its scatter was driven by a tap table: every
// output pixel of every tap row tests its input coordinates.
void col2im_reference(const float* col, std::int64_t ldcol,
                      std::int64_t channels, std::int64_t height,
                      std::int64_t width, std::int64_t kh, std::int64_t kw,
                      std::int64_t stride, std::int64_t pad, float* img) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  std::fill(img, img + channels * height * width, 0.0f);
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    float* ic = img + c * height * width;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row) {
        const float* crow = col + row * ldcol;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= height) continue;
          float* irow = ic + iy * width;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            if (ix >= 0 && ix < width) irow[ix] += crow[oy * out_w + ox];
          }
        }
      }
    }
  }
}

// col2im must keep the reference loop's bits: every image element takes the
// same adds in the same order, starting from 0.0f. The column values mix ±0,
// ±denormals and repeated values, so a changed order or a first add turned
// into a store (0.0f + -0.0f is +0) shows in the bits.
TEST(Col2im, BitIdenticalToOriginalLoop) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0f,    -0.0f,   denorm, -denorm,
                            3.0f * denorm, 1.5f, -1.5f, 1e-30f};
  const std::int64_t maps[][2] = {{1, 1}, {2, 2}, {4, 4}, {5, 3}, {3, 7},
                                  {8, 8}, {16, 8}, {6, 11}};
  Rng rng(2607);
  for (const auto& hw : maps) {
    for (const std::int64_t k : {1, 3, 5}) {
      for (std::int64_t stride = 1; stride <= 3; ++stride) {
        for (std::int64_t pad = 0; pad <= 2; ++pad) {
          const std::int64_t h = hw[0], w = hw[1], channels = 2, images = 3;
          const std::int64_t oh = conv_out_size(h, k, stride, pad);
          const std::int64_t ow = conv_out_size(w, k, stride, pad);
          if (oh <= 0 || ow <= 0) continue;
          const std::int64_t pix = oh * ow, rows = channels * k * k;
          // The images' column blocks side by side plus 5 spare columns:
          // ldcol is larger than one image's pixel count.
          const std::int64_t ldcol = images * pix + 5;
          Tensor col({rows, ldcol});
          for (std::int64_t i = 0; i < col.numel(); ++i) {
            const float u = rng.uniform();
            col[static_cast<std::size_t>(i)] =
                u < 0.6f ? specials[rng.uniform_int(8)] : rng.normal();
          }
          SCOPED_TRACE(testing::Message()
                       << "map=" << h << "x" << w << " k=" << k
                       << " stride=" << stride << " pad=" << pad);
          const std::int64_t vol = channels * h * w;
          Tensor want({images, channels, h, w}), one({images, channels, h, w}),
              all({images, channels, h, w});
          for (std::int64_t i = 0; i < images; ++i) {
            col2im_reference(col.data() + i * pix, ldcol, channels, h, w, k, k,
                             stride, pad, want.data() + i * vol);
            col2im(col.data() + i * pix, ldcol, channels, h, w, k, k, stride,
                   pad, one.data() + i * vol);
          }
          col2im(col.data(), ldcol, channels, h, w, k, k, stride, pad,
                 all.data(), images);
          expect_bits_equal(one.data(), want.data(), want.numel(),
                            "col2im per image");
          expect_bits_equal(all.data(), want.data(), want.numel(),
                            "col2im batched");
        }
      }
    }
  }
}

// gemm_column_groups must give one gemm call's bits on every pool: the
// groups fan out, but the naive-or-blocked choice is made for the whole call.
// {m, n = groups·group, k, group}: Trans::T is conv dx's dcol = Wᵀ · G.
TEST(GemmColumnGroups, BitIdenticalToGemmAcrossPools) {
  struct Shape {
    std::int64_t m, groups, group, k;
  };
  const Shape shapes[] = {
      {72, 7, 4, 4},    // naive as a whole (8064 MACs)
      {72, 8, 4, 4},    // blocked as a whole, naive per 2-group chunk
      {144, 4, 4, 16},  // module conv 16->16 at 2x2
      {72, 16, 64, 8},  // 8x8 maps, batch 16
      {27, 5, 33, 7},   // group no multiple of any NR
  };
  Rng rng(5150);
  for (const auto& s : shapes) {
    const std::int64_t n = s.groups * s.group;
    for (const Trans ta : {Trans::N, Trans::T}) {
      SCOPED_TRACE(testing::Message()
                   << "m=" << s.m << " n=" << n << " k=" << s.k
                   << " group=" << s.group
                   << " ta=" << (ta == Trans::T ? "T" : "N"));
      Tensor a(ta == Trans::N ? std::vector<std::int64_t>{s.m, s.k}
                              : std::vector<std::int64_t>{s.k, s.m});
      Tensor b({s.k, n}), c0({s.m, n});
      fill_random(a, rng);
      fill_random(b, rng);
      fill_random(c0, rng);
      const std::int64_t lda = a.dim(1);
      for (const bool accumulate : {false, true}) {
        Tensor want = c0;
        {
          ScopedPool scope(1);
          gemm(ta, Trans::N, s.m, n, s.k, a.data(), lda, b.data(), n,
               want.data(), n, accumulate);
        }
        for (std::size_t workers : {1u, 2u, 4u, 7u}) {
          ScopedPool scope(workers);
          Tensor got = c0;
          gemm_column_groups(ta, s.m, n, s.k, a.data(), lda, b.data(), n,
                             got.data(), n, accumulate, s.group);
          expect_bits_equal(got.data(), want.data(), got.numel(),
                            accumulate ? "accumulate" : "overwrite");
        }
      }
    }
  }
  Tensor a({4, 4}), b({4, 6}), c({4, 6});
  EXPECT_THROW(gemm_column_groups(Trans::N, 4, 6, 4, a.data(), 4, b.data(), 6,
                                  c.data(), 6, false, 4),
               std::runtime_error);
}

// ---- Naive path vs its original loops ---------------------------------------

// gemm_naive as it was written before its loops were made branch-free, kept
// verbatim as the bitwise reference.
void reference_naive(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                     std::int64_t k, const float* a, std::int64_t lda,
                     const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc, bool accumulate) {
  if (!accumulate) {
    for (std::int64_t i = 0; i < m; ++i) {
      std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    }
  }
  if (ta == Trans::N && tb == Trans::N) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * lda;
      float* ci = c + i * ldc;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ai[p];
        if (av == 0.0f) continue;
        const float* bp = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
  } else if (ta == Trans::N && tb == Trans::T) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * lda;
      float* ci = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* bj = b + j * ldb;
        float s = 0.0f;
        for (std::int64_t p = 0; p < k; ++p) s += ai[p] * bj[p];
        ci[j] += s;
      }
    }
  } else if (ta == Trans::T && tb == Trans::N) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float* ap = a + p * lda;
      const float* bp = b + p * ldb;
      for (std::int64_t i = 0; i < m; ++i) {
        const float av = ap[i];
        if (av == 0.0f) continue;
        float* ci = c + i * ldc;
        for (std::int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
  } else {  // T, T
    for (std::int64_t i = 0; i < m; ++i) {
      float* ci = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* bj = b + j * ldb;
        float s = 0.0f;
        for (std::int64_t p = 0; p < k; ++p) s += a[p * lda + i] * bj[p];
        ci[j] += s;
      }
    }
  }
}

enum class Zeros { kHalf, kAll, kNone };

// Operands of one naive product, stored with leading dimensions larger than
// their rows so that padding is present (and must stay untouched in C).
struct NaiveCase {
  Trans ta, tb;
  std::int64_t m, n, k, lda, ldb, ldc;
  std::vector<float> a, b, c0;

  float& op_a(std::int64_t i, std::int64_t p) {
    return ta == Trans::N ? a[i * lda + p] : a[p * lda + i];
  }
  float& op_b(std::int64_t p, std::int64_t j) {
    return tb == Trans::N ? b[p * ldb + j] : b[j * ldb + p];
  }
};

// `special`: op(A)'s first and last columns are zero while op(B)'s rows
// there hold +Inf and NaN (in different columns, so that no output element
// mixes two NaN sources), and an accumulating C starts at −0.
NaiveCase make_naive_case(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                          std::int64_t k, Zeros zeros, bool special,
                          Rng& rng) {
  NaiveCase nc{ta, tb, m, n, k, 0, 0, n + 5, {}, {}, {}};
  nc.lda = (ta == Trans::N ? k : m) + 3;
  nc.ldb = (tb == Trans::N ? n : k) + 2;
  nc.a.resize(static_cast<std::size_t>((ta == Trans::N ? m : k) * nc.lda));
  nc.b.resize(static_cast<std::size_t>((tb == Trans::N ? k : n) * nc.ldb));
  nc.c0.resize(static_cast<std::size_t>(m * nc.ldc));
  for (float& v : nc.a) {
    v = rng.normal();
    const bool zero =
        zeros == Zeros::kAll || (zeros == Zeros::kHalf && rng.uniform() < 0.5);
    if (zero) {
      v = rng.uniform() < 0.5 ? 0.0f : -0.0f;
    } else if (v == 0.0f) {
      v = 1.0f;
    }
  }
  for (float& v : nc.b) v = rng.normal();
  for (float& v : nc.c0) v = special ? -0.0f : rng.normal();
  if (special && n >= 2) {
    for (std::int64_t i = 0; i < m; ++i) {
      nc.op_a(i, 0) = 0.0f;
      nc.op_a(i, k - 1) = -0.0f;
    }
    nc.op_b(0, 0) = std::numeric_limits<float>::infinity();
    nc.op_b(k - 1, n - 1) = std::numeric_limits<float>::quiet_NaN();
  }
  return nc;
}

// Sub-threshold shapes: the three 48->6 head products of the HAR model, odd
// and degenerate sizes, and products exactly at the 8192-MAC threshold.
struct NaiveShape {
  std::int64_t m, n, k;
};
const NaiveShape kNaiveShapes[] = {
    {16, 6, 48}, {48, 6, 16}, {16, 48, 6}, {1, 1, 1},   {3, 5, 7},
    {7, 1, 9},   {5, 13, 3},  {1, 64, 128}, {2, 2, 2048}, {9, 17, 31},
    {1, 512, 16}, {128, 8, 8},
};

TEST(NaiveGemm, BitIdenticalToOriginalLoops) {
  Rng rng(777);
  for (const auto& s : kNaiveShapes) {
    ASSERT_LE(s.m * s.n * s.k, 8192) << "shape must take the naive path";
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Trans tb : {Trans::N, Trans::T}) {
        for (const Zeros zeros : {Zeros::kHalf, Zeros::kAll, Zeros::kNone}) {
          for (const bool special : {false, true}) {
            NaiveCase nc =
                make_naive_case(ta, tb, s.m, s.n, s.k, zeros, special, rng);
            for (const bool accumulate : {false, true}) {
              SCOPED_TRACE(testing::Message()
                           << "m=" << s.m << " n=" << s.n << " k=" << s.k
                           << " ta=" << (ta == Trans::T ? "T" : "N")
                           << " tb=" << (tb == Trans::T ? "T" : "N")
                           << " zeros=" << static_cast<int>(zeros)
                           << " special=" << special
                           << " accumulate=" << accumulate);
              std::vector<float> want = nc.c0, got = nc.c0;
              reference_naive(ta, tb, s.m, s.n, s.k, nc.a.data(), nc.lda,
                              nc.b.data(), nc.ldb, want.data(), nc.ldc,
                              accumulate);
              gemm(ta, tb, s.m, s.n, s.k, nc.a.data(), nc.lda, nc.b.data(),
                   nc.ldb, got.data(), nc.ldc, accumulate);
              expect_bits_equal(got.data(), want.data(),
                                static_cast<std::int64_t>(got.size()), "gemm");
            }
          }
        }
      }
    }
  }
}

TEST(NaiveGemm, ColumnGroupsBitIdenticalToOriginalLoops) {
  struct GroupShape {
    std::int64_t m, n, k, group;
  };
  const GroupShape shapes[] = {
      {16, 6, 48, 3}, {48, 6, 16, 2}, {16, 48, 6, 8}, {9, 35, 25, 7},
  };
  Rng rng(779);
  for (const auto& s : shapes) {
    ASSERT_LE(s.m * s.n * s.k, 8192) << "shape must take the naive path";
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const bool special : {false, true}) {
        NaiveCase nc = make_naive_case(ta, Trans::N, s.m, s.n, s.k,
                                       Zeros::kHalf, special, rng);
        for (const bool accumulate : {false, true}) {
          std::vector<float> want = nc.c0;
          reference_naive(ta, Trans::N, s.m, s.n, s.k, nc.a.data(), nc.lda,
                          nc.b.data(), nc.ldb, want.data(), nc.ldc,
                          accumulate);
          for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            ScopedPool scope(threads);
            SCOPED_TRACE(testing::Message()
                         << "m=" << s.m << " n=" << s.n << " k=" << s.k
                         << " ta=" << (ta == Trans::T ? "T" : "N")
                         << " special=" << special << " accumulate="
                         << accumulate << " threads=" << threads);
            std::vector<float> got = nc.c0;
            gemm_column_groups(ta, s.m, s.n, s.k, nc.a.data(), nc.lda,
                               nc.b.data(), nc.ldb, got.data(), nc.ldc,
                               accumulate, s.group);
            expect_bits_equal(got.data(), want.data(),
                              static_cast<std::int64_t>(got.size()),
                              "gemm_column_groups");
          }
        }
      }
    }
  }
}

// -----------------------------------------------------------------------------

std::int64_t selector_forwards() {
  return obs::counter("selector.forwards").value();
}

// The two workload families' models: the HAR MLP with 32 modules per layer
// (every selector GEMM of a 16-row batch runs blocked) and the CIFAR
// ResNet18 with 16 (its 16x16x32 head GEMM runs naive at batch 16).
ZooModel gate_memo_model(bool cifar) {
  ZooOptions opts;
  opts.init_seed = 2024;
  if (cifar) return make_modular(TaskModel::kResNet18, {3, 8, 8}, 10, opts);
  opts.modules_per_layer = 32;
  return make_modular(TaskModel::kMlpHar, {32}, 6, opts);
}

Dataset random_dataset(const std::vector<std::int64_t>& sample_shape,
                       std::int64_t classes, std::int64_t n, Rng& rng) {
  Dataset d;
  d.num_classes = classes;
  d.sample_shape = sample_shape;
  d.features = Tensor({n, Tensor::numel_from(sample_shape)});
  fill_random(d.features, rng);
  for (std::int64_t i = 0; i < n; ++i) {
    d.labels.push_back(static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(classes))));
  }
  return d;
}

// train_modular with a frozen selector as it ran before the gate memo: one
// selector forward per mini-batch.
void reference_frozen_train(ModularModel& model, ModuleSelector& selector,
                            const Dataset& data, const TrainConfig& cfg) {
  Rng rng(cfg.seed);
  Rng route_rng = rng.fork();
  std::vector<Param*> params = model.params();
  Sgd opt(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  for (std::int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    BatchSampler sampler(data.size(), cfg.batch_size, rng);
    for (auto batch = sampler.next(); !batch.empty(); batch = sampler.next()) {
      Tensor x = data.batch_view(batch);
      Tensor x_flat = x;
      x_flat.reshape({x.dim(0), x.numel() / x.dim(0)});
      GateResult gates = selector.forward(x_flat, /*train=*/false);
      RoutingOpts opts;
      opts.top_k = cfg.top_k;
      opts.noise_std = 0.0f;
      opts.rng = &route_rng;
      Tensor logits = model.forward(x, gates, opts, /*train=*/true);
      LossResult ce = softmax_cross_entropy(logits, data.batch_labels(batch));
      model.zero_grad();
      model.backward(ce.grad);
      clip_grad_norm(params, cfg.grad_clip);
      opt.step();
    }
  }
}

void expect_params_bitwise(const std::vector<Param*>& got,
                           const std::vector<Param*>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i]->value.numel(), want[i]->value.numel());
    expect_bits_equal(got[i]->value.data(), want[i]->value.data(),
                      got[i]->value.numel(), what);
  }
}

TEST(GateMemo, FrozenTrainingBitIdenticalToPerBatchSelector) {
  for (const bool cifar : {false, true}) {
    ZooModel zm = gate_memo_model(cifar);
    const std::vector<std::int64_t> shape = zm.model->sample_shape();
    const std::vector<float> selector_before = zm.selector->state();
    TrainConfig cfg;
    cfg.epochs = cifar ? 1 : 2;  // the ResNet is the slow one
    cfg.batch_size = 16;
    cfg.train_selector = false;
    // N = 16q and 16q + r: a last batch of 1-8 rows runs the HAR selector
    // GEMMs naive (live forward), one of 9-15 rows runs them blocked.
    for (std::int64_t r = 0; r < 16; ++r) {
      const std::int64_t n = 32 + r;
      SCOPED_TRACE(testing::Message() << (cifar ? "cifar" : "har")
                                      << " N=" << n);
      Rng rng(static_cast<std::uint64_t>(700 + n));
      const Dataset data = random_dataset(shape, cifar ? 10 : 6, n, rng);
      cfg.seed = static_cast<std::uint64_t>(n);
      auto want = zm.model->clone();
      reference_frozen_train(*want, *zm.selector, data, cfg);
      auto got = zm.model->clone();
      const std::int64_t before = selector_forwards();
      train_modular(*got, *zm.selector, data, cfg);
      const std::int64_t live = selector_forwards() - before;
      expect_params_bitwise(got->params(), want->params(), "trained params");
      EXPECT_EQ(zm.selector->state(), selector_before);
      if (cifar) {
        EXPECT_EQ(live, cfg.epochs * ((n + 15) / 16));  // every batch live
      } else {
        // One whole-set forward, plus the short last batch of each epoch
        // when it runs naive.
        EXPECT_EQ(live, 1 + (r >= 1 && r <= 8 ? cfg.epochs : 0));
      }
    }
  }
}

TEST(GateMemo, ImportanceIsMeanOfFreshForward) {
  for (const bool cifar : {false, true}) {
    SCOPED_TRACE(cifar ? "cifar" : "har");
    ZooModel zm = gate_memo_model(cifar);
    Rng rng(31);
    Tensor x({45, zm.selector->input_dim()});
    fill_random(x, rng);
    const GateResult fresh = zm.selector->forward(x, /*train=*/false);
    for (int call = 0; call < 2; ++call) {  // a miss, then a memo hit
      const auto imp = zm.selector->importance(x);
      ASSERT_EQ(imp.size(), fresh.probs.size());
      for (std::size_t l = 0; l < imp.size(); ++l) {
        const Tensor& p = fresh.probs[l];
        const std::int64_t b = p.dim(0), n = p.dim(1);
        std::vector<double> want(static_cast<std::size_t>(n), 0.0);
        for (std::int64_t row = 0; row < b; ++row) {
          for (std::int64_t i = 0; i < n; ++i) {
            want[static_cast<std::size_t>(i)] += p.data()[row * n + i];
          }
        }
        for (double& v : want) v /= static_cast<double>(b);
        ASSERT_EQ(imp[l].size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(std::memcmp(&imp[l][i], &want[i], sizeof(double)), 0)
              << "layer " << l << " module " << i;
        }
      }
    }
  }
}

// The memo must serve exactly forward(x, false).probs, recomputing whenever
// any part of its key changes.
void expect_table_is_forward(ModuleSelector& sel, const Tensor& x,
                             const std::vector<Tensor>& table) {
  const GateResult fresh = sel.forward(x, /*train=*/false);
  ASSERT_EQ(table.size(), fresh.probs.size());
  for (std::size_t l = 0; l < table.size(); ++l) {
    ASSERT_EQ(table[l].numel(), fresh.probs[l].numel());
    expect_bits_equal(table[l].data(), fresh.probs[l].data(),
                      table[l].numel(), "gate table");
  }
}

// Calls gate_table and reports whether it recomputed (one selector forward)
// or returned the stored table (none).
bool table_recomputed(ModuleSelector& sel, const Tensor& x,
                      std::shared_ptr<const std::vector<Tensor>>* out) {
  const std::int64_t before = selector_forwards();
  *out = sel.gate_table(x);
  return selector_forwards() - before == 1;
}

TEST(GateMemo, EveryKeyChangeRecomputes) {
  ZooModel zm = gate_memo_model(/*cifar=*/false);
  ModuleSelector& sel = *zm.selector;
  Rng rng(5);
  Tensor x({40, sel.input_dim()});
  fill_random(x, rng);
  std::shared_ptr<const std::vector<Tensor>> t0, t;
  table_recomputed(sel, x, &t0);
  expect_table_is_forward(sel, x, *t0);
  EXPECT_FALSE(table_recomputed(sel, x, &t)) << "same key must hit";
  EXPECT_EQ(t, t0);

  {
    SCOPED_TRACE("one input float");
    Tensor x2 = x;
    x2.data()[17 * x2.dim(1) + 3] += 0.5f;
    EXPECT_TRUE(table_recomputed(sel, x2, &t));
    expect_table_is_forward(sel, x2, *t);
    EXPECT_TRUE(table_recomputed(sel, x, &t));  // and back
    expect_table_is_forward(sel, x, *t);
  }
  {
    SCOPED_TRACE("one parameter through params()");
    Param* p = sel.params().back();
    p->value.data()[0] += 0.25f;
    EXPECT_TRUE(table_recomputed(sel, x, &t));
    expect_table_is_forward(sel, x, *t);
  }
  {
    SCOPED_TRACE("set_state");
    std::vector<float> state = sel.state();
    state[state.size() / 2] -= 0.125f;
    sel.set_state(state);
    EXPECT_TRUE(table_recomputed(sel, x, &t));
    expect_table_is_forward(sel, x, *t);
  }
  {
    SCOPED_TRACE("GEMM kernel");
    const bool was_portable =
        std::string(gemm_kernel_name()) == "portable-6x8";
    {
      ScopedKernel pin("portable-6x8");
      ASSERT_TRUE(pin.ok());
      // Under forced-portable dispatch the kernel, and so the key, is
      // unchanged: the stored table is the right answer.
      EXPECT_EQ(table_recomputed(sel, x, &t), !was_portable);
      expect_table_is_forward(sel, x, *t);
    }
    EXPECT_EQ(table_recomputed(sel, x, &t), !was_portable);
    expect_table_is_forward(sel, x, *t);
  }
}

// -----------------------------------------------------------------------------
// Training steps skip what the update does not read: the first layer's input
// gradient (Layer::backward_params) and, under a frozen selector, the gate
// gradients. Parameter gradients and trained parameters must not move a bit.

bool any_nonzero_grad(const std::vector<Param*>& params) {
  for (const Param* p : params) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      if (p->grad[static_cast<std::size_t>(i)] != 0.0f) return true;
    }
  }
  return false;
}

void expect_grads_bitwise(const std::vector<Param*>& got,
                          const std::vector<Param*>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i]->grad.numel(), want[i]->grad.numel()) << what;
    expect_bits_equal(got[i]->grad.data(), want[i]->grad.data(),
                      got[i]->grad.numel(), what);
  }
  EXPECT_TRUE(any_nonzero_grad(want)) << what << ": all gradients zero";
}

// One training forward on two copies of `layer`, then backward on one and
// backward_params on the other.
void expect_param_only_matches(const Layer& layer, const Tensor& x, Rng& rng,
                               const char* what) {
  LayerPtr full = layer.clone(), param_only = layer.clone();
  const Tensor y = full->forward(x, /*train=*/true);
  param_only->forward(x, /*train=*/true);
  Tensor gy(y.shape());
  fill_random(gy, rng);
  full->zero_grad();
  param_only->zero_grad();
  full->backward(gy);
  param_only->backward_params(gy);
  expect_grads_bitwise(param_only->params(), full->params(), what);
}

struct ZooFamily {
  TaskModel which;
  std::vector<std::int64_t> shape;
  std::int64_t classes;
  const char* name;
};

const ZooFamily kZooFamilies[] = {
    {TaskModel::kMlpHar, {32}, 6, "mlp_har"},
    {TaskModel::kResNet18, {3, 8, 8}, 10, "resnet18"},
    {TaskModel::kVgg16, {3, 8, 8}, 100, "vgg16"},
    {TaskModel::kResNet34, {1, 16, 8}, 35, "resnet34"},
};

TEST(ParamOnlyBackward, BitIdenticalToBackward) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ScopedPool pool(threads);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Rng rng(8080);
    init::reseed(77);
    for (const bool bias : {true, false}) {
      SCOPED_TRACE(testing::Message() << "bias=" << bias);
      Tensor x({16, 32});
      fill_random(x, rng);
      expect_param_only_matches(Linear(32, 48, bias), x, rng, "Linear");
      // The ResNet stem (3->8 at 8x8) and the speech stem (1->8 at 16x8).
      Tensor img({16, 3, 8, 8});
      fill_random(img, rng);
      expect_param_only_matches(Conv2d(3, 8, 3, 1, 1, bias), img, rng,
                                "Conv2d resnet stem");
      Tensor spec({16, 1, 16, 8});
      fill_random(spec, rng);
      expect_param_only_matches(Conv2d(1, 8, 3, 1, 1, bias), spec, rng,
                                "Conv2d speech stem");
    }
    for (const ZooFamily& f : kZooFamilies) {
      SCOPED_TRACE(f.name);
      ZooOptions opts;
      opts.init_seed = 99;
      ZooModel zm = make_modular(f.which, f.shape, f.classes, opts);
      Tensor x({16, Tensor::numel_from(f.shape)});
      fill_random(x, rng);
      const GateResult gates = zm.selector->forward(x, /*train=*/false);
      RoutingOpts ropts;
      ropts.top_k = 2;
      auto full = zm.model->clone(), param_only = zm.model->clone();
      const Tensor logits = full->forward(x, gates, ropts, /*train=*/true);
      param_only->forward(x, gates, ropts, /*train=*/true);
      Tensor gy(logits.shape());
      fill_random(gy, rng);
      full->zero_grad();
      param_only->zero_grad();
      full->backward(gy);
      param_only->backward_params(gy);
      expect_grads_bitwise(param_only->params(), full->params(), "modular");
      ASSERT_EQ(param_only->gate_grads().size(), full->gate_grads().size());
      for (std::size_t l = 0; l < full->gate_grads().size(); ++l) {
        const Tensor& want = full->gate_grads()[l];
        ASSERT_FALSE(want.empty());
        ASSERT_EQ(param_only->gate_grads()[l].numel(), want.numel());
        expect_bits_equal(param_only->gate_grads()[l].data(), want.data(),
                          want.numel(), "gate grads");
      }

      std::vector<std::int64_t> shaped{16};
      shaped.insert(shaped.end(), f.shape.begin(), f.shape.end());
      Tensor xp(shaped);
      fill_random(xp, rng);
      for (const double width : {1.0, 0.5}) {
        SCOPED_TRACE(testing::Message() << "plain width=" << width);
        const LayerPtr plain = make_plain(f.which, f.shape, f.classes, width);
        expect_param_only_matches(*plain, xp, rng, "plain");
      }
    }
  }
}

// A frozen-selector train_modular (parameter-only first layer, no gate
// gradients) against a loop that runs the full backward with gate gradients
// on; a live-selector run still fills the gate gradients.
TEST(TrainStep, FrozenSelectorBitIdenticalToFullBackward) {
  for (const ZooFamily& f : kZooFamilies) {
    SCOPED_TRACE(f.name);
    ZooOptions opts;
    opts.init_seed = 4242;
    ZooModel zm = make_modular(f.which, f.shape, f.classes, opts);
    Rng rng(31);
    const Dataset data = random_dataset(f.shape, f.classes, 40, rng);
    TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch_size = 16;
    cfg.train_selector = false;
    cfg.seed = 17;
    auto want = zm.model->clone();
    reference_frozen_train(*want, *zm.selector, data, cfg);
    auto got = zm.model->clone();
    train_modular(*got, *zm.selector, data, cfg);
    expect_params_bitwise(got->params(), want->params(), "trained params");
    ASSERT_EQ(want->gate_grads().size(), zm.model->num_module_layers());
    for (std::size_t l = 0; l < want->gate_grads().size(); ++l) {
      EXPECT_FALSE(want->gate_grads()[l].empty());  // the reference's are on
      EXPECT_TRUE(got->gate_grads()[l].empty());
    }

    ZooModel live = make_modular(f.which, f.shape, f.classes, opts);
    cfg.train_selector = true;
    train_modular(*live.model, *live.selector, data, cfg);
    const auto& grads = live.model->gate_grads();
    ASSERT_EQ(grads.size(), live.model->num_module_layers());
    for (std::size_t l = 0; l < grads.size(); ++l) {
      ASSERT_EQ(grads[l].rank(), 2);
      EXPECT_EQ(grads[l].dim(1), live.model->full_widths()[l]);
      bool nonzero = false;
      for (std::int64_t i = 0; i < grads[l].numel(); ++i) {
        nonzero = nonzero || grads[l][static_cast<std::size_t>(i)] != 0.0f;
      }
      EXPECT_TRUE(nonzero) << "layer " << l;
    }
  }
}

}  // namespace
}  // namespace nebula
