#include "nn/conv.h"

#include <algorithm>
#include <limits>

#include "nn/init.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace nebula {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      w_({out_channels, in_channels * kernel * kernel}, "conv.w"),
      b_({out_channels}, "conv.b") {
  NEBULA_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
  init::he_normal(w_.value, in_channels * kernel * kernel, init::default_rng());
}

namespace {

// Scratch slots for the folded-batch temporaries. Slots below
// kScratchConvGrad belong to the GEMM packing engine; a conv call holds the
// permuted (out_c, n·P) pixel matrix and, in backward, the dcol matrix live
// across nested GEMMs, so each takes its own leased slot.
constexpr std::size_t kScratchConvPixels = ThreadPool::kScratchConvGrad;
constexpr std::size_t kScratchConvCol = ThreadPool::kScratchConvGrad + 1;

// Images per chunk of a per-image copy or scatter loop moving
// `floats_per_image` floats each. A parallel region wakes every worker,
// which costs more than moving a few thousand floats, so a small batch runs
// inline.
std::size_t image_grain(std::int64_t floats_per_image) {
  constexpr std::int64_t kMinChunkFloats = std::int64_t{1} << 14;
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, kMinChunkFloats / floats_per_image));
}

}  // namespace

// The batch is folded into the GEMM's pixel dimension: the n images' output
// pixels sit side by side as the n·P columns of one (out_c, n·P) matrix, so
// each product is one GEMM per call instead of one per sample — the routed
// sub-batches of a module layer are a few images on 4x4 or 2x2 maps, far too
// small per sample to leave the naive path. Only the (out_c, n·P) <-> NCHW
// permutes are extra traffic.
Tensor Conv2d::forward(const Tensor& x, bool train) {
  NEBULA_CHECK_MSG(x.rank() == 4 && x.dim(1) == in_c_,
                   "Conv2d expects (N, " << in_c_ << ", H, W), got "
                                         << x.shape_str());
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = conv_out_size(h, k_, stride_, pad_);
  const std::int64_t ow = conv_out_size(w, k_, stride_, pad_);
  NEBULA_CHECK_MSG(oh > 0 && ow > 0, "Conv2d output collapsed to zero");
  NEBULA_SPAN("conv.fwd");
  static obs::Counter& m_fwd = obs::counter("conv.fwd_calls");
  m_fwd.add(1);
  if (train) {
    cached_input_ = x;
    in_shape_ = x.shape();
  }
  Tensor y({n, out_c_, oh, ow});
  if (n == 0) return y;
  const std::int64_t pix = oh * ow;
  const std::int64_t cols = n * pix;
  const Im2colMap map{in_c_, h, w, k_, k_, stride_, pad_, n};
  ThreadPool& pool = ThreadPool::global();
  // Y(out_c, n·P) = W · col; the column matrix is never materialised — the
  // fused GEMM reads the images through the im2col index map.
  ThreadPool::ScratchLease ymat(pool, kScratchConvPixels,
                                static_cast<std::size_t>(out_c_ * cols));
  gemm_im2col(Trans::N, out_c_, w_.value.data(), map.rows(), x.data(), map,
              ymat.data(), cols, /*accumulate=*/false);
  // Permute (out_c, n, P) -> (n, out_c, P), adding the bias on the way.
  const float* ym = ymat.data();
  const float* bd = has_bias_ ? b_.value.data() : nullptr;
  float* yd = y.data();
  pool.parallel_for_chunked(
      0, static_cast<std::size_t>(n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const std::int64_t i = static_cast<std::int64_t>(s);
          for (std::int64_t c = 0; c < out_c_; ++c) {
            const float* src = ym + c * cols + i * pix;
            float* dst = yd + (i * out_c_ + c) * pix;
            const float bc = bd ? bd[c] : 0.0f;
            for (std::int64_t p = 0; p < pix; ++p) dst[p] = src[p] + bc;
          }
        }
      },
      image_grain(out_c_ * pix));
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  return backward_impl(grad_out, /*want_dx=*/true);
}

void Conv2d::backward_params(const Tensor& grad_out) {
  backward_impl(grad_out, /*want_dx=*/false);
}

Tensor Conv2d::backward_impl(const Tensor& grad_out, bool want_dx) {
  NEBULA_CHECK_MSG(!cached_input_.empty(),
                   "Conv2d::backward without forward(train=true)");
  NEBULA_SPAN("conv.bwd");
  static obs::Counter& m_bwd = obs::counter("conv.bwd_calls");
  m_bwd.add(1);
  const std::int64_t n = in_shape_[0], h = in_shape_[2], w = in_shape_[3];
  const std::int64_t oh = conv_out_size(h, k_, stride_, pad_);
  const std::int64_t ow = conv_out_size(w, k_, stride_, pad_);
  NEBULA_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
               grad_out.dim(1) == out_c_ && grad_out.dim(2) == oh &&
               grad_out.dim(3) == ow);
  Tensor dx;
  if (want_dx) dx = Tensor(in_shape_);
  if (n == 0) return dx;
  const std::int64_t pix = oh * ow;
  const std::int64_t cols = n * pix;
  const Im2colMap map{in_c_, h, w, k_, k_, stride_, pad_, n};
  const std::int64_t rows = map.rows(), in_vol = map.volume();
  ThreadPool& pool = ThreadPool::global();
  // G(out_c, n·P): grad_out permuted from (n, out_c, P).
  ThreadPool::ScratchLease gmat(pool, kScratchConvPixels,
                                static_cast<std::size_t>(out_c_ * cols));
  float* g = gmat.data();
  const float* gyd = grad_out.data();
  pool.parallel_for_chunked(
      0, static_cast<std::size_t>(n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const std::int64_t i = static_cast<std::int64_t>(s);
          for (std::int64_t c = 0; c < out_c_; ++c) {
            std::copy_n(gyd + (i * out_c_ + c) * pix, pix,
                        g + c * cols + i * pix);
          }
        }
      },
      image_grain(out_c_ * pix));
  // dW(out_c, rows) += G · colᵀ: one GEMM whose K spans the whole batch, so
  // the summation order is fixed by the call alone (DESIGN.md §11).
  gemm_im2col(Trans::T, out_c_, g, cols, cached_input_.data(), map,
              w_.grad.data(), rows, /*accumulate=*/true);
  if (has_bias_) {
    float* gb = b_.grad.data();
    for (std::int64_t c = 0; c < out_c_; ++c) {
      const float* gc = g + c * cols;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < cols; ++p) acc += gc[p];
      gb[c] += acc;
    }
  }
  // The cached input serves exactly one backward. Releasing it keeps the
  // fleet's resident sub-models from holding a copy of every conv input
  // between rounds.
  cached_input_ = Tensor();
  if (!want_dx) return dx;
  // dcol(rows, n·P) = Wᵀ · G, images fanned out across the pool, then
  // scattered back by one col2im call per chunk of images, which resolves
  // the geometry once for the whole chunk.
  ThreadPool::ScratchLease dcol(pool, kScratchConvCol,
                                static_cast<std::size_t>(rows * cols));
  gemm_column_groups(Trans::T, rows, cols, out_c_, w_.value.data(), rows, g,
                     cols, dcol.data(), cols, /*accumulate=*/false, pix);
  const float* dc = dcol.data();
  float* dxd = dx.data();
  pool.parallel_for_chunked(
      0, static_cast<std::size_t>(n), [&](std::size_t lo, std::size_t hi) {
        const std::int64_t i = static_cast<std::int64_t>(lo);
        col2im(dc + i * pix, cols, in_c_, h, w, k_, k_, stride_, pad_,
               dxd + i * in_vol, static_cast<std::int64_t>(hi - lo));
      },
      image_grain(rows * pix));
  return dx;
}

std::vector<Param*> Conv2d::params() {
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

std::vector<std::int64_t> Conv2d::out_shape(
    std::vector<std::int64_t> in_shape) const {
  NEBULA_CHECK(in_shape.size() == 4 && in_shape[1] == in_c_);
  return {in_shape[0], out_c_, conv_out_size(in_shape[2], k_, stride_, pad_),
          conv_out_size(in_shape[3], k_, stride_, pad_)};
}

std::int64_t Conv2d::flops(const std::vector<std::int64_t>& in_shape) const {
  const auto os = out_shape(in_shape);
  const std::int64_t per_pixel = 2 * in_c_ * k_ * k_;
  return out_c_ * os[2] * os[3] * per_pixel;
}

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : k_(kernel), stride_(stride == 0 ? kernel : stride) {
  NEBULA_CHECK(kernel > 0);
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  NEBULA_CHECK(x.rank() == 4);
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = conv_out_size(h, k_, stride_, 0);
  const std::int64_t ow = conv_out_size(w, k_, stride_, 0);
  NEBULA_CHECK_MSG(oh > 0 && ow > 0, "MaxPool2d output collapsed to zero");
  if (train) {
    in_shape_ = x.shape();
    argmax_.assign(static_cast<std::size_t>(n * c * oh * ow), 0);
  }
  Tensor y({n, c, oh, ow});
  const float* xd = x.data();
  float* yd = y.data();
  // Parallel over (sample, channel) planes — output slices are disjoint and
  // each plane is pure max-scanning, so any partition is bit-identical.
  ThreadPool::global().parallel_for_chunked(
      0, static_cast<std::size_t>(n * c), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pl = lo; pl < hi; ++pl) {
          const float* plane = xd + static_cast<std::int64_t>(pl) * h * w;
          std::int64_t oi = static_cast<std::int64_t>(pl) * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
              float best = -std::numeric_limits<float>::infinity();
              std::int64_t best_idx = 0;
              for (std::int64_t ky = 0; ky < k_; ++ky) {
                const std::int64_t iy = oy * stride_ + ky;
                if (iy >= h) break;
                for (std::int64_t kx = 0; kx < k_; ++kx) {
                  const std::int64_t ix = ox * stride_ + kx;
                  if (ix >= w) break;
                  const float v = plane[iy * w + ix];
                  if (v > best) {
                    best = v;
                    best_idx = iy * w + ix;
                  }
                }
              }
              yd[oi] = best;
              if (train) {
                argmax_[static_cast<std::size_t>(oi)] =
                    static_cast<std::int32_t>(best_idx);
              }
            }
          }
        }
      });
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  NEBULA_CHECK_MSG(!in_shape_.empty(), "MaxPool2d::backward without forward");
  const std::int64_t n = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
                     w = in_shape_[3];
  const std::int64_t oh = conv_out_size(h, k_, stride_, 0);
  const std::int64_t ow = conv_out_size(w, k_, stride_, 0);
  NEBULA_CHECK_MSG(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                       grad_out.dim(1) == c && grad_out.dim(2) == oh &&
                       grad_out.dim(3) == ow,
                   "MaxPool2d::backward expects (" << n << ", " << c << ", "
                                                   << oh << ", " << ow
                                                   << "), got "
                                                   << grad_out.shape_str());
  Tensor dx(in_shape_);
  const std::int64_t out_hw = oh * ow;
  const float* gy = grad_out.data();
  float* dxd = dx.data();
  // Disjoint dx planes per (sample, channel): the scatter parallelises over
  // planes without any cross-thread accumulation.
  ThreadPool::global().parallel_for_chunked(
      0, static_cast<std::size_t>(n * c), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pl = lo; pl < hi; ++pl) {
          float* plane = dxd + static_cast<std::int64_t>(pl) * h * w;
          const std::int64_t oi0 = static_cast<std::int64_t>(pl) * out_hw;
          for (std::int64_t p = 0; p < out_hw; ++p) {
            plane[argmax_[static_cast<std::size_t>(oi0 + p)]] += gy[oi0 + p];
          }
        }
      });
  return dx;
}

std::vector<std::int64_t> MaxPool2d::out_shape(
    std::vector<std::int64_t> in_shape) const {
  NEBULA_CHECK(in_shape.size() == 4);
  return {in_shape[0], in_shape[1], conv_out_size(in_shape[2], k_, stride_, 0),
          conv_out_size(in_shape[3], k_, stride_, 0)};
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  NEBULA_CHECK(x.rank() == 4);
  const std::int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  if (train) in_shape_ = x.shape();
  Tensor y({n, c});
  const float* xd = x.data();
  float* yd = y.data();
  const float inv = 1.0f / static_cast<float>(hw);
  // Per-plane serial reduction: the partition never splits a plane, so the
  // float accumulation order (and hence the result) is partition-invariant.
  ThreadPool::global().parallel_for_chunked(
      0, static_cast<std::size_t>(n * c), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const float* plane = xd + static_cast<std::int64_t>(i) * hw;
          float acc = 0.0f;
          for (std::int64_t p = 0; p < hw; ++p) acc += plane[p];
          yd[i] = acc * inv;
        }
      });
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  NEBULA_CHECK_MSG(!in_shape_.empty(), "GlobalAvgPool::backward without forward");
  const std::int64_t n = in_shape_[0], c = in_shape_[1],
                     hw = in_shape_[2] * in_shape_[3];
  NEBULA_CHECK_MSG(grad_out.rank() == 2 && grad_out.dim(0) == n &&
                       grad_out.dim(1) == c,
                   "GlobalAvgPool::backward expects (" << n << ", " << c
                                                       << "), got "
                                                       << grad_out.shape_str());
  Tensor dx(in_shape_);
  const float inv = 1.0f / static_cast<float>(hw);
  const float* gy = grad_out.data();
  float* dxd = dx.data();
  ThreadPool::global().parallel_for_chunked(
      0, static_cast<std::size_t>(n * c), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const float g = gy[i] * inv;
          float* plane = dxd + static_cast<std::int64_t>(i) * hw;
          for (std::int64_t p = 0; p < hw; ++p) plane[p] = g;
        }
      });
  return dx;
}

std::vector<std::int64_t> GlobalAvgPool::out_shape(
    std::vector<std::int64_t> in_shape) const {
  NEBULA_CHECK(in_shape.size() == 4);
  return {in_shape[0], in_shape[1]};
}

}  // namespace nebula
