#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace nebula {

namespace {

void check_matmul_shapes(const Tensor& a, const Tensor& b, const Tensor& c,
                         std::int64_t m, std::int64_t k, std::int64_t n) {
  NEBULA_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
                   "matmul expects rank-2 tensors");
  NEBULA_CHECK_MSG(a.dim(0) == m && a.dim(1) == k, "A shape mismatch");
  // Require the exact (k, n) layout. A volume-only check would silently
  // accept a transposed B whenever k != n, producing garbage results.
  NEBULA_CHECK_MSG(b.dim(0) == k && b.dim(1) == n,
                   "B shape mismatch: expected [" << k << ", " << n
                                                  << "], got "
                                                  << b.shape_str());
  NEBULA_CHECK_MSG(c.dim(0) == m && c.dim(1) == n, "C shape mismatch");
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  NEBULA_CHECK_MSG(b.dim(0) == k, "matmul inner dimension mismatch: "
                                      << a.shape_str() << " x "
                                      << b.shape_str());
  check_matmul_shapes(a, b, c, m, k, n);
  gemm(Trans::N, Trans::N, m, n, k, a.data(), k, b.data(), n, c.data(), n,
       /*accumulate=*/false);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  matmul(a, b, c);
  return c;
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  // C(K,N) += A(M,K)^T * B(M,N)
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  NEBULA_CHECK_MSG(b.dim(0) == m, "matmul_tn_acc M mismatch");
  NEBULA_CHECK_MSG(c.dim(0) == k && c.dim(1) == n, "matmul_tn_acc C mismatch");
  gemm(Trans::T, Trans::N, k, n, m, a.data(), k, b.data(), n, c.data(), n,
       /*accumulate=*/true);
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  // C(K,N) = A(M,K)^T * B(M,N)
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  NEBULA_CHECK_MSG(b.dim(0) == m, "matmul_tn M mismatch");
  NEBULA_CHECK_MSG(c.dim(0) == k && c.dim(1) == n, "matmul_tn C mismatch");
  gemm(Trans::T, Trans::N, k, n, m, a.data(), k, b.data(), n, c.data(), n,
       /*accumulate=*/false);
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  // C(M,N) = A(M,K) * B(N,K)^T
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  NEBULA_CHECK_MSG(b.dim(1) == k, "matmul_nt K mismatch");
  NEBULA_CHECK_MSG(c.dim(0) == m && c.dim(1) == n, "matmul_nt C mismatch");
  gemm(Trans::N, Trans::T, m, n, k, a.data(), k, b.data(), k, c.data(), n,
       /*accumulate=*/false);
}

void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  // C(M,N) += A(M,K) * B(N,K)^T
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  NEBULA_CHECK_MSG(b.dim(1) == k, "matmul_nt_acc K mismatch");
  NEBULA_CHECK_MSG(c.dim(0) == m && c.dim(1) == n, "matmul_nt_acc C mismatch");
  gemm(Trans::N, Trans::T, m, n, k, a.data(), k, b.data(), k, c.data(), n,
       /*accumulate=*/true);
}

void add_inplace(Tensor& a, const Tensor& b) {
  NEBULA_CHECK_MSG(a.numel() == b.numel(), "add_inplace size mismatch");
  float* ad = a.data();
  const float* bd = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) ad[i] += bd[i];
}

void sub_inplace(Tensor& a, const Tensor& b) {
  NEBULA_CHECK_MSG(a.numel() == b.numel(), "sub_inplace size mismatch");
  float* ad = a.data();
  const float* bd = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) ad[i] -= bd[i];
}

void mul_inplace(Tensor& a, const Tensor& b) {
  NEBULA_CHECK_MSG(a.numel() == b.numel(), "mul_inplace size mismatch");
  float* ad = a.data();
  const float* bd = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) ad[i] *= bd[i];
}

void scale_inplace(Tensor& a, float s) {
  float* ad = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) ad[i] *= s;
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  NEBULA_CHECK_MSG(x.numel() == y.numel(), "axpy size mismatch");
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) yd[i] += alpha * xd[i];
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  add_inplace(c, b);
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  sub_inplace(c, b);
  return c;
}

float sum(const Tensor& a) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += a[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  NEBULA_CHECK(a.numel() > 0);
  return sum(a) / static_cast<float>(a.numel());
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(a[i]));
  }
  return m;
}

float l2_norm(const Tensor& a) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(std::sqrt(acc));
}

float dot(const Tensor& a, const Tensor& b) {
  NEBULA_CHECK_MSG(a.numel() == b.numel(), "dot size mismatch");
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

Tensor softmax_rows(const Tensor& logits) {
  NEBULA_CHECK(logits.rank() == 2);
  const std::int64_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out({rows, cols});
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* o = out.data() + r * cols;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t c = 0; c < cols; ++c) mx = std::max(mx, in[c]);
    float z = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      z += o[c];
    }
    const float inv = 1.0f / z;
    for (std::int64_t c = 0; c < cols; ++c) o[c] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  NEBULA_CHECK(logits.rank() == 2);
  const std::int64_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out({rows, cols});
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* o = out.data() + r * cols;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t c = 0; c < cols; ++c) mx = std::max(mx, in[c]);
    float z = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c) z += std::exp(in[c] - mx);
    const float logz = std::log(z) + mx;
    for (std::int64_t c = 0; c < cols; ++c) o[c] = in[c] - logz;
  }
  return out;
}

std::int64_t argmax_row(const Tensor& t, std::int64_t r) {
  NEBULA_CHECK(t.rank() == 2 && r >= 0 && r < t.dim(0));
  const std::int64_t cols = t.dim(1);
  const float* row = t.data() + r * cols;
  std::int64_t best = 0;
  for (std::int64_t c = 1; c < cols; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

void topk_indices(const float* v, std::int64_t n, std::int64_t k,
                  std::vector<std::int64_t>& idx) {
  NEBULA_CHECK_MSG(k >= 0 && k <= n, "topk k out of range");
  idx.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [v](std::int64_t a, std::int64_t b) {
                      if (v[a] != v[b]) return v[a] > v[b];
                      return a < b;  // deterministic tie-break
                    });
  idx.resize(static_cast<std::size_t>(k));
}

std::vector<std::int64_t> topk_indices(const float* v, std::int64_t n,
                                       std::int64_t k) {
  std::vector<std::int64_t> idx;
  topk_indices(v, n, k, idx);
  return idx;
}

void im2col(const float* img, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* col,
            std::int64_t ldcol) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  NEBULA_CHECK(ldcol >= out_h * out_w);
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* ic = img + c * height * width;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row) {
        float* crow = col + row * ldcol;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= height) {
            std::fill(crow + oy * out_w, crow + (oy + 1) * out_w, 0.0f);
            continue;
          }
          const float* irow = ic + iy * width;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            crow[oy * out_w + ox] =
                (ix >= 0 && ix < width) ? irow[ix] : 0.0f;
          }
        }
      }
    }
  }
}

namespace {

// Output positions o in [lo, hi) whose input coordinate o·stride − pad + k
// lies inside [0, extent); empty when lo >= hi.
struct OutRange {
  std::int64_t lo, hi;
};

OutRange valid_outputs(std::int64_t extent, std::int64_t out,
                       std::int64_t stride, std::int64_t pad, std::int64_t k) {
  const std::int64_t shift = pad - k;  // input = o·stride − shift
  const std::int64_t lo = shift <= 0 ? 0 : (shift + stride - 1) / stride;
  const std::int64_t top = extent - 1 + shift;
  const std::int64_t hi = top < 0 ? 0 : top / stride + 1;
  return {lo, std::min(hi, out)};
}

// A run of a col2im scatter: len consecutive input elements of a channel
// plane from dst on take len consecutive output pixels of one tap from src
// on.
struct ScatterRun {
  std::int64_t dst, src, len;
};

// Grow-only per-thread storage of col2im's tap table.
struct ScatterTable {
  std::vector<OutRange> x_ranges;   // per kx
  std::vector<std::int64_t> begin;  // per tap, plus the end
  std::vector<ScatterRun> runs;
};

}  // namespace

void col2im(const float* col, std::int64_t ldcol, std::int64_t channels,
            std::int64_t height, std::int64_t width, std::int64_t kh,
            std::int64_t kw, std::int64_t stride, std::int64_t pad,
            float* img, std::int64_t images) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  NEBULA_CHECK(out_h > 0 && out_w > 0);
  const std::int64_t pixels = out_h * out_w;
  NEBULA_CHECK(ldcol >= images * pixels);
  // Tap table of the geometry, built once per call from the in-image
  // output ranges of each tap: tap t = ky·kw + kx owns the runs
  // [begin[t], begin[t + 1]), one per output row of in-image pixels, two
  // merged where both sides continue each other (a stride-1 tap spanning
  // whole rows of a map whose out_w equals its width). The scatter below
  // therefore runs no bounds test, and each image element still takes its
  // adds in ascending im2col row order, the first onto 0.0f, exactly as a
  // loop testing every pixel would.
  thread_local ScatterTable table;
  const std::int64_t taps = kh * kw;
  table.x_ranges.resize(static_cast<std::size_t>(kw));
  table.begin.resize(static_cast<std::size_t>(taps + 1));
  table.runs.resize(static_cast<std::size_t>(taps * out_h));
  OutRange* x_ranges = table.x_ranges.data();
  std::int64_t* begin = table.begin.data();
  ScatterRun* runs = table.runs.data();
  for (std::int64_t kx = 0; kx < kw; ++kx) {
    x_ranges[kx] = valid_outputs(width, out_w, stride, pad, kx);
  }
  std::int64_t e = 0;
  for (std::int64_t ky = 0, t = 0; ky < kh; ++ky) {
    const OutRange ry = valid_outputs(height, out_h, stride, pad, ky);
    for (std::int64_t kx = 0; kx < kw; ++kx, ++t) {
      const OutRange rx = x_ranges[kx];
      begin[t] = e;
      for (std::int64_t oy = ry.lo; oy < ry.hi && rx.lo < rx.hi; ++oy) {
        const ScatterRun run{
            (oy * stride - pad + ky) * width + rx.lo * stride - pad + kx,
            oy * out_w + rx.lo, rx.hi - rx.lo};
        ScatterRun* last = e > begin[t] ? &runs[e - 1] : nullptr;
        if (last != nullptr && stride == 1 && last->dst + last->len == run.dst &&
            last->src + last->len == run.src) {
          last->len += run.len;
        } else {
          runs[e++] = run;
        }
      }
    }
  }
  begin[taps] = e;
  const std::int64_t plane = height * width, volume = channels * plane;
  const std::int64_t channel_rows = taps * ldcol;  // col offset of channel c+1
  // Output rows of 8 or more stride-1 pixels scatter as vector adds, one
  // tap row of one channel at a time. Shorter runs (the 4x4 and 2x2 maps of
  // routed module convs, stride-2 maps) take the channels innermost
  // instead, so each entry is decoded once for all channels. Either order
  // keeps every element's adds: an element of channel c only takes adds
  // from the tap rows of c, one per tap, in ascending tap order.
  const bool long_runs = stride == 1 && out_w >= 8;
  for (std::int64_t i = 0; i < images; ++i) {
    float* image = img + i * volume;
    std::fill(image, image + volume, 0.0f);
    const float* cols = col + i * pixels;
    if (long_runs) {
      for (std::int64_t c = 0; c < channels; ++c) {
        for (std::int64_t t = 0; t < taps; ++t) {
          const float* crow = cols + c * channel_rows + t * ldcol;
          for (std::int64_t q = begin[t]; q < begin[t + 1]; ++q) {
            float* __restrict__ d = image + c * plane + runs[q].dst;
            const float* __restrict__ s = crow + runs[q].src;
            for (std::int64_t j = 0; j < runs[q].len; ++j) d[j] += s[j];
          }
        }
      }
      continue;
    }
    for (std::int64_t t = 0; t < taps; ++t) {
      const float* crow = cols + t * ldcol;
      for (std::int64_t q = begin[t]; q < begin[t + 1]; ++q) {
        for (std::int64_t j = 0; j < runs[q].len; ++j) {
          float* __restrict__ d = image + runs[q].dst + j * stride;
          const float* __restrict__ s = crow + runs[q].src + j;
          for (std::int64_t c = 0; c < channels; ++c) {
            d[c * plane] += s[c * channel_rows];
          }
        }
      }
    }
  }
}

}  // namespace nebula
