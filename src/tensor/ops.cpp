#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

std::vector<std::int64_t> topk_indices(const float* v, std::int64_t n,
                                       std::int64_t k) {
  NEBULA_CHECK_MSG(k >= 0 && k <= n, "topk k out of range");
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [v](std::int64_t a, std::int64_t b) {
                      if (v[a] != v[b]) return v[a] > v[b];
                      return a < b;  // deterministic tie-break
                    });
  idx.resize(static_cast<std::size_t>(k));
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

void col2im(const float* col, std::int64_t ldcol, std::int64_t channels,
            std::int64_t height, std::int64_t width, std::int64_t kh,
            std::int64_t kw, std::int64_t stride, std::int64_t pad,
            float* img) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  NEBULA_CHECK(ldcol >= out_h * out_w);
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

}  // namespace nebula
