// Tensor kernels: GEMM, elementwise arithmetic, reductions, softmax, top-k,
// and the im2col/col2im pair used by Conv2d.
//
// All matrix products are thin shape-checked wrappers over the blocked,
// packed engine in tensor/gemm.h; kernels above a size threshold run on the
// global thread pool.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace nebula {

// ---- GEMM ------------------------------------------------------------------

/// C = A(M,K) * B(K,N). C must be preallocated to (M,N); it is overwritten.
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// Returns A * B.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C += A^T(M,K)^T... specifically: C(K,N) accumulate= A(M,K)^T * B(M,N).
/// Used for weight gradients (x^T * dy).
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c);

/// C(K,N) = A(M,K)^T * B(M,N), overwriting C. Used for dcol = W^T * dy.
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A(M,K) * B(N,K)^T  -> (M,N). Used for input gradients (dy * W^T with
/// W stored (K,N) as (in,out)): here B rows index N.
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c);

/// C(M,N) += A(M,K) * B(N,K)^T. Used for conv weight gradients dW += dy*col^T.
void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& c);

// ---- Elementwise -----------------------------------------------------------

void add_inplace(Tensor& a, const Tensor& b);            // a += b
void sub_inplace(Tensor& a, const Tensor& b);            // a -= b
void mul_inplace(Tensor& a, const Tensor& b);            // a *= b (Hadamard)
void scale_inplace(Tensor& a, float s);                  // a *= s
void axpy(float alpha, const Tensor& x, Tensor& y);      // y += alpha * x

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);

// ---- Reductions & activations ----------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);
float l2_norm(const Tensor& a);
float dot(const Tensor& a, const Tensor& b);

/// Row-wise softmax over a (rows, cols) tensor.
Tensor softmax_rows(const Tensor& logits);

/// Row-wise log-softmax over a (rows, cols) tensor.
Tensor log_softmax_rows(const Tensor& logits);

/// Index of the maximum element in row r of a (rows, cols) tensor.
std::int64_t argmax_row(const Tensor& t, std::int64_t r);

/// Indices of the k largest values (descending) in `v[0 .. n)`; ties go to
/// the lower index.
std::vector<std::int64_t> topk_indices(const float* v, std::int64_t n,
                                       std::int64_t k);

/// As above, written into `idx` (resized to k), so a caller that keeps the
/// buffer across rows allocates once.
void topk_indices(const float* v, std::int64_t n, std::int64_t k,
                  std::vector<std::int64_t>& idx);

// ---- Convolution support ----------------------------------------------------

/// im2col for NCHW input. Writes the (C*kh*kw, out_h*out_w) column matrix of
/// one image, row r at col + r*ldcol: column j holds the receptive field of
/// output pixel j. ldcol >= out_h*out_w; a larger ldcol places the image's
/// columns inside a wider matrix (a batch side by side).
void im2col(const float* img, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* col,
            std::int64_t ldcol);

/// Inverse scatter-add of im2col (for input gradients): overwrites img with
/// the sum of every column element that im2col would have read from it.
/// Reads rows of col at stride ldcol, like im2col writes them. With
/// images > 1 the column blocks of `images` images lie side by side
/// (image i's pixels at columns i·out_h·out_w onward) and image i is
/// written channels·height·width floats past the first; each is scattered
/// exactly as by its own call.
void col2im(const float* col, std::int64_t ldcol, std::int64_t channels,
            std::int64_t height, std::int64_t width, std::int64_t kh,
            std::int64_t kw, std::int64_t stride, std::int64_t pad,
            float* img, std::int64_t images = 1);

/// Output spatial size for a conv/pool dimension.
inline std::int64_t conv_out_size(std::int64_t in, std::int64_t k,
                                  std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

}  // namespace nebula
