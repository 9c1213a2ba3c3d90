#include "nn/layers_basic.h"

#include <cmath>

#include "nn/init.h"
#include "tensor/ops.h"

namespace nebula {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      w_({in_features, out_features}, "linear.w"),
      b_({out_features}, "linear.b") {
  NEBULA_CHECK(in_features > 0 && out_features > 0);
  init::he_normal(w_.value, in_features, init::default_rng());
}

Tensor Linear::forward(const Tensor& x, bool train) {
  NEBULA_CHECK_MSG(x.rank() == 2 && x.dim(1) == in_,
                   "Linear expects (N, " << in_ << "), got " << x.shape_str());
  if (train) cached_input_ = x;
  Tensor y({x.dim(0), out_});
  matmul(x, w_.value, y);
  if (has_bias_) {
    float* yd = y.data();
    const float* bd = b_.value.data();
    for (std::int64_t r = 0; r < y.dim(0); ++r) {
      for (std::int64_t c = 0; c < out_; ++c) yd[r * out_ + c] += bd[c];
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  Linear::backward_params(grad_out);
  // dx(N,in) = dy(N,out) * W(in,out)^T -> matmul_nt(dy, W) with B rows = in.
  Tensor dx({grad_out.dim(0), in_});
  matmul_nt(grad_out, w_.value, dx);
  return dx;
}

void Linear::backward_params(const Tensor& grad_out) {
  NEBULA_CHECK_MSG(!cached_input_.empty(),
                   "Linear::backward without forward(train=true)");
  NEBULA_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_);
  // dW += x^T * dy
  matmul_tn_acc(cached_input_, grad_out, w_.grad);
  if (has_bias_) {
    float* gb = b_.grad.data();
    const float* gy = grad_out.data();
    for (std::int64_t r = 0; r < grad_out.dim(0); ++r) {
      for (std::int64_t c = 0; c < out_; ++c) gb[c] += gy[r * out_ + c];
    }
  }
}

std::vector<Param*> Linear::params() {
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

std::vector<std::int64_t> Linear::out_shape(
    std::vector<std::int64_t> in_shape) const {
  NEBULA_CHECK(in_shape.size() == 2 && in_shape[1] == in_);
  return {in_shape[0], out_};
}

std::int64_t Linear::flops(const std::vector<std::int64_t>& in_shape) const {
  (void)in_shape;
  return 2 * in_ * out_ + (has_bias_ ? out_ : 0);
}

Tensor ReLU::forward(const Tensor& x, bool train) {
  // Selects, not branches: post-ReLU activations are about half zeros in
  // random places, which a per-element branch mispredicts. NaN, −0 and
  // negative inputs all give +0 with mask 0. Mask and output are separate
  // loops because a loop writing both is not vectorised.
  Tensor y = x;
  float* yd = y.data();
  const std::int64_t count = y.numel();
  if (train) {
    mask_ = Tensor(x.shape());
    float* md = mask_.data();
    for (std::int64_t i = 0; i < count; ++i) {
      md[i] = yd[i] > 0.0f ? 1.0f : 0.0f;
    }
  }
  for (std::int64_t i = 0; i < count; ++i) {
    yd[i] = yd[i] > 0.0f ? yd[i] : 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  NEBULA_CHECK_MSG(!mask_.empty(), "ReLU::backward without forward");
  NEBULA_CHECK(grad_out.numel() == mask_.numel());
  Tensor dx = grad_out;
  mul_inplace(dx, mask_);
  return dx;
}

Dropout::Dropout(float p, std::uint64_t seed) : p_(p), rng_(seed) {
  NEBULA_CHECK_MSG(p >= 0.0f && p < 1.0f, "dropout p must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& x, bool train) {
  if (!train || p_ == 0.0f) return x;
  mask_ = Tensor(x.shape());
  Tensor y = x;
  const float keep = 1.0f - p_;
  const float scale = 1.0f / keep;
  float* md = mask_.data();
  float* yd = y.data();
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    md[i] = (rng_.uniform() < keep) ? scale : 0.0f;
    yd[i] *= md[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  NEBULA_CHECK_MSG(!mask_.empty(), "Dropout::backward without forward");
  Tensor dx = grad_out;
  mul_inplace(dx, mask_);
  return dx;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  if (train) cached_shape_ = x.shape();
  Tensor y = x;
  const std::int64_t batch = x.dim(0);
  y.reshape({batch, x.numel() / batch});
  return y;
}

Tensor Flatten::backward(const Tensor& grad_out) {
  NEBULA_CHECK_MSG(!cached_shape_.empty(), "Flatten::backward without forward");
  Tensor dx = grad_out;
  dx.reshape(cached_shape_);
  return dx;
}

std::vector<std::int64_t> Flatten::out_shape(
    std::vector<std::int64_t> in_shape) const {
  NEBULA_CHECK(!in_shape.empty());
  std::int64_t rest = 1;
  for (std::size_t i = 1; i < in_shape.size(); ++i) rest *= in_shape[i];
  return {in_shape[0], rest};
}

}  // namespace nebula
