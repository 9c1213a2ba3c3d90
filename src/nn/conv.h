// Convolution and pooling layers (NCHW layout).
#pragma once

#include "nn/layer.h"

namespace nebula {

/// 2-D convolution via im2col + GEMM. Weight layout: (out_c, in_c*kh*kw).
/// backward() and backward_params() consume the input cached by
/// forward(train=true): each forward serves one backward, and a second
/// backward throws.
class Conv2d : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride = 1, std::int64_t pad = 0,
         bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  /// dW and db only: skips the dx tensor, the dcol product and col2im.
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Conv2d"; }
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override;
  std::int64_t flops(const std::vector<std::int64_t>& in_shape) const override;

  LayerPtr clone() const override { return std::make_unique<Conv2d>(*this); }

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }

 private:
  // Both backwards: dW and db, then dx only when `want_dx` (else returns an
  // empty tensor).
  Tensor backward_impl(const Tensor& grad_out, bool want_dx);

  std::int64_t in_c_, out_c_, k_, stride_, pad_;
  bool has_bias_;
  Param w_;  // (out_c, in_c*k*k)
  Param b_;  // (out_c)
  Tensor cached_input_;
  std::vector<std::int64_t> in_shape_;
};

/// Max pooling with square window.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::int64_t kernel, std::int64_t stride = 0);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "MaxPool2d"; }
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override;
  LayerPtr clone() const override { return std::make_unique<MaxPool2d>(*this); }

 private:
  std::int64_t k_, stride_;
  std::vector<std::int64_t> in_shape_;
  std::vector<std::int32_t> argmax_;  // flat input index per output element
};

/// Global average pooling: (N, C, H, W) -> (N, C).
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "GlobalAvgPool"; }
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override;
  LayerPtr clone() const override {
    return std::make_unique<GlobalAvgPool>(*this);
  }

 private:
  std::vector<std::int64_t> in_shape_;
};

}  // namespace nebula
