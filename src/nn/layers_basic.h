// Basic layers: Linear, ReLU, Dropout, Flatten.
#pragma once

#include "common/rng.h"
#include "nn/layer.h"

namespace nebula {

/// Fully connected layer: y = x W + b, with W stored as (in, out).
class Linear : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  /// dW and db only: skips the dx product.
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Linear"; }
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override;
  std::int64_t flops(const std::vector<std::int64_t>& in_shape) const override;

  LayerPtr clone() const override { return std::make_unique<Linear>(*this); }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Param& weight() { return w_; }
  Param& bias() { return b_; }
  bool has_bias() const { return has_bias_; }

 private:
  std::int64_t in_, out_;
  bool has_bias_;
  Param w_;
  Param b_;
  Tensor cached_input_;
};

/// Rectified linear unit.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override {
    return in_shape;
  }
  std::int64_t flops(const std::vector<std::int64_t>& in_shape) const override {
    return Tensor::numel_from(in_shape);
  }
  LayerPtr clone() const override { return std::make_unique<ReLU>(*this); }

 private:
  Tensor mask_;  // 1 where input > 0
};

/// Inverted dropout: active only in training mode.
class Dropout : public Layer {
 public:
  explicit Dropout(float p, std::uint64_t seed = 7);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Dropout"; }
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override {
    return in_shape;
  }
  LayerPtr clone() const override { return std::make_unique<Dropout>(*this); }

 private:
  float p_;
  Rng rng_;
  Tensor mask_;
};

/// Collapses all non-batch dimensions: (N, …) -> (N, prod(…)).
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Flatten"; }
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override;
  LayerPtr clone() const override { return std::make_unique<Flatten>(*this); }

 private:
  std::vector<std::int64_t> cached_shape_;
};

/// Pass-through layer. Serves as the paper's residual module: a module that
/// lets inputs bypass the module layer entirely (§4.1, "not all inputs need
/// layer-by-layer processing").
class Identity : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override {
    (void)train;
    return x;
  }
  Tensor backward(const Tensor& grad_out) override { return grad_out; }
  std::string name() const override { return "Identity"; }
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override {
    return in_shape;
  }
  std::int64_t activation_elems(
      const std::vector<std::int64_t>& in_shape) const override {
    (void)in_shape;
    return 0;
  }
  LayerPtr clone() const override { return std::make_unique<Identity>(); }
};

}  // namespace nebula
