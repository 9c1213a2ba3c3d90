// Container layers: Sequential (a chain) and Residual (x + inner(x)).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/layer.h"

namespace nebula {

/// A chain of layers executed in order. Owns its children.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer, returning *this for fluent construction.
  Sequential& add(LayerPtr layer) {
    NEBULA_CHECK(layer != nullptr);
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  // The argument goes straight to the first (forward) or last (backward)
  // layer; only an empty chain copies it.
  Tensor forward(const Tensor& x, bool train) override {
    if (layers_.empty()) return x;
    Tensor h = layers_.front()->forward(x, train);
    for (std::size_t i = 1; i < layers_.size(); ++i) {
      h = layers_[i]->forward(h, train);
    }
    return h;
  }

  Tensor backward(const Tensor& grad_out) override {
    if (layers_.empty()) return grad_out;
    Tensor g;
    return layers_.front()->backward(grad_at_first(grad_out, g));
  }

  /// Backward through all but the first layer, which then takes the
  /// parameter-only call.
  void backward_params(const Tensor& grad_out) override {
    if (layers_.empty()) return;
    Tensor g;
    layers_.front()->backward_params(grad_at_first(grad_out, g));
  }

  std::vector<Param*> params() override {
    std::vector<Param*> all;
    for (auto& layer : layers_) {
      for (Param* p : layer->params()) all.push_back(p);
    }
    return all;
  }

  std::vector<Tensor*> buffers() override {
    std::vector<Tensor*> all;
    for (auto& layer : layers_) {
      for (Tensor* b : layer->buffers()) all.push_back(b);
    }
    return all;
  }

  std::string name() const override { return "Sequential"; }

  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override {
    for (const auto& layer : layers_) in_shape = layer->out_shape(in_shape);
    return in_shape;
  }

  std::int64_t flops(const std::vector<std::int64_t>& in_shape) const override {
    std::int64_t total = 0;
    auto shape = in_shape;
    for (const auto& layer : layers_) {
      total += layer->flops(shape);
      shape = layer->out_shape(shape);
    }
    return total;
  }

  std::int64_t activation_elems(
      const std::vector<std::int64_t>& in_shape) const override {
    std::int64_t total = 0;
    auto shape = in_shape;
    for (const auto& layer : layers_) {
      total += layer->activation_elems(shape);
      shape = layer->out_shape(shape);
    }
    return total;
  }

  LayerPtr clone() const override {
    auto copy = std::make_unique<Sequential>();
    for (const auto& layer : layers_) copy->add(layer->clone());
    return copy;
  }

  std::size_t size() const { return layers_.size(); }
  Layer& operator[](std::size_t i) { return *layers_.at(i); }

 private:
  // dL/d(first layer's output) of a non-empty chain: grad_out itself for
  // one layer, else grad_out run backward through layers N-1..1 into `g`.
  const Tensor& grad_at_first(const Tensor& grad_out, Tensor& g) {
    if (layers_.size() == 1) return grad_out;
    g = layers_.back()->backward(grad_out);
    for (std::size_t i = layers_.size() - 1; i-- > 1;) {
      g = layers_[i]->backward(g);
    }
    return g;
  }

  std::vector<LayerPtr> layers_;
};

/// Residual connection: y = inner(x) + x. Input and output shapes of the
/// inner stack must match.
class Residual : public Layer {
 public:
  explicit Residual(LayerPtr inner) : inner_(std::move(inner)) {
    NEBULA_CHECK(inner_ != nullptr);
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return inner_->params(); }
  std::vector<Tensor*> buffers() override { return inner_->buffers(); }
  std::string name() const override { return "Residual"; }
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const override {
    return in_shape;
  }
  std::int64_t flops(const std::vector<std::int64_t>& in_shape) const override {
    return inner_->flops(in_shape) + Tensor::numel_from(in_shape);
  }
  std::int64_t activation_elems(
      const std::vector<std::int64_t>& in_shape) const override {
    return inner_->activation_elems(in_shape) + Tensor::numel_from(in_shape);
  }
  LayerPtr clone() const override {
    return std::make_unique<Residual>(inner_->clone());
  }

  Layer& inner() { return *inner_; }
  const Layer& inner() const { return *inner_; }

 private:
  LayerPtr inner_;
};

}  // namespace nebula
