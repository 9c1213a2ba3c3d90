// Layer abstraction for the training substrate.
//
// The library uses module-local backpropagation: each layer caches what it
// needs during `forward` and produces the input gradient in `backward`
// (or, for a model's first layer, only the parameter gradients in
// `backward_params`).
// There is no global autograd tape — the composition order of layers *is*
// the tape, which keeps the system small and the memory behaviour explicit
// (important for the on-device memory cost model).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace nebula {

/// A trainable parameter: value plus accumulated gradient.
struct Param {
  Tensor value;
  Tensor grad;
  std::string name;

  explicit Param(std::vector<std::int64_t> shape, std::string n = "")
      : value(shape), grad(std::move(shape)), name(std::move(n)) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. `train` toggles dropout/batch-norm behaviour.
  /// Implementations cache whatever `backward` will need.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must be called after a matching `forward(…, train=true)`.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Parameter-gradient-only backward, for the first layer of a model whose
  /// input gradient nobody reads. Accumulates exactly the parameter
  /// gradients `backward` would, bit for bit, and releases the same caches,
  /// but may skip computing dL/d(input). The default runs `backward` and
  /// drops its result; layers whose input gradient costs a product of its
  /// own (Linear, Conv2d) or that chain layers (Sequential) override it.
  virtual void backward_params(const Tensor& grad_out) { backward(grad_out); }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Non-trainable state carried with the model (e.g. batch-norm running
  /// statistics). Included in state serialisation but not optimised.
  virtual std::vector<Tensor*> buffers() { return {}; }

  virtual std::string name() const = 0;

  /// Deep copy (architecture + parameters + buffers). Training caches need
  /// not be preserved.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Output shape for a given input shape (excluding the batch dimension is
  /// the caller's concern: shapes here include batch as dim 0).
  virtual std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const = 0;

  /// Forward FLOPs for one sample of the given (batch-inclusive) shape with
  /// batch=1. Used by the edge resource cost model.
  virtual std::int64_t flops(const std::vector<std::int64_t>& in_shape) const {
    (void)in_shape;
    return 0;
  }

  /// Elements of activation memory this layer holds live during a training
  /// forward pass (cached inputs/outputs for backward). Default: one output
  /// tensor. Used by the on-device memory cost model.
  virtual std::int64_t activation_elems(
      const std::vector<std::int64_t>& in_shape) const {
    return Tensor::numel_from(out_shape(in_shape));
  }

  /// Total trainable parameter count.
  std::int64_t num_params() {
    std::int64_t n = 0;
    for (Param* p : params()) n += p->value.numel();
    return n;
  }

  /// Zeroes all parameter gradients.
  void zero_grad() {
    for (Param* p : params()) p->grad.zero();
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace nebula
