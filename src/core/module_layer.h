// A module layer (paper §4.1): N substitutable modules that jointly implement
// one block of the original large model.
//
// Routing follows the paper's Eq. in §4.2: for each sample, the top-k modules
// by gate probability are activated and their outputs combined by the
// (renormalised) gate weights. Training uses noisy top-k (Shazeer et al.) so
// routing stays explorable despite the non-differentiable selection.
//
// Dispatch is sub-batch based: each activated module runs only on the samples
// routed to it, which is also how the derived edge sub-models stay cheap.
// Training and inference share this one path, so their outputs carry the
// same bits; inference only skips the caches that backward needs.
//
// A ModuleLayer may hold only a subset of the cloud's modules (an edge
// sub-model): `global_ids` maps the local modules onto the columns of the
// full gate distribution, and routing renormalises over the available set.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"

namespace nebula {

/// Routing hyper-parameters for one forward pass.
struct RoutingOpts {
  std::int64_t top_k = 2;
  float noise_std = 0.0f;  // >0 enables noisy top-k (training only)
  Rng* rng = nullptr;      // required when noise_std > 0
  /// False when nothing will read the gate gradient (the selector is
  /// frozen): a training forward then keeps no copy of the combined output
  /// and backward computes no gate gradient. Parameter and input gradients
  /// do not depend on it.
  bool gate_grad = true;
};

class ModuleLayer {
 public:
  /// `modules` must share input and output shapes. `global_ids[i]` is the
  /// column of module i in the cloud-wide gate distribution of width
  /// `full_width` (for a full cloud layer, ids are 0..N-1).
  ModuleLayer(std::vector<LayerPtr> modules,
              std::vector<std::int64_t> global_ids, std::int64_t full_width);

  /// Routes the batch through the top-k local modules per sample.
  /// `gate_probs` is the full-width (B, full_width) distribution from the
  /// unified selector.
  Tensor forward(const Tensor& x, const Tensor& gate_probs,
                 const RoutingOpts& opts, bool train);

  /// Returns dL/dx and accumulates module parameter gradients. Unless the
  /// forward ran with `gate_grad = false`, also computes the gate gradient,
  /// retrievable via `gate_grad()` as a full-width (B, full_width) tensor
  /// (zero outside the activated set); otherwise `gate_grad()` is empty.
  Tensor backward(const Tensor& grad_out);

  const Tensor& gate_grad() const { return gate_grad_; }

  std::vector<Param*> params();
  std::vector<Tensor*> buffers();

  std::size_t size() const { return modules_.size(); }
  Layer& module(std::size_t i) { return *modules_.at(i); }

  const std::vector<std::int64_t>& global_ids() const { return global_ids_; }
  std::int64_t full_width() const { return full_width_; }

  /// All modules share shapes, so layer shape == any module's shape.
  std::vector<std::int64_t> out_shape(
      std::vector<std::int64_t> in_shape) const {
    return modules_.front()->out_shape(std::move(in_shape));
  }

 private:
  std::vector<LayerPtr> modules_;
  std::vector<std::int64_t> global_ids_;
  std::int64_t full_width_;

  // Routing record of the last forward. A routed row is one sample sent to a
  // module, with its renormalised gate weight.
  struct Routed {
    std::int64_t sample;
    float weight;  // raw gate / gate mass
  };
  std::vector<std::vector<Routed>> routed_;  // per module, samples ascending
  std::vector<float> gate_mass_;  // per sample: Σ raw gate over activated set;
                                  // empty unless a training forward is live
  // Forward caches (training mode).
  std::vector<Tensor> module_outputs_;  // per module: sub-batch out
  Tensor combined_output_;  // kept only when the gate gradient is wanted
  std::vector<std::int64_t> in_shape_;
  std::vector<std::int64_t> out_shape_cached_;
  Tensor gate_grad_;
};

}  // namespace nebula
