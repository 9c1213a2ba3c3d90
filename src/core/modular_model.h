// The modularized large model (paper §4.1) and derived sub-models.
//
// Architecture:
//
//   input → stem → ML_0 → bridge_0 → ML_1 → … → ML_{L-1} → head → logits
//
// The stem, inter-layer bridges (down-sampling / channel transitions, which
// the paper keeps outside the repeated block pattern) and classifier head are
// shared, dense components. Each module layer ML_l holds N_l substitutable
// modules (width-shrunk clones of the block plus, where shapes permit, a
// residual bypass module).
//
// A *sub-model* is the same structure restricted to a chosen subset of
// modules per layer (SubmodelSpec). Sub-models carry full copies of the
// shared components and of their chosen modules, and remember the global
// module ids so updated parameters can be aggregated back module-wise.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/gating.h"
#include "core/module_layer.h"
#include "nn/sequential.h"

namespace nebula {

/// Which modules (global ids, per layer) a sub-model contains.
struct SubmodelSpec {
  std::vector<std::vector<std::int64_t>> modules;

  std::int64_t total_modules() const {
    std::int64_t n = 0;
    for (const auto& layer : modules) n += static_cast<std::int64_t>(layer.size());
    return n;
  }
};

/// Per-module resource costs, precomputed on the cloud (§5.1).
struct ModuleCost {
  std::int64_t params = 0;
  double comm_mb = 0.0;
  double comp_gflops = 0.0;  // forward GFLOPs per sample
  double mem_mb = 0.0;       // training memory share
};

class ModularModel {
 public:
  struct Parts {
    LayerPtr stem;                                  // may be null (identity)
    std::vector<std::vector<LayerPtr>> module_layers;
    std::vector<LayerPtr> bridges;                  // size L-1; entries may be null
    LayerPtr head;
    /// Full module-layer widths in the cloud model. For a cloud model this
    /// matches module_layers sizes; for sub-models it is the cloud widths.
    std::vector<std::int64_t> full_widths;
    /// Global ids per layer; empty means 0..N_l-1 (cloud model).
    std::vector<std::vector<std::int64_t>> global_ids;
  };

  ModularModel(Parts parts, std::vector<std::int64_t> sample_shape);

  // ---- Execution -------------------------------------------------------------

  /// Forward with externally supplied gates (from the unified selector).
  Tensor forward(const Tensor& x, const GateResult& gates,
                 const RoutingOpts& opts, bool train);

  /// Backward from dL/d(logits). Per-layer gate gradients (B, full_width)
  /// are retrievable via `gate_grads()` afterwards; a layer's entry is empty
  /// when the forward ran with `RoutingOpts::gate_grad = false`.
  Tensor backward(const Tensor& grad_out);

  /// As `backward`, but the stem takes the parameter-only call
  /// (Layer::backward_params): the same parameter and gate gradients, bit
  /// for bit, without the input gradient that training never reads.
  void backward_params(const Tensor& grad_out);

  const std::vector<Tensor>& gate_grads() const { return gate_grads_; }

  // ---- Introspection ----------------------------------------------------------

  std::size_t num_module_layers() const { return layers_.size(); }
  ModuleLayer& module_layer(std::size_t l) { return *layers_.at(l); }
  const std::vector<std::int64_t>& full_widths() const { return full_widths_; }
  const std::vector<std::int64_t>& sample_shape() const { return sample_shape_; }
  std::int64_t flat_input_dim() const {
    return Tensor::numel_from(sample_shape_);
  }

  std::vector<Param*> params();
  std::vector<Param*> shared_params();  // stem + bridges + head only
  void zero_grad();
  std::int64_t num_params();

  /// Shared (stem/bridge/head) state as one flat vector.
  std::vector<float> shared_state();
  void set_shared_state(const std::vector<float>& state);

  /// Floats in shared_state(), without building it.
  std::int64_t shared_state_size();

  /// State of module (layer l, global id) — must exist in this model.
  std::vector<float> module_state(std::size_t l, std::int64_t global_id);
  /// Floats in module_state(l, global_id), without building it.
  std::int64_t module_state_size(std::size_t l, std::int64_t global_id);
  void set_module_state(std::size_t l, std::int64_t global_id,
                        const std::vector<float>& state);
  bool has_module(std::size_t l, std::int64_t global_id) const;

  /// Per-module resource costs (cloud model only: requires all modules).
  /// Indexed [layer][global_id].
  std::vector<std::vector<ModuleCost>> module_costs();

  /// Resource cost of the shared components alone.
  ModuleCost shared_cost();

  /// Training peak memory (MB) of THIS model (cloud or sub-model) for a
  /// given batch size: params + grads + momentum + cached activations under
  /// top-k sub-batch dispatch. Consistent with
  /// CostModel::training_peak_mem_mb for dense models.
  double training_mem_mb(std::int64_t batch = 16, std::int64_t top_k = 2);

  /// Expected forward FLOPs per sample under top-k routing over the
  /// resident modules (k times the mean resident-module cost per layer).
  std::int64_t forward_flops(std::int64_t top_k = 2);

  /// Full spec: every module this model holds.
  SubmodelSpec full_spec() const;

  /// Builds a derived sub-model carrying copies of the chosen modules and
  /// shared components.
  std::unique_ptr<ModularModel> derive_submodel(const SubmodelSpec& spec) const;

  /// Deep copy of the whole model.
  std::unique_ptr<ModularModel> clone() const;

  /// Input shape of module layer l (batch = 1), for cost computations.
  std::vector<std::int64_t> layer_input_shape(std::size_t l) const {
    return layer_in_shapes_.at(l);
  }

 private:
  ModularModel() = default;
  // Backward from the head through the last module layer: returns dL/d(stem
  // output) and records the gate gradients.
  Tensor backward_to_stem(const Tensor& grad_out);
  std::size_t local_index(std::size_t l, std::int64_t global_id) const;
  void compute_layer_shapes();

  LayerPtr stem_;
  std::vector<std::unique_ptr<ModuleLayer>> layers_;
  std::vector<LayerPtr> bridges_;
  LayerPtr head_;
  std::vector<std::int64_t> full_widths_;
  std::vector<std::int64_t> sample_shape_;
  std::vector<std::vector<std::int64_t>> layer_in_shapes_;  // batch=1

  std::vector<Tensor> gate_grads_;
  bool in_forward_train_ = false;
};

}  // namespace nebula
