#include "core/modular_model.h"

#include <algorithm>

#include "nn/state.h"

namespace nebula {

namespace {

// Wraps possibly-null shared parts so the pipeline can treat them uniformly.
Tensor run_forward(const LayerPtr& part, const Tensor& x, bool train) {
  return part ? part->forward(x, train) : x;
}

}  // namespace

ModularModel::ModularModel(Parts parts, std::vector<std::int64_t> sample_shape)
    : stem_(std::move(parts.stem)),
      bridges_(std::move(parts.bridges)),
      head_(std::move(parts.head)),
      sample_shape_(std::move(sample_shape)) {
  const std::size_t l_count = parts.module_layers.size();
  NEBULA_CHECK_MSG(l_count > 0, "a modular model needs >= 1 module layer");
  NEBULA_CHECK(head_ != nullptr);
  NEBULA_CHECK_MSG(bridges_.size() + 1 == l_count || bridges_.empty(),
                   "need L-1 bridges (entries may be null) or none");
  if (bridges_.empty()) bridges_.resize(l_count - 1);

  if (parts.full_widths.empty()) {
    for (const auto& mods : parts.module_layers) {
      parts.full_widths.push_back(static_cast<std::int64_t>(mods.size()));
    }
  }
  NEBULA_CHECK(parts.full_widths.size() == l_count);
  full_widths_ = parts.full_widths;

  if (parts.global_ids.empty()) {
    parts.global_ids.resize(l_count);
    for (std::size_t l = 0; l < l_count; ++l) {
      for (std::size_t i = 0; i < parts.module_layers[l].size(); ++i) {
        parts.global_ids[l].push_back(static_cast<std::int64_t>(i));
      }
    }
  }
  NEBULA_CHECK(parts.global_ids.size() == l_count);

  layers_.reserve(l_count);
  for (std::size_t l = 0; l < l_count; ++l) {
    layers_.push_back(std::make_unique<ModuleLayer>(
        std::move(parts.module_layers[l]), parts.global_ids[l],
        full_widths_[l]));
  }
  compute_layer_shapes();
}

void ModularModel::compute_layer_shapes() {
  layer_in_shapes_.clear();
  std::vector<std::int64_t> shape = sample_shape_;
  shape.insert(shape.begin(), 1);
  if (stem_) shape = stem_->out_shape(shape);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layer_in_shapes_.push_back(shape);
    shape = layers_[l]->out_shape(shape);
    if (l + 1 < layers_.size() && bridges_[l]) {
      shape = bridges_[l]->out_shape(shape);
    }
  }
}

Tensor ModularModel::forward(const Tensor& x, const GateResult& gates,
                             const RoutingOpts& opts, bool train) {
  NEBULA_CHECK_MSG(gates.probs.size() == layers_.size(),
                   "gate result covers " << gates.probs.size()
                                         << " layers, model has "
                                         << layers_.size());
  // Accept any input whose per-sample volume matches the model's sample
  // shape (flat (B, D) or shaped (B, ...)); normalise to {B, sample_shape},
  // copying only an input that needs the reshape.
  std::vector<std::int64_t> shaped{x.dim(0)};
  shaped.insert(shaped.end(), sample_shape_.begin(), sample_shape_.end());
  const Tensor* in = &x;
  Tensor reshaped;
  if (x.shape() != shaped) {
    reshaped = x;
    reshaped.reshape(std::move(shaped));
    in = &reshaped;
  }
  Tensor h = run_forward(stem_, *in, train);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l]->forward(h, gates.probs[l], opts, train);
    if (l + 1 < layers_.size() && bridges_[l]) {
      h = bridges_[l]->forward(h, train);
    }
  }
  in_forward_train_ = train;
  return head_->forward(h, train);
}

Tensor ModularModel::backward(const Tensor& grad_out) {
  Tensor g = backward_to_stem(grad_out);
  return stem_ ? stem_->backward(g) : g;
}

void ModularModel::backward_params(const Tensor& grad_out) {
  Tensor g = backward_to_stem(grad_out);
  if (stem_) stem_->backward_params(g);
}

Tensor ModularModel::backward_to_stem(const Tensor& grad_out) {
  NEBULA_CHECK_MSG(in_forward_train_,
                   "ModularModel::backward without forward(train=true)");
  gate_grads_.assign(layers_.size(), Tensor{});
  Tensor g = head_->backward(grad_out);
  for (std::size_t l = layers_.size(); l-- > 0;) {
    if (l + 1 < layers_.size() && bridges_[l]) {
      g = bridges_[l]->backward(g);
    }
    g = layers_[l]->backward(g);
    gate_grads_[l] = layers_[l]->gate_grad();
  }
  in_forward_train_ = false;
  return g;
}

std::vector<Param*> ModularModel::params() {
  std::vector<Param*> all = shared_params();
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

std::vector<Param*> ModularModel::shared_params() {
  std::vector<Param*> all;
  if (stem_) {
    for (Param* p : stem_->params()) all.push_back(p);
  }
  for (auto& b : bridges_) {
    if (!b) continue;
    for (Param* p : b->params()) all.push_back(p);
  }
  for (Param* p : head_->params()) all.push_back(p);
  return all;
}

void ModularModel::zero_grad() {
  for (Param* p : params()) p->grad.zero();
}

std::int64_t ModularModel::num_params() {
  std::int64_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

std::vector<float> ModularModel::shared_state() {
  std::vector<float> out;
  auto append_layer = [&out](Layer& layer) {
    auto s = get_state(layer);
    out.insert(out.end(), s.begin(), s.end());
  };
  if (stem_) append_layer(*stem_);
  for (auto& b : bridges_) {
    if (b) append_layer(*b);
  }
  append_layer(*head_);
  return out;
}

std::int64_t ModularModel::shared_state_size() {
  std::int64_t n = stem_ ? state_size(*stem_) : 0;
  for (auto& b : bridges_) {
    if (b) n += state_size(*b);
  }
  return n + state_size(*head_);
}

void ModularModel::set_shared_state(const std::vector<float>& state) {
  std::size_t off = 0;
  auto load_layer = [&](Layer& layer) {
    const std::size_t n = static_cast<std::size_t>(state_size(layer));
    NEBULA_CHECK_MSG(off + n <= state.size(), "shared state underflow");
    std::vector<float> part(state.begin() + static_cast<std::ptrdiff_t>(off),
                            state.begin() +
                                static_cast<std::ptrdiff_t>(off + n));
    set_state(layer, part);
    off += n;
  };
  if (stem_) load_layer(*stem_);
  for (auto& b : bridges_) {
    if (b) load_layer(*b);
  }
  load_layer(*head_);
  NEBULA_CHECK_MSG(off == state.size(), "shared state size mismatch");
}

std::size_t ModularModel::local_index(std::size_t l,
                                      std::int64_t global_id) const {
  const auto& ids = layers_.at(l)->global_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == global_id) return i;
  }
  NEBULA_CHECK_MSG(false, "module (layer " << l << ", id " << global_id
                                           << ") not in this model");
  return 0;
}

bool ModularModel::has_module(std::size_t l, std::int64_t global_id) const {
  const auto& ids = layers_.at(l)->global_ids();
  return std::find(ids.begin(), ids.end(), global_id) != ids.end();
}

std::vector<float> ModularModel::module_state(std::size_t l,
                                              std::int64_t global_id) {
  return get_state(layers_.at(l)->module(local_index(l, global_id)));
}

std::int64_t ModularModel::module_state_size(std::size_t l,
                                            std::int64_t global_id) {
  return state_size(layers_.at(l)->module(local_index(l, global_id)));
}

void ModularModel::set_module_state(std::size_t l, std::int64_t global_id,
                                    const std::vector<float>& state) {
  set_state(layers_.at(l)->module(local_index(l, global_id)), state);
}

std::vector<std::vector<ModuleCost>> ModularModel::module_costs() {
  std::vector<std::vector<ModuleCost>> costs(layers_.size());
  constexpr double kMb = 1024.0 * 1024.0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const auto in_shape = layer_in_shapes_[l];
    auto& layer = *layers_[l];
    NEBULA_CHECK_MSG(static_cast<std::int64_t>(layer.size()) ==
                         full_widths_[l],
                     "module_costs requires the full cloud model");
    costs[l].resize(layer.size());
    for (std::size_t i = 0; i < layer.size(); ++i) {
      Layer& m = layer.module(i);
      ModuleCost& c = costs[l][static_cast<std::size_t>(
          layer.global_ids()[i])];
      c.params = m.num_params();
      c.comm_mb = static_cast<double>(c.params) * 4.0 / kMb;
      c.comp_gflops = static_cast<double>(m.flops(in_shape)) / 1e9;
      c.mem_mb = (3.0 * static_cast<double>(c.params) +
                  2.0 * static_cast<double>(m.activation_elems(in_shape)) * 16.0) *
                 4.0 / kMb;
    }
  }
  return costs;
}

ModuleCost ModularModel::shared_cost() {
  ModuleCost c;
  constexpr double kMb = 1024.0 * 1024.0;
  std::vector<std::int64_t> shape = sample_shape_;
  shape.insert(shape.begin(), 1);
  auto account = [&](Layer& layer, const std::vector<std::int64_t>& in) {
    std::int64_t p = layer.num_params();
    c.params += p;
    c.comp_gflops += static_cast<double>(layer.flops(in)) / 1e9;
    c.mem_mb += (3.0 * static_cast<double>(p) +
                 2.0 * static_cast<double>(layer.activation_elems(in)) * 16.0) *
                4.0 / kMb;
  };
  if (stem_) {
    account(*stem_, shape);
    shape = stem_->out_shape(shape);
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    shape = layers_[l]->out_shape(shape);
    if (l + 1 < layers_.size() && bridges_[l]) {
      account(*bridges_[l], shape);
      shape = bridges_[l]->out_shape(shape);
    }
  }
  account(*head_, shape);
  c.comm_mb = static_cast<double>(c.params) * 4.0 / kMb;
  return c;
}

double ModularModel::training_mem_mb(std::int64_t batch, std::int64_t top_k) {
  constexpr double kMb = 1024.0 * 1024.0;
  double params = 0.0;
  for (Param* p : this->params()) params += p->value.numel();
  double acts = 0.0;
  std::vector<std::int64_t> shape = sample_shape_;
  shape.insert(shape.begin(), batch);
  if (stem_) {
    acts += static_cast<double>(stem_->activation_elems(shape));
    shape = stem_->out_shape(shape);
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    // Sub-batch dispatch: each sample activates top_k modules, so the layer
    // holds batch*top_k per-sample activation slots in total — independent
    // of how many modules are resident. Use the mean per-module activation
    // footprint (per sample) times that slot count.
    auto unit = shape;
    unit[0] = 1;
    double mean_act = 0.0;
    for (std::size_t i = 0; i < layers_[l]->size(); ++i) {
      mean_act +=
          static_cast<double>(layers_[l]->module(i).activation_elems(unit));
    }
    mean_act /= static_cast<double>(layers_[l]->size());
    const double slots = static_cast<double>(batch) *
                         std::min<double>(static_cast<double>(top_k),
                                          static_cast<double>(layers_[l]->size()));
    acts += mean_act * slots;
    shape = layers_[l]->out_shape(shape);
    if (l + 1 < layers_.size() && bridges_[l]) {
      acts += static_cast<double>(bridges_[l]->activation_elems(shape));
      shape = bridges_[l]->out_shape(shape);
    }
  }
  acts += static_cast<double>(head_->activation_elems(shape));
  return (3.0 * params + 2.0 * acts) * 4.0 / kMb;
}

std::int64_t ModularModel::forward_flops(std::int64_t top_k) {
  std::int64_t total = 0;
  std::vector<std::int64_t> shape = sample_shape_;
  shape.insert(shape.begin(), 1);
  if (stem_) {
    total += stem_->flops(shape);
    shape = stem_->out_shape(shape);
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    // Expected routing cost: each sample fires top_k of the resident
    // modules; assuming routing mass spreads over them, the expected cost is
    // k times the mean resident-module cost.
    double mean = 0.0;
    for (std::size_t i = 0; i < layers_[l]->size(); ++i) {
      mean += static_cast<double>(layers_[l]->module(i).flops(shape));
    }
    mean /= static_cast<double>(layers_[l]->size());
    const double k = std::min<double>(static_cast<double>(top_k),
                                      static_cast<double>(layers_[l]->size()));
    total += static_cast<std::int64_t>(mean * k);
    shape = layers_[l]->out_shape(shape);
    if (l + 1 < layers_.size() && bridges_[l]) {
      total += bridges_[l]->flops(shape);
      shape = bridges_[l]->out_shape(shape);
    }
  }
  total += head_->flops(shape);
  return total;
}

SubmodelSpec ModularModel::full_spec() const {
  SubmodelSpec spec;
  spec.modules.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    spec.modules[l] = layers_[l]->global_ids();
  }
  return spec;
}

std::unique_ptr<ModularModel> ModularModel::derive_submodel(
    const SubmodelSpec& spec) const {
  NEBULA_CHECK(spec.modules.size() == layers_.size());
  Parts parts;
  parts.stem = stem_ ? stem_->clone() : nullptr;
  parts.head = head_->clone();
  for (const auto& b : bridges_) {
    parts.bridges.push_back(b ? b->clone() : nullptr);
  }
  parts.full_widths = full_widths_;
  parts.global_ids = spec.modules;
  parts.module_layers.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    NEBULA_CHECK_MSG(!spec.modules[l].empty(),
                     "sub-model layer " << l << " has no modules");
    for (std::int64_t id : spec.modules[l]) {
      const std::size_t li = local_index(l, id);
      parts.module_layers[l].push_back(
          const_cast<ModuleLayer&>(*layers_[l]).module(li).clone());
    }
  }
  return std::unique_ptr<ModularModel>(
      new ModularModel(std::move(parts), sample_shape_));
}

std::unique_ptr<ModularModel> ModularModel::clone() const {
  return derive_submodel(full_spec());
}

}  // namespace nebula
