#include "core/module_layer.h"

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"

namespace nebula {

ModuleLayer::ModuleLayer(std::vector<LayerPtr> modules,
                         std::vector<std::int64_t> global_ids,
                         std::int64_t full_width)
    : modules_(std::move(modules)),
      global_ids_(std::move(global_ids)),
      full_width_(full_width) {
  NEBULA_CHECK(!modules_.empty());
  NEBULA_CHECK(modules_.size() == global_ids_.size());
  NEBULA_CHECK(full_width_ >= static_cast<std::int64_t>(modules_.size()));
  for (std::int64_t id : global_ids_) {
    NEBULA_CHECK(id >= 0 && id < full_width_);
  }
}

Tensor ModuleLayer::forward(const Tensor& x, const Tensor& gate_probs,
                            const RoutingOpts& opts, bool train) {
  const std::int64_t batch = x.dim(0);
  NEBULA_CHECK_MSG(gate_probs.rank() == 2 && gate_probs.dim(0) == batch &&
                       gate_probs.dim(1) == full_width_,
                   "gate probs shape mismatch: " << gate_probs.shape_str());
  NEBULA_CHECK(opts.top_k > 0);
  NEBULA_CHECK_MSG(opts.noise_std == 0.0f || opts.rng != nullptr,
                   "noisy top-k needs an RNG");
  const std::size_t n_local = modules_.size();
  const std::int64_t k =
      std::min<std::int64_t>(opts.top_k, static_cast<std::int64_t>(n_local));

  // Gather the local gate columns and decide routes per sample. Each module's
  // list is filled in ascending sample order.
  routed_.resize(n_local);
  for (auto& list : routed_) list.clear();
  gate_mass_.resize(static_cast<std::size_t>(batch));
  std::vector<float> raw(n_local), keys(n_local);
  std::vector<std::int64_t> top;
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* row = gate_probs.data() + b * full_width_;
    for (std::size_t i = 0; i < n_local; ++i) {
      raw[i] = row[global_ids_[i]];
      keys[i] = (opts.noise_std > 0.0f)
                    ? std::log(raw[i] + 1e-9f) + opts.noise_std * opts.rng->normal()
                    : raw[i];
    }
    topk_indices(keys.data(), static_cast<std::int64_t>(n_local), k, top);
    float mass = 0.0f;
    for (auto i : top) mass += raw[i];
    mass = std::max(mass, 1e-9f);
    gate_mass_[static_cast<std::size_t>(b)] = mass;
    for (auto i : top) {
      routed_[static_cast<std::size_t>(i)].push_back({b, raw[i] / mass});
    }
  }

  // Establish the output shape from the first module.
  in_shape_ = x.shape();
  auto unit_in = in_shape_;
  unit_in[0] = 1;
  auto unit_out = modules_.front()->out_shape(unit_in);
  out_shape_cached_ = unit_out;
  out_shape_cached_[0] = batch;
  const std::int64_t s_in = x.numel() / batch;
  const std::int64_t s_out = Tensor::numel_from(unit_out);

  Tensor y(out_shape_cached_);
  module_outputs_.assign(n_local, Tensor{});
  for (std::size_t m = 0; m < n_local; ++m) {
    const auto& samples = routed_[m];
    if (samples.empty()) continue;
    // Gather the sub-batch for module m.
    auto sub_shape = in_shape_;
    sub_shape[0] = static_cast<std::int64_t>(samples.size());
    Tensor sub(sub_shape);
    for (std::size_t r = 0; r < samples.size(); ++r) {
      const float* src = x.data() + samples[r].sample * s_in;
      std::copy(src, src + s_in,
                sub.data() + static_cast<std::int64_t>(r) * s_in);
    }
    Tensor out = modules_[m]->forward(sub, train);
    NEBULA_CHECK_MSG(out.numel() / static_cast<std::int64_t>(samples.size()) ==
                         s_out,
                     "module output shape inconsistent within layer");
    // Scatter weighted outputs into the combined result.
    for (std::size_t r = 0; r < samples.size(); ++r) {
      const float w = samples[r].weight;
      const float* src = out.data() + static_cast<std::int64_t>(r) * s_out;
      float* dst = y.data() + samples[r].sample * s_out;
      for (std::int64_t i = 0; i < s_out; ++i) dst[i] += w * src[i];
    }
    if (train) module_outputs_[m] = std::move(out);
  }
  combined_output_ = train && opts.gate_grad ? y : Tensor{};
  if (!train) {
    gate_mass_.clear();
    module_outputs_.clear();
  }
  return y;
}

Tensor ModuleLayer::backward(const Tensor& grad_out) {
  NEBULA_CHECK_MSG(!gate_mass_.empty(),
                   "ModuleLayer::backward without forward(train=true)");
  const std::int64_t batch = in_shape_[0];
  NEBULA_CHECK(grad_out.numel() == Tensor::numel_from(out_shape_cached_));
  const std::int64_t s_in = Tensor::numel_from(in_shape_) / batch;
  const std::int64_t s_out = grad_out.numel() / batch;
  const std::size_t n_local = modules_.size();
  const bool want_gate_grad = !combined_output_.empty();

  Tensor dx(in_shape_);
  gate_grad_ = want_gate_grad ? Tensor({batch, full_width_}) : Tensor{};

  for (std::size_t m = 0; m < n_local; ++m) {
    const auto& samples = routed_[m];
    if (samples.empty()) continue;
    // Build the weighted gradient sub-batch for this module.
    const Tensor& mout = module_outputs_[m];
    Tensor gsub(mout.shape());
    for (std::size_t r = 0; r < samples.size(); ++r) {
      const float w = samples[r].weight;
      const float* gy = grad_out.data() + samples[r].sample * s_out;
      float* dst = gsub.data() + static_cast<std::int64_t>(r) * s_out;
      for (std::int64_t i = 0; i < s_out; ++i) dst[i] = w * gy[i];
    }
    Tensor dsub = modules_[m]->backward(gsub);
    NEBULA_CHECK(dsub.numel() ==
                 static_cast<std::int64_t>(samples.size()) * s_in);
    // Scatter-add input gradients.
    for (std::size_t r = 0; r < samples.size(); ++r) {
      const float* src = dsub.data() + static_cast<std::int64_t>(r) * s_in;
      float* dst = dx.data() + samples[r].sample * s_in;
      for (std::int64_t i = 0; i < s_in; ++i) dst[i] += src[i];
    }
    if (!want_gate_grad) continue;
    // Gate gradient: dL/dg_j = <dy_b, f_j(x_b) − y_b> / mass_b.
    for (std::size_t r = 0; r < samples.size(); ++r) {
      const std::int64_t b = samples[r].sample;
      const float* gy = grad_out.data() + b * s_out;
      const float* fj = mout.data() + static_cast<std::int64_t>(r) * s_out;
      const float* yb = combined_output_.data() + b * s_out;
      double acc = 0.0;
      for (std::int64_t i = 0; i < s_out; ++i) {
        acc += static_cast<double>(gy[i]) * (fj[i] - yb[i]);
      }
      gate_grad_.data()[b * full_width_ + global_ids_[m]] = static_cast<float>(
          acc / gate_mass_[static_cast<std::size_t>(b)]);
    }
  }

  gate_mass_.clear();
  module_outputs_.clear();
  combined_output_ = Tensor{};
  return dx;
}

std::vector<Param*> ModuleLayer::params() {
  std::vector<Param*> all;
  for (auto& m : modules_) {
    for (Param* p : m->params()) all.push_back(p);
  }
  return all;
}

std::vector<Tensor*> ModuleLayer::buffers() {
  std::vector<Tensor*> all;
  for (auto& m : modules_) {
    for (Tensor* b : m->buffers()) all.push_back(b);
  }
  return all;
}

}  // namespace nebula
