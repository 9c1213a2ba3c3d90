#include "core/train.h"

#include <algorithm>
#include <memory>

#include "tensor/ops.h"

namespace nebula {

namespace {

/// Flattened (B, D) view of a batch for the selector.
Tensor flat_view(const Tensor& batch) {
  Tensor flat = batch;
  const std::int64_t b = batch.dim(0);
  flat.reshape({b, batch.numel() / b});
  return flat;
}

/// The rows `batch_idx` of each layer's gate table, as a batch's probs.
std::vector<Tensor> gather_gate_rows(
    const std::vector<Tensor>& table,
    const std::vector<std::size_t>& batch_idx) {
  std::vector<Tensor> out;
  out.reserve(table.size());
  for (const Tensor& t : table) {
    const std::int64_t n = t.dim(1);
    Tensor rows({static_cast<std::int64_t>(batch_idx.size()), n});
    for (std::size_t r = 0; r < batch_idx.size(); ++r) {
      const float* src = t.data() + static_cast<std::int64_t>(batch_idx[r]) * n;
      std::copy(src, src + n, rows.data() + static_cast<std::int64_t>(r) * n);
    }
    out.push_back(std::move(rows));
  }
  return out;
}

/// Builds per-layer KL target rows for the samples of one batch.
std::vector<Tensor> gather_gate_targets(
    const GateGuidance& guidance, const std::vector<std::size_t>& batch_idx,
    const std::vector<std::int64_t>& layer_widths) {
  const auto& subtasks = *guidance.sample_subtasks;
  std::vector<Tensor> out;
  out.reserve(layer_widths.size());
  for (std::size_t l = 0; l < layer_widths.size(); ++l) {
    const std::int64_t n = layer_widths[l];
    const auto& target = (*guidance.targets)[l];
    Tensor rows({static_cast<std::int64_t>(batch_idx.size()), n});
    for (std::size_t r = 0; r < batch_idx.size(); ++r) {
      const std::int64_t t = subtasks[batch_idx[r]];
      NEBULA_CHECK(t >= 0 &&
                   static_cast<std::size_t>((t + 1) * n) <= target.size());
      std::copy(target.begin() + static_cast<std::ptrdiff_t>(t * n),
                target.begin() + static_cast<std::ptrdiff_t>((t + 1) * n),
                rows.data() + static_cast<std::int64_t>(r) * n);
    }
    out.push_back(std::move(rows));
  }
  return out;
}

}  // namespace

TrainStats train_modular(ModularModel& model, ModuleSelector& selector,
                         const Dataset& data, const TrainConfig& cfg,
                         const GateGuidance* guidance) {
  NEBULA_CHECK_MSG(data.size() > 0, "empty training set");
  if (guidance != nullptr) {
    NEBULA_CHECK(guidance->sample_subtasks != nullptr &&
                 guidance->targets != nullptr);
    NEBULA_CHECK(guidance->sample_subtasks->size() ==
                 static_cast<std::size_t>(data.size()));
    NEBULA_CHECK(guidance->targets->size() == model.num_module_layers());
  }
  Rng rng(cfg.seed);
  Rng route_rng = rng.fork();

  std::vector<Param*> model_params = model.params();
  Sgd model_opt(model_params, cfg.lr, cfg.momentum, cfg.weight_decay);
  std::optional<Sgd> selector_opt;
  std::vector<Param*> selector_params = selector.params();
  if (cfg.train_selector) {
    selector_opt.emplace(selector_params, cfg.lr, cfg.momentum, 0.0f);
  }

  std::vector<std::int64_t> widths(model.full_widths());

  // A frozen selector's gates of a row do not depend on the rest of its
  // batch, so batches read them from the gate memo of the whole set — all
  // but those whose selector GEMMs would take another naive-or-blocked path
  // than the whole-set forward, which round differently (DESIGN.md §12).
  // A short last batch can match only if a full one does.
  const std::int64_t n = data.size();
  auto from_table = [&](std::int64_t rows) {
    return !cfg.train_selector && selector.gemm_paths_match(rows, n);
  };
  std::shared_ptr<const std::vector<Tensor>> table;
  if (from_table(std::min(cfg.batch_size, n))) {
    table = selector.gate_table(data.features);
  }

  TrainStats stats;
  for (std::int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    BatchSampler sampler(data.size(), cfg.batch_size, rng);
    for (auto batch = sampler.next(); !batch.empty(); batch = sampler.next()) {
      Tensor x = data.batch_view(batch);
      const auto labels = data.batch_labels(batch);

      GateResult gates;
      if (table && from_table(static_cast<std::int64_t>(batch.size()))) {
        gates.probs = gather_gate_rows(*table, batch);
      } else {
        gates = selector.forward(flat_view(x), cfg.train_selector);
      }
      RoutingOpts opts;
      opts.top_k = cfg.top_k;
      opts.noise_std = cfg.train_selector ? cfg.noise_std : 0.0f;
      opts.rng = &route_rng;
      opts.gate_grad = cfg.train_selector;

      Tensor logits = model.forward(x, gates, opts, /*train=*/true);
      LossResult ce = softmax_cross_entropy(logits, labels);

      model_opt.zero_grad();
      model.backward_params(ce.grad);

      float balance_loss = 0.0f;
      if (cfg.train_selector) {
        selector_opt->zero_grad();
        // Gate gradients from the task loss flow through the module
        // combination (grad_probs). The load-balance term is applied
        // straight-through at the logits: pushing the batch-mean gate
        // probability toward uniform with gradient λ·N·(imp_i − 1/N)/B.
        // Routing the balance term through the softmax Jacobian instead
        // would vanish exactly for the saturated (dead) modules it is meant
        // to revive.
        const std::vector<Tensor>& grad_probs = model.gate_grads();
        std::vector<Tensor> grad_logits(grad_probs.size());
        for (std::size_t l = 0; l < grad_probs.size(); ++l) {
          balance_loss += load_balance_loss(gates.probs[l], nullptr);
          const Tensor& p = gates.probs[l];
          const std::int64_t b = p.dim(0), n = p.dim(1);
          std::vector<float> imp(static_cast<std::size_t>(n), 0.0f);
          for (std::int64_t r = 0; r < b; ++r) {
            for (std::int64_t i = 0; i < n; ++i) {
              imp[static_cast<std::size_t>(i)] += p.data()[r * n + i];
            }
          }
          Tensor bal({b, n});
          const float inv_b = 1.0f / static_cast<float>(b);
          for (std::int64_t i = 0; i < n; ++i) {
            const float mean_p = imp[static_cast<std::size_t>(i)] * inv_b;
            const float g = cfg.lambda_balance * static_cast<float>(n) *
                            (mean_p - 1.0f / static_cast<float>(n)) * inv_b;
            for (std::int64_t r = 0; r < b; ++r) bal.data()[r * n + i] = g;
          }
          grad_logits[l] = std::move(bal);
        }
        if (guidance != nullptr) {
          auto targets = gather_gate_targets(*guidance, batch, widths);
          for (std::size_t l = 0; l < targets.size(); ++l) {
            LossResult kl = kl_to_target(gates.logits[l], targets[l]);
            axpy(guidance->weight, kl.grad, grad_logits[l]);
          }
        }
        selector.backward(grad_probs, grad_logits);
        clip_grad_norm(selector_params, cfg.grad_clip);
        selector_opt->step();
      }

      clip_grad_norm(model_params, cfg.grad_clip);
      model_opt.step();

      stats.final_loss = ce.loss;
      stats.final_balance_loss = balance_loss;
      ++stats.batches;
    }
  }
  return stats;
}

float evaluate_modular(ModularModel& model, ModuleSelector& selector,
                       const Dataset& data, std::int64_t top_k) {
  NEBULA_CHECK(data.size() > 0);
  constexpr std::int64_t kEvalBatch = 64;
  std::int64_t correct = 0;
  RoutingOpts opts;
  opts.top_k = top_k;
  for (std::int64_t lo = 0; lo < data.size(); lo += kEvalBatch) {
    const std::int64_t hi = std::min(data.size(), lo + kEvalBatch);
    std::vector<std::size_t> idx;
    idx.reserve(static_cast<std::size_t>(hi - lo));
    for (std::int64_t i = lo; i < hi; ++i) {
      idx.push_back(static_cast<std::size_t>(i));
    }
    Tensor x = data.batch_view(idx);
    GateResult gates = selector.forward(flat_view(x), /*train=*/false);
    Tensor logits = model.forward(x, gates, opts, /*train=*/false);
    const auto labels = data.batch_labels(idx);
    for (std::int64_t r = 0; r < logits.dim(0); ++r) {
      if (argmax_row(logits, r) == labels[static_cast<std::size_t>(r)]) {
        ++correct;
      }
    }
  }
  return static_cast<float>(correct) / static_cast<float>(data.size());
}

TrainStats train_plain(Layer& model, const Dataset& data,
                       const TrainConfig& cfg) {
  NEBULA_CHECK_MSG(data.size() > 0, "empty training set");
  Rng rng(cfg.seed);
  std::vector<Param*> params = model.params();
  Sgd opt(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  TrainStats stats;
  for (std::int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    BatchSampler sampler(data.size(), cfg.batch_size, rng);
    for (auto batch = sampler.next(); !batch.empty(); batch = sampler.next()) {
      Tensor x = data.batch_view(batch);
      const auto labels = data.batch_labels(batch);
      Tensor logits = model.forward(x, /*train=*/true);
      LossResult ce = softmax_cross_entropy(logits, labels);
      opt.zero_grad();
      model.backward_params(ce.grad);
      clip_grad_norm(params, cfg.grad_clip);
      opt.step();
      stats.final_loss = ce.loss;
      ++stats.batches;
    }
  }
  return stats;
}

float evaluate_plain(Layer& model, const Dataset& data) {
  NEBULA_CHECK(data.size() > 0);
  constexpr std::int64_t kEvalBatch = 64;
  std::int64_t correct = 0;
  for (std::int64_t lo = 0; lo < data.size(); lo += kEvalBatch) {
    const std::int64_t hi = std::min(data.size(), lo + kEvalBatch);
    std::vector<std::size_t> idx;
    idx.reserve(static_cast<std::size_t>(hi - lo));
    for (std::int64_t i = lo; i < hi; ++i) {
      idx.push_back(static_cast<std::size_t>(i));
    }
    Tensor x = data.batch_view(idx);
    Tensor logits = model.forward(x, /*train=*/false);
    const auto labels = data.batch_labels(idx);
    for (std::int64_t r = 0; r < logits.dim(0); ++r) {
      if (argmax_row(logits, r) == labels[static_cast<std::size_t>(r)]) {
        ++correct;
      }
    }
  }
  return static_cast<float>(correct) / static_cast<float>(data.size());
}

}  // namespace nebula
