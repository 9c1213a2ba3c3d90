#include "core/gating.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace nebula {

namespace {

/// One thread's gate memo entry: a table and the exact bytes it was
/// computed from (DESIGN.md §12).
struct GateMemo {
  std::int64_t rows = 0, embed_dim = 0;
  std::vector<std::int64_t> widths;
  float explore_eps = 0.0f;
  std::string kernel;
  std::vector<float> input, params;
  std::shared_ptr<const std::vector<Tensor>> probs;
};

thread_local GateMemo t_gate_memo;

bool same_bytes(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

}  // namespace

ModuleSelector::ModuleSelector(std::int64_t input_dim, std::int64_t embed_dim,
                               std::vector<std::int64_t> layer_widths,
                               float explore_eps)
    : input_dim_(input_dim),
      embed_dim_(embed_dim),
      layer_widths_(std::move(layer_widths)),
      explore_eps_(explore_eps) {
  NEBULA_CHECK(input_dim > 0 && embed_dim > 0 && !layer_widths_.empty());
  NEBULA_CHECK(explore_eps >= 0.0f && explore_eps < 1.0f);
  embed_.emplace<Linear>(input_dim, embed_dim);
  embed_.emplace<ReLU>();
  embed_.emplace<Linear>(embed_dim, embed_dim);
  embed_.emplace<ReLU>();
  heads_.reserve(layer_widths_.size());
  for (std::int64_t n : layer_widths_) {
    NEBULA_CHECK(n > 0);
    heads_.push_back(std::make_unique<Linear>(embed_dim, n));
  }
}

GateResult ModuleSelector::forward(const Tensor& x_flat, bool train) {
  NEBULA_CHECK_MSG(x_flat.rank() == 2 && x_flat.dim(1) == input_dim_,
                   "selector expects flattened input (B, " << input_dim_
                                                           << ")");
  NEBULA_SPAN("selector.forward");
  static obs::Counter& m_fwd = obs::counter("selector.forwards");
  m_fwd.add(1);
  Tensor h = embed_.forward(x_flat, train);
  GateResult out;
  out.logits.reserve(heads_.size());
  out.probs.reserve(heads_.size());
  if (train) cached_softmax_.clear();
  for (auto& head : heads_) {
    Tensor logits = head->forward(h, train);
    Tensor p = softmax_rows(logits);
    if (train) cached_softmax_.push_back(p);
    if (explore_eps_ > 0.0f) {
      const std::int64_t n = p.dim(1);
      const float floor = explore_eps_ / static_cast<float>(n);
      float* pd = p.data();
      for (std::int64_t i = 0; i < p.numel(); ++i) {
        pd[i] = (1.0f - explore_eps_) * pd[i] + floor;
      }
    }
    out.probs.push_back(std::move(p));
    out.logits.push_back(std::move(logits));
  }
  if (train) cached_embedding_ = h;
  return out;
}

void ModuleSelector::backward(const std::vector<Tensor>& grad_probs,
                              const std::vector<Tensor>& grad_logits) {
  NEBULA_CHECK_MSG(!cached_softmax_.empty(),
                   "selector backward without forward(train=true)");
  NEBULA_CHECK(grad_probs.size() == heads_.size());
  NEBULA_CHECK(grad_logits.empty() || grad_logits.size() == heads_.size());
  Tensor dh({cached_embedding_.dim(0), embed_dim_});
  // Gradients arrive with respect to the mixed probs; the uniform floor is
  // constant, so d(mixed)/d(softmax) = (1-ε).
  const float mix_scale = 1.0f - explore_eps_;
  for (std::size_t l = 0; l < heads_.size(); ++l) {
    const Tensor& p = cached_softmax_[l];
    const std::int64_t b = p.dim(0), n = p.dim(1);
    Tensor dlogits({b, n});
    if (!grad_probs[l].empty()) {
      NEBULA_CHECK(grad_probs[l].dim(0) == b && grad_probs[l].dim(1) == n);
      // Softmax Jacobian: dlogit_i = p_i (g_i − Σ_j g_j p_j).
      for (std::int64_t r = 0; r < b; ++r) {
        const float* pr = p.data() + r * n;
        const float* gr = grad_probs[l].data() + r * n;
        float dotgp = 0.0f;
        for (std::int64_t i = 0; i < n; ++i) dotgp += gr[i] * pr[i];
        float* dl = dlogits.data() + r * n;
        for (std::int64_t i = 0; i < n; ++i) {
          dl[i] = mix_scale * pr[i] * (gr[i] - dotgp);
        }
      }
    }
    if (!grad_logits.empty() && !grad_logits[l].empty()) {
      NEBULA_CHECK(grad_logits[l].numel() == dlogits.numel());
      add_inplace(dlogits, grad_logits[l]);
    }
    Tensor dh_l = heads_[l]->backward(dlogits);
    add_inplace(dh, dh_l);
  }
  // Nothing reads dL/d(input): the embedding's first Linear skips its dx.
  embed_.backward_params(dh);
  cached_softmax_.clear();
}

std::vector<Param*> ModuleSelector::params() {
  std::vector<Param*> all = embed_.params();
  for (auto& head : heads_) {
    for (Param* p : head->params()) all.push_back(p);
  }
  return all;
}

std::vector<float> ModuleSelector::state() {
  std::vector<float> out;
  for (Param* p : params()) {
    const auto& s = p->value.storage();
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

void ModuleSelector::set_state(const std::vector<float>& state) {
  NEBULA_CHECK_MSG(static_cast<std::int64_t>(state.size()) == state_size(),
                   "selector state size mismatch");
  std::size_t off = 0;
  for (Param* p : params()) {
    auto& s = p->value.storage();
    std::copy(state.begin() + static_cast<std::ptrdiff_t>(off),
              state.begin() + static_cast<std::ptrdiff_t>(off + s.size()),
              s.begin());
    off += s.size();
  }
}

std::int64_t ModuleSelector::state_size() {
  std::int64_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

std::shared_ptr<const std::vector<Tensor>> ModuleSelector::gate_table(
    const Tensor& x_flat) {
  NEBULA_CHECK_MSG(x_flat.rank() == 2 && x_flat.dim(1) == input_dim_,
                   "selector expects flattened input (B, " << input_dim_
                                                           << ")");
  GateMemo& memo = t_gate_memo;
  const std::vector<Param*> ps = params();
  const std::size_t n_in = static_cast<std::size_t>(x_flat.numel());
  bool hit = memo.probs != nullptr && memo.rows == x_flat.dim(0) &&
             memo.embed_dim == embed_dim_ && memo.widths == layer_widths_ &&
             memo.explore_eps == explore_eps_ &&
             memo.kernel == gemm_kernel_name() &&
             memo.input.size() == n_in &&
             same_bytes(memo.input.data(), x_flat.data(), n_in);
  std::size_t off = 0;
  for (std::size_t i = 0; hit && i < ps.size(); ++i) {
    const std::vector<float>& v = ps[i]->value.storage();
    hit = off + v.size() <= memo.params.size() &&
          same_bytes(memo.params.data() + off, v.data(), v.size());
    off += v.size();
  }
  if (hit && off == memo.params.size()) return memo.probs;

  // Emptied first, so a throwing forward leaves no table behind a key it
  // was not computed from.
  memo.probs.reset();
  auto probs = std::make_shared<const std::vector<Tensor>>(
      forward(x_flat, /*train=*/false).probs);
  memo.rows = x_flat.dim(0);
  memo.embed_dim = embed_dim_;
  memo.widths = layer_widths_;
  memo.explore_eps = explore_eps_;
  memo.kernel = gemm_kernel_name();
  memo.input.assign(x_flat.data(), x_flat.data() + n_in);
  memo.params.clear();
  for (Param* p : ps) {
    const std::vector<float>& v = p->value.storage();
    memo.params.insert(memo.params.end(), v.begin(), v.end());
  }
  memo.probs = probs;
  return probs;
}

bool ModuleSelector::gemm_paths_match(std::int64_t rows_a,
                                      std::int64_t rows_b) const {
  auto same = [&](std::int64_t n, std::int64_t k) {
    return gemm_runs_naive(rows_a, n, k) == gemm_runs_naive(rows_b, n, k);
  };
  // forward()'s products: the two embedding Linears, then one per head.
  if (!same(embed_dim_, input_dim_) || !same(embed_dim_, embed_dim_)) {
    return false;
  }
  for (std::int64_t w : layer_widths_) {
    if (!same(w, embed_dim_)) return false;
  }
  return true;
}

std::vector<std::vector<double>> ModuleSelector::importance(
    const Tensor& x_flat) {
  const std::shared_ptr<const std::vector<Tensor>> table = gate_table(x_flat);
  std::vector<std::vector<double>> imp(heads_.size());
  const std::int64_t b = x_flat.dim(0);
  NEBULA_CHECK(b > 0);
  for (std::size_t l = 0; l < heads_.size(); ++l) {
    const Tensor& p = (*table)[l];
    const std::int64_t n = p.dim(1);
    imp[l].assign(static_cast<std::size_t>(n), 0.0);
    for (std::int64_t r = 0; r < b; ++r) {
      for (std::int64_t i = 0; i < n; ++i) {
        imp[l][static_cast<std::size_t>(i)] += p.data()[r * n + i];
      }
    }
    for (auto& v : imp[l]) v /= static_cast<double>(b);
  }
  return imp;
}

float load_balance_loss(const Tensor& probs, Tensor* grad) {
  NEBULA_CHECK(probs.rank() == 2);
  const std::int64_t b = probs.dim(0), n = probs.dim(1);
  NEBULA_CHECK(b > 0 && n > 0);
  std::vector<double> imp(static_cast<std::size_t>(n), 0.0);
  for (std::int64_t r = 0; r < b; ++r) {
    for (std::int64_t i = 0; i < n; ++i) {
      imp[static_cast<std::size_t>(i)] += probs.data()[r * n + i];
    }
  }
  double s = 0.0, q = 0.0;
  for (double v : imp) {
    s += v;
    q += v * v;
  }
  // Rows of `probs` sum to 1, so s == b > 0.
  const double nn = static_cast<double>(n);
  const float loss = static_cast<float>(nn * q / (s * s) - 1.0);
  static obs::Gauge& m_lb = obs::gauge("selector.load_balance_loss");
  m_lb.set(loss);
  if (grad != nullptr) {
    NEBULA_CHECK(grad->dim(0) == b && grad->dim(1) == n);
    // dL/dimp_i = 2N (imp_i s − q) / s³ ; dimp_i/dprobs[b,i] = 1.
    std::vector<float> dimp(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      dimp[static_cast<std::size_t>(i)] = static_cast<float>(
          2.0 * nn * (imp[static_cast<std::size_t>(i)] * s - q) / (s * s * s));
    }
    for (std::int64_t r = 0; r < b; ++r) {
      for (std::int64_t i = 0; i < n; ++i) {
        grad->data()[r * n + i] = dimp[static_cast<std::size_t>(i)];
      }
    }
  }
  return loss;
}

std::vector<SelectorRoutingStats> selector_routing_stats(
    ModuleSelector& selector, const Tensor& x_flat, std::int64_t top_k) {
  NEBULA_SPAN("selector.routing_stats");
  GateResult gates = selector.forward(x_flat, /*train=*/false);
  const std::int64_t b = x_flat.dim(0);
  NEBULA_CHECK(b > 0);
  std::vector<SelectorRoutingStats> out(selector.num_layers());
  std::vector<std::int64_t> top;
  for (std::size_t l = 0; l < selector.num_layers(); ++l) {
    const Tensor& p = gates.probs[l];
    const std::int64_t n = p.dim(1);
    const std::int64_t k = std::clamp<std::int64_t>(top_k, 1, n);
    std::vector<double> soft(static_cast<std::size_t>(n), 0.0);
    std::vector<double> slots(static_cast<std::size_t>(n), 0.0);
    for (std::int64_t r = 0; r < b; ++r) {
      const float* row = p.data() + r * n;
      for (std::int64_t i = 0; i < n; ++i) {
        soft[static_cast<std::size_t>(i)] += row[i];
      }
      topk_indices(row, n, k, top);
      for (std::int64_t i : top) slots[static_cast<std::size_t>(i)] += 1.0;
    }
    out[l].soft = obs::routing_stats(soft);
    out[l].topk = obs::routing_stats(slots);
  }
  return out;
}

}  // namespace nebula
