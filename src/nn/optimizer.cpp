#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace nebula {

Sgd::Sgd(std::vector<Param*> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params), lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  if (momentum_ != 0.0f) {
    velocity_.reserve(params_.size());
    for (Param* p : params_) velocity_.push_back(p->value.zeros_like());
  }
}

void Sgd::step() {
  // Locals, not members, in the loops: a store through float* may alias a
  // member, which would force a reload per element and keep the loops scalar.
  const float lr = lr_, momentum = momentum_, weight_decay = weight_decay_;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    float* w = p->value.data();
    const float* g = p->grad.data();
    const std::int64_t n = p->value.numel();
    if (momentum != 0.0f) {
      float* v = velocity_[k].data();
      for (std::int64_t i = 0; i < n; ++i) {
        v[i] = momentum * v[i] + g[i] + weight_decay * w[i];
        w[i] -= lr * v[i];
      }
    } else {
      for (std::int64_t i = 0; i < n; ++i) {
        w[i] -= lr * (g[i] + weight_decay * w[i]);
      }
    }
  }
}

Adam::Adam(std::vector<Param*> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params), lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.push_back(p->value.zeros_like());
    v_.push_back(p->value.zeros_like());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* m = m_[k].data();
    float* v = v_[k].data();
    const std::int64_t n = p->value.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
      const float mh = m[i] / bc1;
      const float vh = v[i] / bc2;
      w[i] -= lr_ * mh / (std::sqrt(vh) + eps_);
    }
  }
}

void clip_grad_norm(const std::vector<Param*>& params, float max_norm) {
  NEBULA_CHECK(max_norm > 0.0f);
  double total = 0.0;
  for (Param* p : params) {
    const float* g = p->grad.data();
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm <= max_norm) return;
  const float scale = max_norm / (norm + 1e-12f);
  for (Param* p : params) {
    float* g = p->grad.data();
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) g[i] *= scale;
  }
}

}  // namespace nebula
