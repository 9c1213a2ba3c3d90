// Loss-function gradient checks and optimiser convergence tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/layers_basic.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace nebula {
namespace {

using testutil::fill_random;

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits({2, 4});
  auto res = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(res.loss, std::log(4.0f), 1e-5);
}

TEST(CrossEntropy, PerfectPredictionLowLoss) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  auto res = softmax_cross_entropy(logits, {0});
  EXPECT_LT(res.loss, 1e-3f);
}

TEST(CrossEntropy, GradientMatchesNumerical) {
  Rng rng(21);
  Tensor logits({3, 5});
  fill_random(logits, rng, 2.0f);
  std::vector<std::int64_t> labels = {1, 4, 0};
  auto res = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[static_cast<std::size_t>(i)] += eps;
    lm[static_cast<std::size_t>(i)] -= eps;
    const float num = (softmax_cross_entropy(lp, labels).loss -
                       softmax_cross_entropy(lm, labels).loss) /
                      (2 * eps);
    EXPECT_NEAR(res.grad[static_cast<std::size_t>(i)], num, 1e-3);
  }
}

TEST(CrossEntropy, LabelOutOfRangeThrows) {
  Tensor logits({1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::runtime_error);
  EXPECT_THROW(softmax_cross_entropy(logits, {-1}), std::runtime_error);
}

TEST(KlToTarget, ZeroWhenMatched) {
  Tensor logits({1, 3}, {1.0f, 2.0f, 3.0f});
  Tensor target = softmax_rows(logits);
  auto res = kl_to_target(logits, target);
  EXPECT_NEAR(res.loss, 0.0f, 1e-4);
  EXPECT_NEAR(max_abs(res.grad), 0.0f, 1e-5);
}

TEST(KlToTarget, GradientMatchesNumerical) {
  Rng rng(22);
  Tensor logits({2, 4});
  fill_random(logits, rng);
  Tensor raw({2, 4});
  for (std::int64_t i = 0; i < raw.numel(); ++i) {
    raw[static_cast<std::size_t>(i)] = rng.uniform(0.1f, 1.0f);
  }
  Tensor target = softmax_rows(raw);  // a valid distribution
  auto res = kl_to_target(logits, target);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[static_cast<std::size_t>(i)] += eps;
    lm[static_cast<std::size_t>(i)] -= eps;
    const float num =
        (kl_to_target(lp, target).loss - kl_to_target(lm, target).loss) /
        (2 * eps);
    EXPECT_NEAR(res.grad[static_cast<std::size_t>(i)], num, 1e-3);
  }
}

TEST(Mse, ValueAndGradient) {
  Tensor pred({1, 2}, {1.0f, 3.0f});
  Tensor target({1, 2}, {0.0f, 0.0f});
  auto res = mse(pred, target);
  EXPECT_NEAR(res.loss, (1.0f + 9.0f) / 2.0f, 1e-5);
  EXPECT_NEAR(res.grad[0], 2.0f * 1.0f / 2.0f, 1e-5);
  EXPECT_NEAR(res.grad[1], 2.0f * 3.0f / 2.0f, 1e-5);
}

TEST(Accuracy, CountsArgmaxHits) {
  Tensor logits({3, 2}, {2.0f, 1.0f, 0.0f, 5.0f, 1.0f, 0.0f});
  EXPECT_FLOAT_EQ(accuracy(logits, {0, 1, 0}), 1.0f);
  EXPECT_FLOAT_EQ(accuracy(logits, {1, 0, 1}), 0.0f);
  EXPECT_NEAR(accuracy(logits, {0, 0, 0}), 2.0f / 3.0f, 1e-6);
}

// A tiny least-squares problem: fit y = Wx with Linear + MSE.
float fit_linear(Optimizer& opt, Linear& lin, int steps) {
  Rng rng(23);
  Tensor w_true({3, 2}, {1, -1, 2, 0.5f, -0.5f, 1.5f});
  float last = 0.0f;
  for (int s = 0; s < steps; ++s) {
    Tensor x({8, 3});
    testutil::fill_random(x, rng);
    Tensor y_true = matmul(x, w_true);
    Tensor y = lin.forward(x, true);
    auto res = mse(y, y_true);
    opt.zero_grad();
    lin.backward(res.grad);
    opt.step();
    last = res.loss;
  }
  return last;
}

TEST(Sgd, ConvergesOnLeastSquares) {
  Linear lin(3, 2, /*bias=*/false);
  Sgd opt(lin.params(), 0.05f, 0.9f);
  EXPECT_LT(fit_linear(opt, lin, 200), 1e-3f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Linear lin(4, 4, false);
  for (Param* p : lin.params()) p->value.fill(1.0f);
  Sgd opt(lin.params(), 0.1f, 0.0f, /*weight_decay=*/0.5f);
  // No data gradient: decay alone should shrink weights.
  opt.zero_grad();
  opt.step();
  EXPECT_NEAR(lin.weight().value[0], 1.0f - 0.1f * 0.5f, 1e-6);
}

// Sgd::step as it was written before its hyper-parameters were hoisted into
// locals, kept verbatim as the reference.
struct ReferenceSgd {
  std::vector<Param*> params_;
  float lr_, momentum_, weight_decay_;
  std::vector<Tensor> velocity_;

  void step() {
    for (std::size_t k = 0; k < params_.size(); ++k) {
      Param* p = params_[k];
      float* w = p->value.data();
      const float* g = p->grad.data();
      const std::int64_t n = p->value.numel();
      if (momentum_ != 0.0f) {
        float* v = velocity_[k].data();
        for (std::int64_t i = 0; i < n; ++i) {
          v[i] = momentum_ * v[i] + g[i] + weight_decay_ * w[i];
          w[i] -= lr_ * v[i];
        }
      } else {
        for (std::int64_t i = 0; i < n; ++i) {
          w[i] -= lr_ * (g[i] + weight_decay_ * w[i]);
        }
      }
    }
  }
};

TEST(Sgd, StepBitIdenticalToReferenceLoop) {
  const std::int64_t lengths[] = {1, 3, 7, 16, 33, 130, 1025};
  for (const float momentum : {0.0f, 0.9f}) {
    for (const float weight_decay : {0.0f, 5e-4f}) {
      SCOPED_TRACE(testing::Message() << "momentum=" << momentum
                                      << " weight_decay=" << weight_decay);
      Rng rng(31);
      std::vector<Param> got, want;
      for (const std::int64_t n : lengths) {
        got.emplace_back(std::vector<std::int64_t>{n});
        fill_random(got.back().value, rng);
        want.push_back(got.back());
      }
      std::vector<Param*> got_ptrs, want_ptrs;
      for (std::size_t k = 0; k < got.size(); ++k) {
        got_ptrs.push_back(&got[k]);
        want_ptrs.push_back(&want[k]);
      }
      Sgd opt(got_ptrs, 0.03f, momentum, weight_decay);
      ReferenceSgd ref{want_ptrs, 0.03f, momentum, weight_decay, {}};
      if (momentum != 0.0f) {
        for (Param* p : want_ptrs) {
          ref.velocity_.push_back(p->value.zeros_like());
        }
      }
      for (int step = 0; step < 4; ++step) {
        for (std::size_t k = 0; k < got.size(); ++k) {
          fill_random(got[k].grad, rng);
          want[k].grad = got[k].grad;
        }
        opt.step();
        ref.step();
        for (std::size_t k = 0; k < got.size(); ++k) {
          ASSERT_EQ(0, std::memcmp(got[k].value.data(), want[k].value.data(),
                                   static_cast<std::size_t>(
                                       got[k].value.numel()) *
                                       sizeof(float)))
              << "step " << step << " param " << k;
        }
      }
    }
  }
}

TEST(Adam, ConvergesOnLeastSquares) {
  Linear lin(3, 2, false);
  Adam opt(lin.params(), 0.05f);
  EXPECT_LT(fit_linear(opt, lin, 300), 1e-3f);
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Linear lin(2, 2, false);
  for (Param* p : lin.params()) p->grad.fill(10.0f);
  clip_grad_norm(lin.params(), 1.0f);
  double norm = 0.0;
  for (Param* p : lin.params()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      norm += static_cast<double>(p->grad[static_cast<std::size_t>(i)]) *
              p->grad[static_cast<std::size_t>(i)];
    }
  }
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
}

TEST(ClipGradNorm, LeavesSmallGradientsUntouched) {
  Linear lin(2, 2, false);
  for (Param* p : lin.params()) p->grad.fill(0.01f);
  clip_grad_norm(lin.params(), 1.0f);
  EXPECT_FLOAT_EQ(lin.weight().grad[0], 0.01f);
}

}  // namespace
}  // namespace nebula
