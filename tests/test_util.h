// Shared test helpers: numerical gradient checking and tensor comparison.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.h"
#include "nn/layer.h"
#include "parallel/thread_pool.h"
#include "tensor/tensor.h"

namespace nebula::testutil {

// Swaps the global pool for the duration of a scope.
class ScopedPool {
 public:
  explicit ScopedPool(std::size_t threads) : pool_(threads) {
    prev_ = ThreadPool::set_global(&pool_);
  }
  ~ScopedPool() { ThreadPool::set_global(prev_); }
  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
  ThreadPool* prev_;
};

inline void fill_random(Tensor& t, Rng& rng, float scale = 1.0f) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[static_cast<std::size_t>(i)] = rng.normal() * scale;
  }
}

inline void expect_tensor_near(const Tensor& a, const Tensor& b,
                               float tol = 1e-5f) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)],
                tol)
        << "at flat index " << i;
  }
}

/// Numerically checks dL/dx of a layer where L = sum(w ⊙ forward(x)) for a
/// fixed random weighting w, comparing backward() against central
/// differences. Also checks parameter gradients.
inline void check_layer_gradients(Layer& layer, const Tensor& x0,
                                  std::uint64_t seed = 123,
                                  float eps = 1e-2f, float tol = 2e-2f) {
  Rng rng(seed);
  // Fixed output weighting makes the scalar loss sensitive to all outputs.
  Tensor y0 = layer.forward(x0, /*train=*/true);
  Tensor w(y0.shape());
  fill_random(w, rng, 1.0f);

  auto loss_of = [&](const Tensor& x) {
    Tensor y = layer.forward(x, /*train=*/true);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(w[static_cast<std::size_t>(i)]) *
             y[static_cast<std::size_t>(i)];
    }
    return acc;
  };

  // Analytic gradients.
  layer.zero_grad();
  layer.forward(x0, true);
  Tensor dx = layer.backward(w);

  // Numerical input gradients on a random subset of coordinates.
  Tensor x = x0;
  const std::int64_t n_checks = std::min<std::int64_t>(x.numel(), 12);
  for (std::int64_t c = 0; c < n_checks; ++c) {
    const std::size_t i = rng.uniform_int(static_cast<std::uint64_t>(x.numel()));
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_of(x);
    x[i] = orig - eps;
    const double lm = loss_of(x);
    x[i] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx[i], num, tol * std::max(1.0, std::fabs(num)))
        << "input grad mismatch at " << i;
  }

  // Numerical parameter gradients.
  for (Param* p : layer.params()) {
    const std::int64_t checks = std::min<std::int64_t>(p->value.numel(), 8);
    for (std::int64_t c = 0; c < checks; ++c) {
      const std::size_t i =
          rng.uniform_int(static_cast<std::uint64_t>(p->value.numel()));
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double lp = loss_of(x0);
      p->value[i] = orig - eps;
      const double lm = loss_of(x0);
      p->value[i] = orig;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], num, tol * std::max(1.0, std::fabs(num)))
          << "param grad mismatch in " << p->name << " at " << i;
    }
  }
}

}  // namespace nebula::testutil
