// ModuleLayer routing tests: top-k dispatch semantics, weighted combination,
// sub-set (edge) routing, and gradient checks for module parameters and
// gate values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "core/module_layer.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/layers_basic.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace nebula {
namespace {

using testutil::fill_random;
using testutil::ScopedPool;

// Builds a layer of `n` Linear(width->width) modules, no bias for easy math.
std::vector<LayerPtr> linear_modules(std::int64_t n, std::int64_t width) {
  std::vector<LayerPtr> mods;
  for (std::int64_t i = 0; i < n; ++i) {
    mods.push_back(std::make_unique<Linear>(width, width, /*bias=*/false));
  }
  return mods;
}

std::vector<std::int64_t> iota_ids(std::int64_t n) {
  std::vector<std::int64_t> ids(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
  return ids;
}

TEST(ModuleLayer, Top1RoutesToArgmaxModule) {
  init::reseed(301);
  ModuleLayer layer(linear_modules(3, 2), iota_ids(3), 3);
  Tensor x({1, 2}, {1.0f, 2.0f});
  Tensor gates({1, 3}, {0.1f, 0.7f, 0.2f});
  RoutingOpts opts;
  opts.top_k = 1;
  Tensor y = layer.forward(x, gates, opts, false);
  // Expected: module 1 alone, weight renormalised to 1.
  Tensor expect = layer.module(1).forward(x, false);
  testutil::expect_tensor_near(y, expect, 1e-5f);
}

TEST(ModuleLayer, Top2CombinesWithRenormalisedWeights) {
  init::reseed(302);
  ModuleLayer layer(linear_modules(3, 2), iota_ids(3), 3);
  Tensor x({1, 2}, {0.5f, -1.0f});
  Tensor gates({1, 3}, {0.5f, 0.3f, 0.2f});
  RoutingOpts opts;
  opts.top_k = 2;
  Tensor y = layer.forward(x, gates, opts, false);
  Tensor y0 = layer.module(0).forward(x, false);
  Tensor y1 = layer.module(1).forward(x, false);
  const float w0 = 0.5f / 0.8f, w1 = 0.3f / 0.8f;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                w0 * y0[static_cast<std::size_t>(i)] +
                    w1 * y1[static_cast<std::size_t>(i)],
                1e-5);
  }
}

TEST(ModuleLayer, PerSampleRoutingIsIndependent) {
  init::reseed(303);
  ModuleLayer layer(linear_modules(2, 3), iota_ids(2), 2);
  Rng rng(1);
  Tensor x({2, 3});
  fill_random(x, rng);
  Tensor gates({2, 2}, {0.9f, 0.1f, 0.1f, 0.9f});
  RoutingOpts opts;
  opts.top_k = 1;
  Tensor y = layer.forward(x, gates, opts, false);
  // Sample 0 through module 0, sample 1 through module 1.
  Tensor x0 = Tensor({1, 3}, {x[0], x[1], x[2]});
  Tensor x1 = Tensor({1, 3}, {x[3], x[4], x[5]});
  Tensor e0 = layer.module(0).forward(x0, false);
  Tensor e1 = layer.module(1).forward(x1, false);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], e0[static_cast<std::size_t>(i)], 1e-5);
    EXPECT_NEAR(y[static_cast<std::size_t>(3 + i)],
                e1[static_cast<std::size_t>(i)], 1e-5);
  }
}

TEST(ModuleLayer, SubsetRoutingRenormalisesOverAvailable) {
  init::reseed(304);
  // Edge model holding only global modules {0, 2} of a width-3 cloud layer.
  ModuleLayer full(linear_modules(3, 2), iota_ids(3), 3);
  std::vector<LayerPtr> sub_mods;
  sub_mods.push_back(full.module(0).clone());
  sub_mods.push_back(full.module(2).clone());
  ModuleLayer sub(std::move(sub_mods), {0, 2}, 3);

  Tensor x({1, 2}, {1.0f, 1.0f});
  // Gate mass concentrated on the *missing* module 1: available {0, 2} get
  // renormalised.
  Tensor gates({1, 3}, {0.3f, 0.6f, 0.1f});
  RoutingOpts opts;
  opts.top_k = 2;
  Tensor y = sub.forward(x, gates, opts, false);
  Tensor y0 = sub.module(0).forward(x, false);
  Tensor y2 = sub.module(1).forward(x, false);
  const float w0 = 0.3f / 0.4f, w2 = 0.1f / 0.4f;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                w0 * y0[static_cast<std::size_t>(i)] +
                    w2 * y2[static_cast<std::size_t>(i)],
                1e-5);
  }
}

TEST(ModuleLayer, TopKClampedToAvailableModules) {
  init::reseed(305);
  ModuleLayer layer(linear_modules(2, 2), iota_ids(2), 2);
  Tensor x({1, 2}, {1.0f, 0.0f});
  Tensor gates({1, 2}, {0.5f, 0.5f});
  RoutingOpts opts;
  opts.top_k = 8;  // more than available
  EXPECT_NO_THROW(layer.forward(x, gates, opts, false));
}

TEST(ModuleLayer, IdentityModuleSupported) {
  init::reseed(306);
  std::vector<LayerPtr> mods;
  mods.push_back(std::make_unique<Identity>());
  mods.push_back(std::make_unique<Linear>(2, 2, false));
  ModuleLayer layer(std::move(mods), iota_ids(2), 2);
  Tensor x({1, 2}, {3.0f, 4.0f});
  Tensor gates({1, 2}, {1.0f, 0.0f});
  RoutingOpts opts;
  opts.top_k = 1;
  Tensor y = layer.forward(x, gates, opts, false);
  testutil::expect_tensor_near(y, x);
}

TEST(ModuleLayer, NoisyTopKNeedsRng) {
  init::reseed(307);
  ModuleLayer layer(linear_modules(2, 2), iota_ids(2), 2);
  Tensor x({1, 2});
  Tensor gates({1, 2}, {0.5f, 0.5f});
  RoutingOpts opts;
  opts.top_k = 1;
  opts.noise_std = 0.5f;
  EXPECT_THROW(layer.forward(x, gates, opts, true), std::runtime_error);
  Rng rng(1);
  opts.rng = &rng;
  EXPECT_NO_THROW(layer.forward(x, gates, opts, true));
}

TEST(ModuleLayer, BackwardWithoutForwardThrows) {
  init::reseed(308);
  ModuleLayer layer(linear_modules(2, 2), iota_ids(2), 2);
  Tensor g({1, 2});
  EXPECT_THROW(layer.backward(g), std::runtime_error);
}

// Full gradient check through the routed combination: loss = <w, y>.
// Checks module parameter gradients and input gradients numerically.
TEST(ModuleLayer, GradientsMatchNumerical) {
  init::reseed(309);
  ModuleLayer layer(linear_modules(3, 3), iota_ids(3), 3);
  Rng rng(2);
  Tensor x({4, 3});
  fill_random(x, rng);
  Tensor gates({4, 3});
  for (std::int64_t i = 0; i < gates.numel(); ++i) {
    gates[static_cast<std::size_t>(i)] = rng.uniform(0.1f, 1.0f);
  }
  // Normalise rows so they look like selector output.
  for (std::int64_t r = 0; r < 4; ++r) {
    float s = 0.0f;
    for (std::int64_t c = 0; c < 3; ++c) s += gates.at(r, c);
    for (std::int64_t c = 0; c < 3; ++c) gates.at(r, c) /= s;
  }
  RoutingOpts opts;
  opts.top_k = 2;

  Tensor w;
  auto loss_of = [&](const Tensor& xin) {
    Tensor y = layer.forward(xin, gates, opts, true);
    if (w.empty()) {
      Rng wr(3);
      w = Tensor(y.shape());
      fill_random(w, wr);
    }
    return static_cast<double>(dot(y, w));
  };

  loss_of(x);  // initialise w
  for (Param* p : layer.params()) p->grad.zero();
  Tensor y = layer.forward(x, gates, opts, true);
  Tensor dx = layer.backward(w);

  const float eps = 1e-2f;
  // Input gradients.
  for (int c = 0; c < 8; ++c) {
    const std::size_t i = rng.uniform_int(static_cast<std::uint64_t>(x.numel()));
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (loss_of(xp) - loss_of(xm)) / (2 * eps);
    EXPECT_NEAR(dx[i], num, 2e-2 * std::max(1.0, std::fabs(num)));
  }
  // Parameter gradients.
  for (Param* p : layer.params()) {
    for (int c = 0; c < 3; ++c) {
      const std::size_t i =
          rng.uniform_int(static_cast<std::uint64_t>(p->value.numel()));
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double lp = loss_of(x);
      p->value[i] = orig - eps;
      const double lm = loss_of(x);
      p->value[i] = orig;
      const double num = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad[i], num, 2e-2 * std::max(1.0, std::fabs(num)));
    }
  }
}

// Gate gradient check: d<w,y>/d g_j for activated modules, against central
// differences over the gate values (renormalisation included).
TEST(ModuleLayer, GateGradientsMatchNumerical) {
  init::reseed(310);
  ModuleLayer layer(linear_modules(3, 2), iota_ids(3), 3);
  Rng rng(4);
  Tensor x({2, 2});
  fill_random(x, rng);
  Tensor gates({2, 3});
  for (std::int64_t i = 0; i < gates.numel(); ++i) {
    gates[static_cast<std::size_t>(i)] = rng.uniform(0.2f, 1.0f);
  }
  RoutingOpts opts;
  opts.top_k = 2;

  Tensor y0 = layer.forward(x, gates, opts, true);
  Tensor w(y0.shape());
  fill_random(w, rng);

  layer.forward(x, gates, opts, true);
  layer.backward(w);
  Tensor ggrad = layer.gate_grad();

  auto loss_of = [&](const Tensor& g) {
    Tensor y = layer.forward(x, g, opts, true);
    return static_cast<double>(dot(y, w));
  };
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < gates.numel(); ++i) {
    if (ggrad[static_cast<std::size_t>(i)] == 0.0f) continue;  // not activated
    Tensor gp = gates, gm = gates;
    gp[static_cast<std::size_t>(i)] += eps;
    gm[static_cast<std::size_t>(i)] -= eps;
    const double num = (loss_of(gp) - loss_of(gm)) / (2 * eps);
    EXPECT_NEAR(ggrad[static_cast<std::size_t>(i)], num,
                2e-2 * std::max(1.0, std::fabs(num)))
        << "gate grad mismatch at " << i;
  }
}

// A frozen selector reads no gate gradient: with gate_grad off, backward
// returns the same input and parameter gradients bit for bit and leaves
// gate_grad() empty; the default forward still fills it.
TEST(ModuleLayer, GateGradOffKeepsInputAndParamGradients) {
  init::reseed(311);
  ModuleLayer on(linear_modules(4, 3), iota_ids(4), 4);
  ModuleLayer off(linear_modules(4, 3), iota_ids(4), 4);
  for (std::size_t m = 0; m < on.size(); ++m) {
    off.module(m).params()[0]->value = on.module(m).params()[0]->value;
  }
  Rng rng(5);
  Tensor x({6, 3}), gates({6, 4}), gy({6, 3});
  fill_random(x, rng);
  fill_random(gy, rng);
  for (std::int64_t i = 0; i < gates.numel(); ++i) {
    gates[static_cast<std::size_t>(i)] = rng.uniform(0.1f, 1.0f);
  }
  RoutingOpts opts;
  opts.top_k = 2;
  const Tensor y_on = on.forward(x, gates, opts, true);
  opts.gate_grad = false;
  const Tensor y_off = off.forward(x, gates, opts, true);
  ASSERT_EQ(std::memcmp(y_on.data(), y_off.data(),
                        static_cast<std::size_t>(y_on.numel()) * sizeof(float)),
            0);
  const Tensor dx_on = on.backward(gy);
  const Tensor dx_off = off.backward(gy);
  ASSERT_EQ(dx_on.numel(), dx_off.numel());
  EXPECT_EQ(std::memcmp(dx_on.data(), dx_off.data(),
                        static_cast<std::size_t>(dx_on.numel()) * sizeof(float)),
            0);
  const auto p_on = on.params(), p_off = off.params();
  ASSERT_EQ(p_on.size(), p_off.size());
  for (std::size_t i = 0; i < p_on.size(); ++i) {
    EXPECT_EQ(std::memcmp(p_on[i]->grad.data(), p_off[i]->grad.data(),
                          static_cast<std::size_t>(p_on[i]->grad.numel()) *
                              sizeof(float)),
              0)
        << "param " << i;
  }
  EXPECT_EQ(on.gate_grad().shape(), (std::vector<std::int64_t>{6, 4}));
  EXPECT_TRUE(off.gate_grad().empty());
  EXPECT_THROW(off.backward(gy), std::runtime_error);  // one backward per forward
}

TEST(ModuleLayer, ConstructorValidatesIds) {
  EXPECT_THROW(ModuleLayer(linear_modules(2, 2), {0, 5}, 3),
               std::runtime_error);
  EXPECT_THROW(ModuleLayer(linear_modules(2, 2), {0}, 2), std::runtime_error);
  EXPECT_THROW(ModuleLayer({}, {}, 0), std::runtime_error);
}

// Residual modules of varying hidden widths plus an Identity, the shape
// model_zoo builds: MLP blocks (width 24) or ResNet18's 3x3 conv blocks over
// 8 channels at 4x4.
ModuleLayer residual_layer(bool conv) {
  std::vector<LayerPtr> mods;
  for (std::int64_t h : conv ? std::vector<std::int64_t>{8, 4, 6}
                             : std::vector<std::int64_t>{32, 16, 48}) {
    auto seq = std::make_unique<Sequential>();
    if (conv) {
      seq->emplace<Conv2d>(8, h, 3, 1, 1);
      seq->emplace<ReLU>();
      seq->emplace<Conv2d>(h, 8, 3, 1, 1);
    } else {
      seq->emplace<Linear>(24, h);
      seq->emplace<ReLU>();
      seq->emplace<Linear>(h, 24);
    }
    mods.push_back(std::make_unique<Residual>(std::move(seq)));
  }
  mods.push_back(std::make_unique<Identity>());
  return ModuleLayer(std::move(mods), iota_ids(4), 4);
}

// Inference and training run one dispatch path: eval forward equals train
// forward bitwise, and neither depends on the pool size.
TEST(ModuleLayer, EvalForwardBitIdenticalAcrossModesAndPools) {
  init::reseed(311);
  for (const bool conv : {false, true}) {
    ModuleLayer layer = residual_layer(conv);
    for (const std::int64_t batch : {1, 9, 64}) {
      Rng rng(88 + static_cast<std::uint64_t>(batch));
      Tensor x(conv ? std::vector<std::int64_t>{batch, 8, 4, 4}
                    : std::vector<std::int64_t>{batch, 24});
      fill_random(x, rng);
      Tensor gates({batch, 4});
      for (std::int64_t i = 0; i < gates.numel(); ++i) {
        gates[static_cast<std::size_t>(i)] = 0.05f + rng.uniform();
      }
      RoutingOpts opts;
      opts.top_k = 2;
      Tensor want;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ScopedPool scope(threads);
        for (const bool train : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << (conv ? "conv" : "mlp") << " batch=" << batch
                       << " threads=" << threads << " train=" << train);
          Tensor y = layer.forward(x, gates, opts, train);
          if (want.empty()) want = y;
          ASSERT_EQ(y.shape(), want.shape());
          EXPECT_EQ(0, std::memcmp(y.data(), want.data(),
                                   static_cast<std::size_t>(y.numel()) *
                                       sizeof(float)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace nebula
