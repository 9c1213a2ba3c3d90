// ModularModel tests: composition, sub-model derivation, state transfer,
// cost precomputation, and gate-gradient plumbing.
#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "nn/init.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace nebula {
namespace {

using testutil::fill_random;

ZooModel small_mlp() {
  ZooOptions opts;
  opts.modules_per_layer = 4;
  opts.init_seed = 77;
  return make_modular(TaskModel::kMlpHar, {8}, 3, opts);
}

GateResult eval_gates(ModuleSelector& sel, const Tensor& x_flat) {
  return sel.forward(x_flat, false);
}

TEST(ModularModel, ForwardProducesLogits) {
  auto zm = small_mlp();
  Rng rng(1);
  Tensor x({5, 8});
  fill_random(x, rng);
  GateResult g = eval_gates(*zm.selector, x);
  RoutingOpts opts;
  opts.top_k = 2;
  Tensor y = zm.model->forward(x, g, opts, false);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{5, 3}));
}

TEST(ModularModel, GateGradsProducedOnBackward) {
  auto zm = small_mlp();
  Rng rng(2);
  Tensor x({4, 8});
  fill_random(x, rng);
  GateResult g = zm.selector->forward(x, true);
  RoutingOpts opts;
  opts.top_k = 2;
  Tensor y = zm.model->forward(x, g, opts, true);
  Tensor w(y.shape());
  fill_random(w, rng);
  zm.model->zero_grad();
  zm.model->backward(w);
  ASSERT_EQ(zm.model->gate_grads().size(), 1u);
  EXPECT_GT(max_abs(zm.model->gate_grads()[0]), 0.0f);
}

TEST(ModularModel, BackwardWithoutForwardThrows) {
  auto zm = small_mlp();
  Tensor g({1, 3});
  EXPECT_THROW(zm.model->backward(g), std::runtime_error);
}

TEST(ModularModel, GateWidthMismatchThrows) {
  auto zm = small_mlp();
  Tensor x({2, 8});
  GateResult g;
  g.probs.push_back(Tensor({2, 99}));  // wrong width
  g.logits.push_back(Tensor({2, 99}));
  RoutingOpts opts;
  EXPECT_THROW(zm.model->forward(x, g, opts, false), std::runtime_error);
}

TEST(ModularModel, FullSpecListsAllModules) {
  auto zm = small_mlp();
  auto spec = zm.model->full_spec();
  ASSERT_EQ(spec.modules.size(), 1u);
  EXPECT_EQ(spec.modules[0].size(), 4u);
  EXPECT_EQ(spec.total_modules(), 4);
}

TEST(ModularModel, DeriveSubmodelMatchesCloudOutputs) {
  auto zm = small_mlp();
  SubmodelSpec spec;
  spec.modules = {{0, 2}};
  auto sub = zm.model->derive_submodel(spec);
  Rng rng(3);
  Tensor x({3, 8});
  fill_random(x, rng);
  GateResult g = eval_gates(*zm.selector, x);
  RoutingOpts opts;
  opts.top_k = 2;
  // The sub-model must equal the cloud model restricted to modules {0, 2}:
  // compare against a cloud forward where gates of modules 1, 3 are zeroed.
  Tensor masked = g.probs[0];
  for (std::int64_t r = 0; r < masked.dim(0); ++r) {
    masked.at(r, 1) = 0.0f;
    masked.at(r, 3) = 0.0f;
  }
  GateResult gm;
  gm.probs = {masked};
  gm.logits = g.logits;
  Tensor y_cloud = zm.model->forward(x, gm, opts, false);
  Tensor y_sub = sub->forward(x, g, opts, false);
  testutil::expect_tensor_near(y_cloud, y_sub, 1e-4f);
}

TEST(ModularModel, DeriveRejectsEmptyLayerOrUnknownModule) {
  auto zm = small_mlp();
  SubmodelSpec empty;
  empty.modules = {{}};
  EXPECT_THROW(zm.model->derive_submodel(empty), std::runtime_error);
  SubmodelSpec unknown;
  unknown.modules = {{7}};
  EXPECT_THROW(zm.model->derive_submodel(unknown), std::runtime_error);
}

TEST(ModularModel, ModuleStateRoundTrip) {
  auto zm = small_mlp();
  auto s = zm.model->module_state(0, 1);
  EXPECT_FALSE(s.empty());
  std::vector<float> zeros(s.size(), 0.0f);
  zm.model->set_module_state(0, 1, zeros);
  auto s2 = zm.model->module_state(0, 1);
  for (float v : s2) EXPECT_EQ(v, 0.0f);
  EXPECT_THROW(zm.model->set_module_state(0, 1, std::vector<float>(3)),
               std::runtime_error);
}

TEST(ModularModel, SharedStateRoundTrip) {
  auto zm = small_mlp();
  auto s = zm.model->shared_state();
  EXPECT_FALSE(s.empty());
  auto zm2 = small_mlp();
  zm2.model->set_shared_state(s);
  testutil::expect_tensor_near(
      Tensor({static_cast<std::int64_t>(s.size())}, zm2.model->shared_state()),
      Tensor({static_cast<std::int64_t>(s.size())}, s));
}

TEST(ModularModel, CloneIsIndependent) {
  auto zm = small_mlp();
  auto copy = zm.model->clone();
  Rng rng(4);
  Tensor x({2, 8});
  fill_random(x, rng);
  GateResult g = eval_gates(*zm.selector, x);
  RoutingOpts opts;
  opts.top_k = 2;
  Tensor y1 = zm.model->forward(x, g, opts, false);
  Tensor y2 = copy->forward(x, g, opts, false);
  testutil::expect_tensor_near(y1, y2, 1e-5f);
  // Zeroing the copy's modules must not change the original.
  for (std::int64_t i = 0; i < 4; ++i) {
    auto s = copy->module_state(0, i);
    std::fill(s.begin(), s.end(), 0.0f);
    copy->set_module_state(0, i, s);
  }
  Tensor y3 = zm.model->forward(x, g, opts, false);
  testutil::expect_tensor_near(y1, y3, 1e-5f);
}

TEST(ModularModel, ModuleCostsOrderedByWidth) {
  auto zm = small_mlp();
  auto costs = zm.model->module_costs();
  ASSERT_EQ(costs.size(), 1u);
  ASSERT_EQ(costs[0].size(), 4u);
  // Fraction cycle is {1.0, 0.75, 0.5} + identity: params must decrease.
  EXPECT_GT(costs[0][0].params, costs[0][1].params);
  EXPECT_GT(costs[0][1].params, costs[0][2].params);
  EXPECT_EQ(costs[0][3].params, 0);  // identity module
  for (const auto& c : costs[0]) {
    EXPECT_GE(c.comm_mb, 0.0);
    EXPECT_GE(c.comp_gflops, 0.0);
    EXPECT_GE(c.mem_mb, 0.0);
  }
}

TEST(ModularModel, SharedCostCoversStemAndHead) {
  auto zm = small_mlp();
  auto c = zm.model->shared_cost();
  // Stem Linear(8,48) + head Linear(48,3): 8*48+48 + 48*3+3.
  EXPECT_EQ(c.params, 8 * 48 + 48 + 48 * 3 + 3);
  EXPECT_GT(c.comp_gflops, 0.0);
}

TEST(ModularModel, SubmodelCostsRejectedOnPartialModel) {
  auto zm = small_mlp();
  SubmodelSpec spec;
  spec.modules = {{0, 1}};
  auto sub = zm.model->derive_submodel(spec);
  EXPECT_THROW(sub->module_costs(), std::runtime_error);
}

class ZooFamilies : public ::testing::TestWithParam<TaskModel> {};

TEST_P(ZooFamilies, BuildForwardBackward) {
  const TaskModel which = GetParam();
  std::vector<std::int64_t> shape;
  std::int64_t classes = 0;
  switch (which) {
    case TaskModel::kMlpHar: shape = {32}; classes = 6; break;
    case TaskModel::kResNet18: shape = {3, 8, 8}; classes = 10; break;
    case TaskModel::kVgg16: shape = {3, 8, 8}; classes = 100; break;
    case TaskModel::kResNet34: shape = {1, 16, 8}; classes = 35; break;
  }
  ZooOptions opts;
  opts.modules_per_layer = 4;  // keep the test fast
  auto zm = make_modular(which, shape, classes, opts);
  Rng rng(5);
  std::vector<std::int64_t> xshape{6};
  xshape.insert(xshape.end(), shape.begin(), shape.end());
  Tensor x(xshape);
  fill_random(x, rng);
  Tensor x_flat = x;
  x_flat.reshape({6, x.numel() / 6});
  GateResult g = zm.selector->forward(x_flat, true);
  RoutingOpts ropts;
  ropts.top_k = 2;
  Tensor y = zm.model->forward(x, g, ropts, true);
  EXPECT_EQ(y.dim(0), 6);
  EXPECT_EQ(y.dim(1), classes);
  zm.model->zero_grad();
  Tensor w(y.shape());
  fill_random(w, rng);
  Tensor dx = zm.model->backward(w);
  EXPECT_EQ(dx.numel(), x.numel());
  // Plain counterparts build and agree on the logits width.
  auto plain = make_plain(which, shape, classes, 1.0);
  Tensor yp = plain->forward(x, false);
  EXPECT_EQ(yp.dim(1), classes);
  // Width-scaled plain models shrink.
  auto plain_half = make_plain(which, shape, classes, 0.5);
  EXPECT_LT(plain_half->num_params(), plain->num_params());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ZooFamilies,
                         ::testing::Values(TaskModel::kMlpHar,
                                           TaskModel::kResNet18,
                                           TaskModel::kVgg16,
                                           TaskModel::kResNet34));

}  // namespace
}  // namespace nebula
