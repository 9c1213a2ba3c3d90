// Cross-module property tests: invariants that tie the subsystems together.
#include <gtest/gtest.h>

#include "core/aggregation.h"
#include "core/derivation.h"
#include "core/model_zoo.h"
#include "nn/init.h"
#include "nn/state.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace nebula {
namespace {

using testutil::fill_random;

// Aggregating a model's own state back into itself must be a fixed point.
TEST(Invariants, AggregationOfOwnStateIsIdentity) {
  ZooOptions opts;
  opts.modules_per_layer = 5;
  opts.init_seed = 1001;
  auto zm = make_modular(TaskModel::kMlpHar, {8}, 3, opts);
  auto before_shared = zm.model->shared_state();
  auto before_m0 = zm.model->module_state(0, 0);

  auto clone = zm.model->clone();
  EdgeUpdate up = make_edge_update(
      *clone, {std::vector<double>(5, 0.2)}, 100);
  aggregate_module_wise_robust(*zm.model, {up});

  for (std::size_t i = 0; i < before_shared.size(); ++i) {
    EXPECT_FLOAT_EQ(zm.model->shared_state()[i], before_shared[i]);
  }
  for (std::size_t i = 0; i < before_m0.size(); ++i) {
    EXPECT_FLOAT_EQ(zm.model->module_state(0, 0)[i], before_m0[i]);
  }
}

// Module costs published by the cloud must match the parameters actually
// shipped when the sub-model is built.
TEST(Invariants, ModuleCostsMatchDerivedSubmodels) {
  ZooOptions opts;
  opts.modules_per_layer = 6;
  opts.init_seed = 1002;
  auto zm = make_modular(TaskModel::kResNet18, {3, 8, 8}, 10, opts);
  auto costs = zm.model->module_costs();
  const auto shared = zm.model->shared_cost();

  SubmodelSpec spec;
  spec.modules = {{0, 2}, {1}, {3, 4}, {5}};
  auto sub = zm.model->derive_submodel(spec);
  std::int64_t expect_params = shared.params;
  for (std::size_t l = 0; l < spec.modules.size(); ++l) {
    for (std::int64_t gid : spec.modules[l]) {
      expect_params += costs[l][static_cast<std::size_t>(gid)].params;
    }
  }
  EXPECT_EQ(sub->num_params(), expect_params);
}

// A derived sub-model must run identically whether gates are computed before
// or after derivation (the selector is independent of module execution).
TEST(Invariants, SelectorDecoupledFromDerivation) {
  ZooOptions opts;
  opts.modules_per_layer = 6;
  opts.init_seed = 1003;
  auto zm = make_modular(TaskModel::kMlpHar, {12}, 4, opts);
  Rng rng(2);
  Tensor x({5, 12});
  fill_random(x, rng);

  GateResult gates_before = zm.selector->forward(x, false);
  SubmodelSpec spec;
  spec.modules = {{1, 3, 4}};
  auto sub = zm.model->derive_submodel(spec);
  GateResult gates_after = zm.selector->forward(x, false);

  RoutingOpts ropts;
  ropts.top_k = 2;
  Tensor y1 = sub->forward(x, gates_before, ropts, false);
  Tensor y2 = sub->forward(x, gates_after, ropts, false);
  testutil::expect_tensor_near(y1, y2, 1e-6f);
}

// Evaluation must not mutate model state (inference is side-effect free up
// to caches).
TEST(Invariants, EvalDoesNotChangeParameters) {
  ZooOptions opts;
  opts.modules_per_layer = 4;
  opts.init_seed = 1004;
  auto zm = make_modular(TaskModel::kMlpHar, {8}, 3, opts);
  auto shared = zm.model->shared_state();
  auto sel = zm.selector->state();
  Rng rng(3);
  Tensor x({6, 8});
  fill_random(x, rng);
  GateResult gates = zm.selector->forward(x, false);
  RoutingOpts ropts;
  ropts.top_k = 2;
  zm.model->forward(x, gates, ropts, false);
  EXPECT_EQ(zm.model->shared_state(), shared);
  EXPECT_EQ(zm.selector->state(), sel);
}

// Derivation with identical inputs is deterministic.
TEST(Invariants, DerivationDeterministic) {
  ZooOptions opts;
  opts.modules_per_layer = 8;
  opts.init_seed = 1005;
  auto zm = make_modular(TaskModel::kMlpHar, {8}, 3, opts);
  SubmodelDerivation der(zm.model->module_costs(), zm.model->shared_cost());
  DerivationRequest req;
  Rng rng(4);
  req.importance.assign(1, {});
  for (int i = 0; i < 8; ++i) req.importance[0].push_back(rng.uniform());
  req.budgets = der.budget_fraction(0.5);
  auto a = der.derive(req);
  auto b = der.derive(req);
  EXPECT_EQ(a.spec.modules, b.spec.modules);
  EXPECT_DOUBLE_EQ(a.total_importance, b.total_importance);
}

// Deterministic routing: same input, same gates, no noise => same output.
TEST(Invariants, DeterministicRoutingIsReproducible) {
  ZooOptions opts;
  opts.modules_per_layer = 6;
  opts.init_seed = 1006;
  auto zm = make_modular(TaskModel::kResNet18, {3, 8, 8}, 10, opts);
  Rng rng(5);
  Tensor x({3, 3, 8, 8});
  fill_random(x, rng);
  Tensor flat = x;
  flat.reshape({3, 192});
  GateResult g = zm.selector->forward(flat, false);
  RoutingOpts ropts;
  ropts.top_k = 2;
  Tensor y1 = zm.model->forward(x, g, ropts, false);
  Tensor y2 = zm.model->forward(x, g, ropts, false);
  testutil::expect_tensor_near(y1, y2, 0.0f);
}

// Communication accounting: a full round's upload equals the sum of its
// participants' payloads (no hidden traffic).
TEST(Invariants, StateSizesConsistentAcrossTransferPaths) {
  ZooOptions opts;
  opts.modules_per_layer = 5;
  opts.init_seed = 1007;
  auto zm = make_modular(TaskModel::kMlpHar, {8}, 3, opts);
  SubmodelSpec spec;
  spec.modules = {{0, 2, 4}};
  auto sub = zm.model->derive_submodel(spec);
  EdgeUpdate up = make_edge_update(*sub, {std::vector<double>(5, 0.2)}, 10);
  // Payload must equal the sum of the module and shared state sizes the
  // cloud would compute for the same spec.
  std::int64_t floats = static_cast<std::int64_t>(
      zm.model->shared_state().size());
  for (std::int64_t gid : spec.modules[0]) {
    floats += static_cast<std::int64_t>(zm.model->module_state(0, gid).size());
  }
  EXPECT_EQ(up.payload_bytes(), floats * 4);
}

class TopKSweep : public ::testing::TestWithParam<int> {};

// Routing must produce finite outputs and stable shapes for every top-k.
TEST_P(TopKSweep, ForwardFiniteForAllK) {
  ZooOptions opts;
  opts.modules_per_layer = 6;
  opts.init_seed = 1010 + GetParam();
  auto zm = make_modular(TaskModel::kMlpHar, {8}, 3, opts);
  Rng rng(6 + GetParam());
  Tensor x({4, 8});
  fill_random(x, rng);
  GateResult g = zm.selector->forward(x, false);
  RoutingOpts ropts;
  ropts.top_k = GetParam();
  Tensor y = zm.model->forward(x, g, ropts, false);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{4, 3}));
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y[static_cast<std::size_t>(i)]));
  }
}

INSTANTIATE_TEST_SUITE_P(K1to6, TopKSweep, ::testing::Range(1, 7));

}  // namespace
}  // namespace nebula
