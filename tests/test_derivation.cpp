// Personalized sub-model derivation tests (§5.1).
#include <gtest/gtest.h>

#include "core/derivation.h"
#include "core/model_zoo.h"

namespace nebula {
namespace {

SubmodelDerivation make_derivation(std::int64_t modules_per_layer = 6) {
  ZooOptions opts;
  opts.modules_per_layer = modules_per_layer;
  opts.init_seed = 404;
  auto zm = make_modular(TaskModel::kMlpHar, {16}, 4, opts);
  return SubmodelDerivation(zm.model->module_costs(),
                            zm.model->shared_cost());
}

DerivationRequest uniform_request(const SubmodelDerivation& der,
                                  std::size_t layers, std::size_t width,
                                  double fraction) {
  DerivationRequest req;
  req.importance.assign(layers, std::vector<double>(width, 1.0 / width));
  req.budgets = der.budget_fraction(fraction);
  return req;
}

TEST(Derivation, ReferenceCostBelowUnionCost) {
  auto der = make_derivation();
  auto ref = der.reference_cost();
  auto full = der.full_cost();
  for (std::size_t j = 0; j < kResourceDims; ++j) {
    EXPECT_LT(ref[j], full[j]);
    EXPECT_GT(ref[j], 0.0);
  }
}

TEST(Derivation, EveryLayerGetsAtLeastOneModule) {
  auto der = make_derivation();
  auto req = uniform_request(der, 1, 6, 0.3);
  auto res = der.derive(req);
  ASSERT_EQ(res.spec.modules.size(), 1u);
  EXPECT_GE(res.spec.modules[0].size(), 1u);
}

TEST(Derivation, LargerBudgetPicksMoreImportance) {
  auto der = make_derivation();
  ZooOptions opts;
  Rng rng(1);
  DerivationRequest small = uniform_request(der, 1, 6, 0.3);
  DerivationRequest big = uniform_request(der, 1, 6, 1.0);
  // Distinct importances so selection order is meaningful.
  for (std::size_t i = 0; i < 6; ++i) {
    small.importance[0][i] = big.importance[0][i] = 0.1 + 0.1 * i;
  }
  auto res_small = der.derive(small);
  auto res_big = der.derive(big);
  EXPECT_LE(res_small.spec.total_modules(), res_big.spec.total_modules());
  EXPECT_LE(res_small.total_importance, res_big.total_importance + 1e-12);
}

TEST(Derivation, MostImportantModuleIsSeeded) {
  auto der = make_derivation();
  DerivationRequest req = uniform_request(der, 1, 6, 0.6);
  req.importance[0] = {0.01, 0.01, 0.01, 0.9, 0.03, 0.04};
  auto res = der.derive(req);
  // Module 3 dominates importance and fits the budget: it must be seeded.
  bool found = false;
  for (auto id : res.spec.modules[0]) found |= (id == 3);
  EXPECT_TRUE(found);
}

TEST(Derivation, SeedFallsBackWhenImportantModuleTooBig) {
  auto der = make_derivation();
  // Budget so tight only the smallest modules fit; the 0.9-importance
  // module 0 (full width) must be skipped in favour of a fitting one.
  DerivationRequest req = uniform_request(der, 1, 6, 0.05);
  req.importance[0] = {0.9, 0.02, 0.02, 0.02, 0.02, 0.02};
  auto res = der.derive(req);
  EXPECT_GE(res.spec.modules[0].size(), 1u);
  EXPECT_TRUE(res.within_budget);
}

TEST(Derivation, UsageStaysWithinBudget) {
  auto der = make_derivation();
  for (double frac : {0.4, 0.6, 0.9}) {
    auto req = uniform_request(der, 1, 6, frac);
    auto res = der.derive(req);
    EXPECT_TRUE(res.within_budget) << "fraction " << frac;
    for (std::size_t j = 0; j < kResourceDims; ++j) {
      EXPECT_LE(res.used[j], req.budgets[j] + 1e-9);
    }
  }
}

TEST(Derivation, BudgetBelowSharedCostFlagsInfeasible) {
  auto der = make_derivation();
  DerivationRequest req;
  req.importance.assign(1, std::vector<double>(6, 1.0 / 6));
  // Absolute budgets smaller than the always-present shared components.
  const auto shared_mb = der.shared_cost().comm_mb;
  req.budgets = {shared_mb * 0.5, 1e9, 1e9};
  auto res = der.derive(req);
  EXPECT_GE(res.spec.modules[0].size(), 1u);  // coverage floor regardless
  EXPECT_FALSE(res.within_budget);
}

TEST(Derivation, ImportanceWidthMismatchThrows) {
  auto der = make_derivation();
  DerivationRequest req = uniform_request(der, 1, 5, 0.5);  // wrong width
  EXPECT_THROW(der.derive(req), std::runtime_error);
}

TEST(Derivation, PrefersImportantModulesUnderEqualCost) {
  // All modules same cost: selection should follow importance order.
  std::vector<std::vector<ModuleCost>> costs(1);
  for (int i = 0; i < 4; ++i) {
    ModuleCost c;
    c.params = 100;
    c.comm_mb = 0.1;
    c.comp_gflops = 0.1;
    c.mem_mb = 0.1;
    costs[0].push_back(c);
  }
  ModuleCost shared;
  SubmodelDerivation der(std::move(costs), shared);
  DerivationRequest req;
  req.importance = {{0.4, 0.1, 0.3, 0.2}};
  req.budgets = {0.25, 0.25, 0.25};  // room for two modules
  auto res = der.derive(req);
  ASSERT_EQ(res.spec.modules[0].size(), 2u);
  EXPECT_EQ(res.spec.modules[0][0], 0);  // top importance
  EXPECT_EQ(res.spec.modules[0][2 - 1], 2);
}

TEST(Derivation, DerivedSpecBuildsRunnableSubmodel) {
  ZooOptions opts;
  opts.modules_per_layer = 6;
  opts.init_seed = 405;
  auto zm = make_modular(TaskModel::kMlpHar, {16}, 4, opts);
  SubmodelDerivation der(zm.model->module_costs(), zm.model->shared_cost());
  DerivationRequest req = uniform_request(der, 1, 6, 0.5);
  auto res = der.derive(req);
  auto sub = zm.model->derive_submodel(res.spec);
  Rng rng(2);
  Tensor x({3, 16});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  GateResult gates = zm.selector->forward(x, false);
  RoutingOpts ropts;
  ropts.top_k = 2;
  Tensor y = sub->forward(x, gates, ropts, false);
  EXPECT_EQ(y.dim(1), 4);
}

}  // namespace
}  // namespace nebula
