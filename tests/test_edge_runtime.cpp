// EdgeRuntime tests: execution-plan ladders, deadline-driven plan selection
// under contention, and plan-restricted inference (§5.1 runtime adjustment).
#include <gtest/gtest.h>

#include "core/edge_runtime.h"
#include "core/model_zoo.h"
#include "nn/init.h"

namespace nebula {
namespace {

struct RuntimeFixture : public ::testing::Test {
  void SetUp() override {
    ZooOptions opts;
    opts.modules_per_layer = 6;
    opts.init_seed = 808;
    zm_ = make_modular(TaskModel::kMlpHar, {16}, 4, opts);
    // Resident sub-model: modules {0, 1, 2, 5} of the only layer.
    SubmodelSpec spec;
    spec.modules = {{0, 1, 2, 5}};
    submodel_ = zm_->model->derive_submodel(spec);
    importance_ = {{0.30, 0.25, 0.20, 0.05, 0.05, 0.15}};
  }

  EdgeRuntime make_runtime(DeviceProfile profile = DeviceProfile::jetson_nano()) {
    return EdgeRuntime(submodel_->clone(), importance_, profile, 16, 2);
  }

  std::optional<ZooModel> zm_;
  std::unique_ptr<ModularModel> submodel_;
  std::vector<std::vector<double>> importance_;
};

TEST_F(RuntimeFixture, PlanLadderShrinksMonotonically) {
  auto rt = make_runtime();
  const auto& plans = rt.plans();
  ASSERT_GE(plans.size(), 2u);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i].params, plans[i - 1].params);
    EXPECT_LE(plans[i].spec.total_modules(),
              plans[i - 1].spec.total_modules());
  }
  // Latency is an *expected-routing* estimate (mean module cost x k), so it
  // need not fall at every rung, but the cheapest plan must undercut the
  // full one.
  EXPECT_LE(plans.back().est_latency_ms, plans.front().est_latency_ms + 1e-9);
  // The largest plan is the full resident sub-model.
  EXPECT_EQ(plans[0].spec.total_modules(), 4);
  // Every plan keeps at least one module per layer.
  for (const auto& p : plans) {
    for (const auto& layer : p.spec.modules) EXPECT_GE(layer.size(), 1u);
  }
}

TEST_F(RuntimeFixture, DownScalingDropsLeastImportantFirst) {
  auto rt = make_runtime();
  const auto& plans = rt.plans();
  ASSERT_GE(plans.size(), 2u);
  // Module 5 (importance 0.15) outranks module 2 (0.20)? No: order is
  // 0 (.30), 1 (.25), 2 (.20), 5 (.15) — so the second plan drops id 5.
  const auto& second = plans[1].spec.modules[0];
  EXPECT_EQ(second, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST_F(RuntimeFixture, GenerousDeadlinePicksLargestPlan) {
  auto rt = make_runtime();
  RuntimeMonitor idle(0);
  EXPECT_EQ(rt.select_plan(1e9, idle), 0u);
}

TEST_F(RuntimeFixture, ContentionForcesSmallerPlan) {
  auto rt = make_runtime(DeviceProfile::raspberry_pi());
  RuntimeMonitor idle(0), busy(3);
  // Deadline chosen between the idle and contended latency of plan 0.
  rt.select_plan(1e9, idle);
  const double idle_lat = rt.active_latency_ms(idle);
  const double deadline = idle_lat * 2.0;  // fine when idle…
  EXPECT_EQ(rt.select_plan(deadline, idle), 0u);
  // …under 3 co-running processes (5.06x) the runtime must down-scale.
  const std::size_t contended = rt.select_plan(deadline, busy);
  EXPECT_GT(contended, 0u);
}

TEST_F(RuntimeFixture, ImpossibleDeadlineFallsBackToSmallest) {
  auto rt = make_runtime(DeviceProfile::raspberry_pi());
  RuntimeMonitor busy(3);
  const std::size_t plan = rt.select_plan(1e-9, busy);
  EXPECT_EQ(plan, rt.plans().size() - 1);
}

TEST_F(RuntimeFixture, InferRunsUnderEveryPlan) {
  auto rt = make_runtime();
  Rng rng(1);
  Tensor x({4, 16});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  RuntimeMonitor idle(0);
  for (std::size_t p = 0; p < rt.plans().size(); ++p) {
    rt.select_plan(p == 0 ? 1e9 : rt.plans()[p].est_latency_ms * 1.01, idle);
    Tensor y = rt.infer(x, *zm_->selector);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{4, 4}));
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      EXPECT_TRUE(std::isfinite(y[static_cast<std::size_t>(i)]));
    }
  }
}

TEST_F(RuntimeFixture, InvalidInputsThrow) {
  EXPECT_THROW(EdgeRuntime(nullptr, importance_,
                           DeviceProfile::jetson_nano()),
               std::runtime_error);
  std::vector<std::vector<double>> wrong;  // no layers
  EXPECT_THROW(EdgeRuntime(submodel_->clone(), wrong,
                           DeviceProfile::jetson_nano()),
               std::runtime_error);
  auto rt = make_runtime();
  RuntimeMonitor idle(0);
  EXPECT_THROW(rt.select_plan(0.0, idle), std::runtime_error);
}

}  // namespace
}  // namespace nebula
