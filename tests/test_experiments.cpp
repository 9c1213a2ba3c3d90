// Experiment-harness tests: paper task suite, scale knobs, environment
// construction, and the newer population features (biased views, proxy-
// anchored initial views, view tests).
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "eval/experiments.h"

namespace nebula {
namespace {

TEST(PaperTasks, SevenRowsInPaperOrder) {
  auto tasks = paper_tasks();
  ASSERT_EQ(tasks.size(), 7u);
  EXPECT_EQ(tasks[0].dataset_name, "HAR");
  EXPECT_EQ(tasks[1].partition_name, "2 classes");
  EXPECT_EQ(tasks[2].partition_name, "5 classes");
  EXPECT_EQ(tasks[3].dataset_name, "CIFAR100");
  EXPECT_EQ(tasks[5].dataset_name, "Speech");
  // Paper's parameter settings survive: HAR = feature skew, CIFAR100 uses a
  // gentler pretrain rate for the 100-way head.
  EXPECT_EQ(tasks[0].classes_per_device, 0);
  EXPECT_LT(tasks[3].pretrain_lr, tasks[1].pretrain_lr);
}

TEST(PaperTasks, LookupByName) {
  auto t = task_by_name("CIFAR10", "5 classes");
  EXPECT_EQ(t.model_name, "ResNet18");
  EXPECT_EQ(t.classes_per_device, 5);
  EXPECT_THROW(task_by_name("MNIST", "2 classes"), std::runtime_error);
}

TEST(BenchScaleEnv, DefaultAndScaled) {
  unsetenv("NEBULA_BENCH_SCALE");
  auto s = BenchScale::from_env();
  EXPECT_EQ(s.devices, 60);
  setenv("NEBULA_BENCH_SCALE", "0.5", 1);
  auto half = BenchScale::from_env();
  EXPECT_EQ(half.devices, 30);
  EXPECT_EQ(half.devices_per_round, 5);
  setenv("NEBULA_BENCH_SCALE", "garbage", 1);
  auto bad = BenchScale::from_env();
  EXPECT_EQ(bad.devices, 60);  // invalid -> default
  unsetenv("NEBULA_BENCH_SCALE");
}

TEST(TaskEnv, BuildsConsistentWorld) {
  BenchScale scale;
  scale.devices = 8;
  auto spec = task_by_name("HAR", "1 subject");
  TaskEnv env = make_task_env(spec, scale, 99);
  EXPECT_EQ(env.population->num_devices(), 8);
  EXPECT_EQ(env.profiles.size(), 8u);
  EXPECT_EQ(env.proxy.data.size(), spec.proxy_samples);
  auto plain = env.plain(1.0);
  EXPECT_GT(plain->num_params(), 0);
  auto zm = env.modular();
  EXPECT_EQ(zm.model->num_module_layers(), 1u);  // MLP: 1 module layer
}

TEST(TaskEnv, ModularModelsMatchPaperLayerCounts) {
  BenchScale scale;
  scale.devices = 4;
  // Paper §6.1: MLP 1x16, ResNet18 4x16, VGG16 and ResNet34 3x32.
  struct Expect {
    const char* dataset;
    const char* partition;
    std::size_t layers;
    std::int64_t modules;
  };
  const Expect expects[] = {{"HAR", "1 subject", 1, 16},
                            {"CIFAR10", "2 classes", 4, 16},
                            {"CIFAR100", "10 classes", 3, 32},
                            {"Speech", "5 classes", 3, 32}};
  for (const auto& e : expects) {
    TaskEnv env = make_task_env(task_by_name(e.dataset, e.partition), scale,
                                77);
    auto zm = env.modular();
    EXPECT_EQ(zm.model->num_module_layers(), e.layers) << e.dataset;
    for (std::size_t l = 0; l < zm.model->num_module_layers(); ++l) {
      EXPECT_EQ(zm.model->full_widths()[l], e.modules) << e.dataset;
    }
  }
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(stddev_of({5}), 0.0);
  EXPECT_NEAR(stddev_of({1, 2, 3}), 1.0, 1e-12);
}

TEST(PopulationViews, BiasedViewsAreSubsets) {
  SyntheticGenerator gen(cifar10_like_spec(), 5);
  PartitionConfig pc;
  pc.num_devices = 10;
  pc.classes_per_device = 2;
  pc.clusters_per_device = 2;
  EdgePopulation pop(gen, pc);
  for (std::int64_t k = 0; k < 10; ++k) {
    const auto& view = pop.task(k).cluster_view;
    ASSERT_EQ(view.size(), 2u);
    for (auto c : view) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, gen.spec().clusters_per_class);
    }
  }
}

TEST(PopulationViews, InitialViewsFromProxyRestricted) {
  SyntheticGenerator gen(cifar10_like_spec(), 5);  // proxy_clusters = 2
  PartitionConfig pc;
  pc.num_devices = 20;
  pc.classes_per_device = 2;
  pc.clusters_per_device = 1;
  pc.initial_views_from_proxy = true;
  EdgePopulation pop(gen, pc);
  for (std::int64_t k = 0; k < 20; ++k) {
    for (auto c : pop.task(k).cluster_view) {
      EXPECT_LT(c, gen.spec().proxy_clusters)
          << "device " << k << " starts outside historical conditions";
    }
  }
}

TEST(PopulationViews, ViewSwitchChangesViewNotClasses) {
  SyntheticGenerator gen(cifar10_like_spec(), 6);
  PartitionConfig pc;
  pc.num_devices = 4;
  pc.classes_per_device = 2;
  pc.clusters_per_device = 1;
  pc.context_switch_prob = 0.0f;
  pc.view_switch_prob = 1.0f;
  pc.seed = 8;
  EdgePopulation pop(gen, pc);
  const auto classes_before = pop.task(0).classes;
  // Several shifts: classes must never change (no context switch), the view
  // must change at least once.
  bool view_changed = false;
  auto view_before = pop.task(0).cluster_view;
  for (int i = 0; i < 6; ++i) {
    pop.shift(0);
    EXPECT_EQ(pop.task(0).classes, classes_before);
    if (pop.task(0).cluster_view != view_before) view_changed = true;
  }
  EXPECT_TRUE(view_changed);
}

TEST(PopulationViews, DeviceViewTestDrawsFromView) {
  // With a single-cluster view and large context gains, the view test's
  // samples should differ statistically from the all-cluster test.
  auto spec = cifar10_like_spec();
  spec.cluster_spread = 6.0f;
  SyntheticGenerator gen(spec, 7);
  PartitionConfig pc;
  pc.num_devices = 2;
  pc.classes_per_device = 2;
  pc.clusters_per_device = 1;
  EdgePopulation pop(gen, pc);
  Dataset view_test = pop.device_view_test(0, 300);
  Dataset full_test = pop.device_test(0, 300);
  double mv = 0, mf = 0;
  for (std::int64_t i = 0; i < view_test.features.numel(); ++i) {
    mv += std::abs(view_test.features[static_cast<std::size_t>(i)]);
  }
  for (std::int64_t i = 0; i < full_test.features.numel(); ++i) {
    mf += std::abs(full_test.features[static_cast<std::size_t>(i)]);
  }
  mv /= view_test.features.numel();
  mf /= full_test.features.numel();
  EXPECT_GT(std::abs(mv - mf), 1e-4);
  // Labels stay within the device's classes in both.
  std::set<std::int64_t> allowed(pop.task(0).classes.begin(),
                                 pop.task(0).classes.end());
  for (auto y : view_test.labels) EXPECT_TRUE(allowed.count(y));
}

// ---- run_scenario on a tiny HAR fleet ---------------------------------------

BenchScale tiny_scale() {
  BenchScale s;
  s.devices = 12;
  s.devices_per_round = 6;
  s.warm_rounds = 3;  // 6 rounds per run
  s.eval_devices = 3;
  s.test_samples = 32;
  s.pretrain_epochs = 2;
  return s;
}

ScenarioResult run_tiny(const ScenarioSpec& scenario) {
  const BenchScale scale = tiny_scale();
  TaskEnv env =
      make_task_env(task_by_name("HAR", "1 subject"), scale, /*seed=*/6200);
  return run_scenario(env, scale, scenario, /*seed=*/6300);
}

void expect_well_formed(const ScenarioResult& r, bool dynamics) {
  EXPECT_EQ(r.round_reports.size(),
            static_cast<std::size_t>(2 * tiny_scale().warm_rounds));
  EXPECT_TRUE(r.nebula_finite);
  EXPECT_TRUE(r.fedavg_finite);
  EXPECT_GE(r.nebula_acc, 0.0);
  EXPECT_LE(r.nebula_acc, 1.0);
  if (dynamics) {
    EXPECT_GT(r.churned_devices, 0);
  } else {
    EXPECT_EQ(r.churned_devices, 0);
  }
  // Without the recorder there is nothing to probe or to alert on.
  EXPECT_TRUE(r.probe_accuracy.empty());
  EXPECT_TRUE(r.alerts.empty());
}

TEST(Scenario, CleanFaultRunAggregatesEveryRound) {
  const ScenarioResult r = run_tiny(ScenarioSpec{});
  expect_well_formed(r, /*dynamics=*/false);
  EXPECT_EQ(r.rounds_aggregated, 2 * tiny_scale().warm_rounds);
  EXPECT_EQ(r.updates_dropped, 0);
  EXPECT_EQ(r.updates_rejected, 0);
  EXPECT_EQ(r.transfer_retries, 0);
  EXPECT_GT(r.nebula_goodput_mb, 0.0);
  EXPECT_EQ(r.nebula_overhead_mb, 0.0);
}

TEST(Scenario, ByzantineRunGatesTheCoalition) {
  ScenarioSpec scenario;
  scenario.faults.byzantine_fraction = 0.3;
  scenario.faults.byzantine_kind = ByzantineKind::kSignFlip;
  scenario.faults.num_devices = tiny_scale().devices;
  scenario.faults.seed = 6400;
  scenario.robust.kind = RobustAggregatorKind::kTrimmedMean;
  scenario.robust.anomaly_threshold = 4.0;
  const ScenarioResult r = run_tiny(scenario);
  expect_well_formed(r, /*dynamics=*/false);
  EXPECT_GT(r.robust_rejected, 0);
  EXPECT_GE(r.updates_rejected, r.robust_rejected);
}

TEST(Scenario, DriftOnsetRunChurnsOnlyFromTheOnset) {
  ScenarioSpec scenario;
  scenario.drift_rate = 1.0f;
  scenario.churn_prob = 0.5f;
  scenario.onset_round = tiny_scale().warm_rounds;
  scenario.monitor_dynamics = true;
  const ScenarioResult r = run_tiny(scenario);
  expect_well_formed(r, /*dynamics=*/true);

  // The same spec with the onset past the last round never moves.
  scenario.onset_round = 2 * tiny_scale().warm_rounds;
  expect_well_formed(run_tiny(scenario), /*dynamics=*/false);
}

}  // namespace
}  // namespace nebula
