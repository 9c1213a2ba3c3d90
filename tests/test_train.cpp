// End-to-end learning tests: the modular model + selector must actually fit
// synthetic tasks, the load-balance loss must keep modules alive, and the
// ability-enhancing pass must produce valid sub-task targets.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ability.h"
#include "core/model_zoo.h"
#include "core/train.h"
#include "data/partition.h"
#include "nn/init.h"

namespace nebula {
namespace {

TEST(TrainModular, LearnsHarLikeTask) {
  SyntheticGenerator gen(har_like_spec(), 42);
  Rng rng(1);
  Dataset train = gen.sample(1500, rng).data;
  Dataset test = gen.sample(400, rng).data;

  ZooOptions opts;
  opts.modules_per_layer = 8;
  auto zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);

  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.lr = 0.05f;
  const float acc_before = evaluate_modular(*zm.model, *zm.selector, test);
  train_modular(*zm.model, *zm.selector, train, cfg);
  const float acc_after = evaluate_modular(*zm.model, *zm.selector, test);
  EXPECT_GT(acc_after, 0.75f) << "before " << acc_before;
  EXPECT_GT(acc_after, acc_before + 0.2f);
}

TEST(TrainModular, ConvModelLearns) {
  SyntheticGenerator gen(cifar10_like_spec(), 43);
  Rng rng(2);
  Dataset train = gen.sample(800, rng).data;
  Dataset test = gen.sample(300, rng).data;

  ZooOptions opts;
  opts.modules_per_layer = 4;
  auto zm = make_modular(TaskModel::kResNet18, {3, 8, 8}, 10, opts);
  TrainConfig cfg;
  cfg.epochs = 4;
  train_modular(*zm.model, *zm.selector, train, cfg);
  EXPECT_GT(evaluate_modular(*zm.model, *zm.selector, test), 0.5f);
}

TEST(TrainModular, LoadBalanceReducesRoutingImbalance) {
  SyntheticGenerator gen(har_like_spec(), 44);
  Rng rng(3);
  Dataset train = gen.sample(1000, rng).data;

  auto run = [&](float lambda) {
    ZooOptions opts;
    opts.modules_per_layer = 8;
    opts.init_seed = 0x5eed;
    auto zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
    TrainConfig cfg;
    cfg.epochs = 4;
    cfg.lambda_balance = lambda;
    train_modular(*zm.model, *zm.selector, train, cfg);
    Tensor x({train.size(), train.feature_dim()}, train.features.storage());
    auto imp = zm.selector->importance(x);
    // CV² of the importance vector and its minimum entry.
    double s = 0.0, q = 0.0, mn = 1.0;
    for (double v : imp[0]) {
      s += v;
      q += v * v;
      mn = std::min(mn, v);
    }
    const double cv2 = 8.0 * q / (s * s) - 1.0;
    return std::make_pair(cv2, mn);
  };

  auto [cv2_on, min_on] = run(0.5f);
  auto [cv2_off, min_off] = run(0.0f);
  (void)min_off;
  EXPECT_LT(cv2_on, 0.5 * cv2_off) << "balance loss did not reduce imbalance";
  // The exploration floor guarantees every module keeps ε/N routing mass.
  EXPECT_GE(min_on, 0.02 / 8.0 * 0.9);
}

TEST(TrainModular, FrozenSelectorStillTrainsModules) {
  SyntheticGenerator gen(har_like_spec(), 45);
  Rng rng(4);
  Dataset train = gen.sample(600, rng).data;
  Dataset test = gen.sample(200, rng).data;

  ZooOptions opts;
  opts.modules_per_layer = 4;
  auto zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
  auto before_state = zm.selector->state();

  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.train_selector = false;  // edge-device mode
  cfg.noise_std = 0.0f;
  train_modular(*zm.model, *zm.selector, train, cfg);

  // Selector untouched, model still learned.
  auto after_state = zm.selector->state();
  for (std::size_t i = 0; i < before_state.size(); ++i) {
    ASSERT_EQ(before_state[i], after_state[i]);
  }
  EXPECT_GT(evaluate_modular(*zm.model, *zm.selector, test), 0.6f);
}

TEST(TrainPlain, LearnsHarLikeTask) {
  init::reseed(51);
  SyntheticGenerator gen(har_like_spec(), 46);
  Rng rng(5);
  Dataset train = gen.sample(1200, rng).data;
  Dataset test = gen.sample(300, rng).data;
  auto model = make_plain(TaskModel::kMlpHar, {32}, 6);
  TrainConfig cfg;
  cfg.epochs = 6;
  train_plain(*model, train, cfg);
  EXPECT_GT(evaluate_plain(*model, test), 0.75f);
}

TEST(TrainPlain, EmptyDatasetThrows) {
  auto model = make_plain(TaskModel::kMlpHar, {4}, 2);
  Dataset empty;
  TrainConfig cfg;
  EXPECT_THROW(train_plain(*model, empty, cfg), std::runtime_error);
}

TEST(Ability, MappingMatrixRowsAreDistributions) {
  SyntheticGenerator gen(cifar10_like_spec(), 47);
  PartitionConfig pcfg;
  pcfg.num_devices = 10;
  pcfg.classes_per_device = 2;
  EdgePopulation pop(gen, pcfg);
  auto proxy = pop.proxy_data_ex(400);
  std::vector<std::int64_t> subtasks(proxy.data.labels.size());
  for (std::size_t i = 0; i < subtasks.size(); ++i) {
    subtasks[i] = pop.subtask_of(proxy.data.labels[i], proxy.subjects[i]);
  }

  ZooOptions opts;
  opts.modules_per_layer = 6;
  auto zm = make_modular(TaskModel::kMlpHar, {192}, 10, opts);
  auto h = compute_mapping_matrix(*zm.selector, proxy.data, subtasks,
                                  pop.num_contexts());
  ASSERT_EQ(h.size(), 1u);
  for (std::int64_t t = 0; t < pop.num_contexts(); ++t) {
    float row = 0.0f;
    for (std::int64_t n = 0; n < 6; ++n) {
      const float v = h[0][static_cast<std::size_t>(t * 6 + n)];
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      row += v;
    }
    EXPECT_NEAR(row, 1.0f, 1e-4);  // rows of H are mean distributions
  }
}

TEST(Ability, EnhanceProducesValidTargetsAndTrains) {
  SyntheticGenerator gen(har_like_spec(), 48);
  PartitionConfig pcfg;
  pcfg.num_devices = 8;
  pcfg.classes_per_device = 0;  // feature skew: subjects are sub-tasks
  EdgePopulation pop(gen, pcfg);
  auto proxy = pop.proxy_data_ex(600);
  std::vector<std::int64_t> subtasks(proxy.data.labels.size());
  for (std::size_t i = 0; i < subtasks.size(); ++i) {
    subtasks[i] = pop.subtask_of(proxy.data.labels[i], proxy.subjects[i]);
  }

  ZooOptions opts;
  opts.modules_per_layer = 6;
  auto zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
  TrainConfig pre;
  pre.epochs = 2;
  train_modular(*zm.model, *zm.selector, proxy.data, pre);

  AbilityConfig acfg;
  acfg.finetune.epochs = 1;
  auto res = enhance_ability(*zm.model, *zm.selector, proxy.data, subtasks,
                             pop.num_contexts(), acfg);
  ASSERT_EQ(res.target.size(), 1u);
  // Every sub-task's target row is a valid distribution over modules.
  const std::int64_t n = 6, t_count = pop.num_contexts();
  for (std::int64_t t = 0; t < t_count; ++t) {
    float row = 0.0f;
    std::int64_t nonzero = 0;
    for (std::int64_t m = 0; m < n; ++m) {
      const float v = res.target[0][static_cast<std::size_t>(t * n + m)];
      row += v;
      if (v > 0.0f) ++nonzero;
    }
    EXPECT_NEAR(row, 1.0f, 1e-4);
    EXPECT_GE(nonzero, 1);
  }
  EXPECT_GT(res.finetune_stats.batches, 0);
}

TEST(Evaluate, PerfectOnTrivedTask) {
  // Degenerate single-class task must hit accuracy 1 after training.
  SyntheticGenerator gen(har_like_spec(), 49);
  Rng rng(6);
  Dataset train = gen.sample_classes(200, {2}, rng).data;
  ZooOptions opts;
  opts.modules_per_layer = 4;
  auto zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
  TrainConfig cfg;
  cfg.epochs = 3;
  train_modular(*zm.model, *zm.selector, train, cfg);
  EXPECT_GT(evaluate_modular(*zm.model, *zm.selector, train), 0.99f);
}

}  // namespace
}  // namespace nebula
