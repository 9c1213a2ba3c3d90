// Targeted §4.3 properties: the KL guidance term pulls the selector toward
// the prescribed sub-task mapping, and the fine-tuned mapping matrix
// concentrates on the assigned modules.
#include <gtest/gtest.h>

#include <cmath>

#include "core/ability.h"
#include "core/model_zoo.h"
#include "data/partition.h"
#include "nn/init.h"

namespace nebula {
namespace {

// Mean KL(g_label || selector) over the dataset for one layer.
double mean_kl_to_target(ModuleSelector& selector, const Dataset& data,
                         const std::vector<std::int64_t>& subtasks,
                         const std::vector<float>& target,
                         std::int64_t num_subtasks) {
  auto h = compute_mapping_matrix(selector, data, subtasks, num_subtasks);
  const std::int64_t n = selector.layer_width(0);
  double kl = 0.0;
  for (std::int64_t t = 0; t < num_subtasks; ++t) {
    for (std::int64_t i = 0; i < n; ++i) {
      const double p = target[static_cast<std::size_t>(t * n + i)];
      const double q =
          std::max(1e-9, static_cast<double>(
                             h[0][static_cast<std::size_t>(t * n + i)]));
      if (p > 0) kl += p * std::log(p / q);
    }
  }
  return kl / static_cast<double>(num_subtasks);
}

TEST(AbilityGuidance, KlTermPullsSelectorTowardTargets) {
  SyntheticGenerator gen(cifar10_like_spec(), 1234);
  PartitionConfig pc;
  pc.num_devices = 8;
  pc.classes_per_device = 2;
  pc.seed = 3;
  EdgePopulation pop(gen, pc);
  auto proxy = pop.proxy_data_ex(900);
  std::vector<std::int64_t> subtasks(proxy.data.labels.size());
  for (std::size_t i = 0; i < subtasks.size(); ++i) {
    subtasks[i] = pop.subtask_of(proxy.data.labels[i], proxy.subjects[i]);
  }

  ZooOptions opts;
  opts.modules_per_layer = 8;
  opts.init_seed = 4321;
  auto zm = make_modular(TaskModel::kMlpHar, {192}, 10, opts);
  TrainConfig pre;
  pre.epochs = 3;
  train_modular(*zm.model, *zm.selector, proxy.data, pre);

  // Hand-crafted target: sub-task t routes to modules {t mod 8, (t+1) mod 8}.
  const std::int64_t t_count = pop.num_contexts();
  std::vector<std::vector<float>> targets(1);
  targets[0].assign(static_cast<std::size_t>(t_count * 8), 0.0f);
  for (std::int64_t t = 0; t < t_count; ++t) {
    targets[0][static_cast<std::size_t>(t * 8 + (t % 8))] = 0.6f;
    targets[0][static_cast<std::size_t>(t * 8 + ((t + 1) % 8))] = 0.4f;
  }

  const double kl_before = mean_kl_to_target(*zm.selector, proxy.data,
                                             subtasks, targets[0], t_count);
  GateGuidance guidance;
  guidance.sample_subtasks = &subtasks;
  guidance.targets = &targets;
  guidance.weight = 2.0f;
  TrainConfig ft;
  ft.epochs = 3;
  ft.lambda_balance = 0.0f;  // isolate the KL term
  train_modular(*zm.model, *zm.selector, proxy.data, ft, &guidance);
  const double kl_after = mean_kl_to_target(*zm.selector, proxy.data,
                                            subtasks, targets[0], t_count);
  EXPECT_LT(kl_after, kl_before * 0.7)
      << "KL " << kl_before << " -> " << kl_after;
}

TEST(AbilityGuidance, EnhanceConcentratesMappingOnAssignedModules) {
  SyntheticGenerator gen(cifar10_like_spec(), 777);
  PartitionConfig pc;
  pc.num_devices = 8;
  pc.classes_per_device = 2;
  pc.seed = 4;
  EdgePopulation pop(gen, pc);
  auto proxy = pop.proxy_data_ex(900);
  std::vector<std::int64_t> subtasks(proxy.data.labels.size());
  for (std::size_t i = 0; i < subtasks.size(); ++i) {
    subtasks[i] = pop.subtask_of(proxy.data.labels[i], proxy.subjects[i]);
  }

  ZooOptions opts;
  opts.modules_per_layer = 8;
  opts.init_seed = 778;
  auto zm = make_modular(TaskModel::kMlpHar, {192}, 10, opts);
  TrainConfig pre;
  pre.epochs = 3;
  train_modular(*zm.model, *zm.selector, proxy.data, pre);

  AbilityConfig acfg;
  acfg.finetune.epochs = 3;
  acfg.kl_weight = 1.0f;
  auto res = enhance_ability(*zm.model, *zm.selector, proxy.data, subtasks,
                             pop.num_contexts(), acfg);

  // After fine-tuning, the measured mapping should put more mass on the
  // masked (assigned) entries than before.
  auto h_after = compute_mapping_matrix(*zm.selector, proxy.data, subtasks,
                                        pop.num_contexts());
  const std::int64_t t_count = pop.num_contexts();
  double mass_before = 0.0, mass_after = 0.0;
  for (std::int64_t t = 0; t < t_count; ++t) {
    for (std::int64_t i = 0; i < 8; ++i) {
      const std::size_t ix = static_cast<std::size_t>(t * 8 + i);
      if (res.mask[0][ix]) {
        mass_before += res.mapping[0][ix];
        mass_after += h_after[0][ix];
      }
    }
  }
  EXPECT_GT(mass_after, mass_before)
      << "assigned-module mass " << mass_before << " -> " << mass_after;
}

TEST(EvaluateModular, HandlesDatasetsSmallerThanEvalBatch) {
  ZooOptions opts;
  opts.modules_per_layer = 4;
  opts.init_seed = 779;
  auto zm = make_modular(TaskModel::kMlpHar, {16}, 3, opts);
  SyntheticSpec spec;
  spec.name = "tiny";
  spec.num_classes = 3;
  spec.sample_shape = {16};
  SyntheticGenerator gen(spec, 5);
  Rng rng(6);
  Dataset d = gen.sample(7, rng).data;  // < eval batch of 64
  const float acc = evaluate_modular(*zm.model, *zm.selector, d, 2);
  EXPECT_GE(acc, 0.0f);
  EXPECT_LE(acc, 1.0f);
}

}  // namespace
}  // namespace nebula
