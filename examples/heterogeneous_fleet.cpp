// Scenario: serving a heterogeneous device fleet.
//
// The same cloud model serves devices from 512 MB IoT boards to 12 GB
// flagship phones. Nebula derives a different sub-model for each device:
// the importance scores pick *which* modules (specialised to the device's
// local task) and the resource budget picks *how many*. The example prints
// the per-device derivation — budget, module count, sub-model size, and
// estimated on-device training latency — to show the accuracy/resource
// trade-off the paper's §5.1 formalises as a multi-dimensional knapsack.
#include <cstdio>

#include "core/nebula.h"
#include "sim/cost_model.h"

int main() {
  using namespace nebula;

  SyntheticGenerator generator(speech_like_spec(), 21);
  PartitionConfig partition;
  partition.num_devices = 12;
  partition.classes_per_device = 5;
  partition.clusters_per_device = 2;
  EdgePopulation population(generator, partition);
  ProfileSampler profiler(9);
  auto profiles = profiler.sample_fleet(partition.num_devices, 0.5);

  auto zoo = make_modular(TaskModel::kResNet34, {1, 16, 8}, 35);
  NebulaConfig config;
  config.devices_per_round = 6;
  config.pretrain.epochs = 6;
  NebulaSystem nebula(std::move(zoo), population, profiles, config);
  nebula.offline(population.proxy_data_ex(1500));
  for (int r = 0; r < 3; ++r) nebula.round();

  std::printf("%-4s %-14s %-9s %-8s %-8s %-10s %-10s %s\n", "dev", "class",
              "RAM(GB)", "budget", "modules", "params", "train ms", "acc");
  RuntimeMonitor idle(0);
  for (std::int64_t k = 0; k < population.num_devices(); ++k) {
    const auto& profile = nebula.profile(k);
    auto der = nebula.derive(k);
    auto sub = nebula.build_submodel(der.spec);
    std::int64_t params = 0;
    for (std::size_t l = 0; l < der.spec.modules.size(); ++l) {
      for (std::int64_t gid : der.spec.modules[l]) {
        params += sub->module_state_size(l, gid);
      }
    }
    params += sub->shared_state_size();
    const double flops = static_cast<double>(sub->forward_flops(2)) * 3 * 16;
    const double train_ms =
        (flops / profile.flops_per_sec + CostModel::dispatch_overhead_s(profile, true)) *
        idle.contention_factor() * 1e3;
    const float acc = nebula.eval_derived(k, 160);
    std::printf("%-4lld %-14s %-9.1f %-8.2f %-8lld %-10lld %-10.2f %.3f\n",
                static_cast<long long>(k), device_class_name(profile.cls),
                profile.mem_capacity_mb / 1024.0, nebula.budget_fraction_for(k),
                static_cast<long long>(der.spec.total_modules()),
                static_cast<long long>(params), train_ms, acc);
  }
  std::printf("\nLarger devices receive more modules; every device keeps a "
              "model it can train within its budget.\n");
  return 0;
}
