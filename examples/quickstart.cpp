// Quickstart: the minimal Nebula loop.
//
//   1. Build a synthetic edge world (generator + non-IID device population).
//   2. Modularize a model and run the offline on-cloud stage (end-to-end
//      training + module ability-enhancing training).
//   3. Run online edge-cloud collaborative adaptation rounds.
//   4. Derive a personalized sub-model for one device, locally adapt it,
//      and evaluate it.
//
// Build & run:  cmake --build build && ./build/examples/example_quickstart
#include <cstdio>

#include "core/nebula.h"

int main() {
  using namespace nebula;

  // 1. A CIFAR10-like world: 20 devices, label skew (2 classes per device),
  //    biased local views, heterogeneous hardware.
  SyntheticGenerator generator(cifar10_like_spec(), /*seed=*/7);
  PartitionConfig partition;
  partition.num_devices = 20;
  partition.classes_per_device = 2;
  partition.clusters_per_device = 2;
  EdgePopulation population(generator, partition);
  ProfileSampler profiler(/*seed=*/3);
  auto profiles = profiler.sample_fleet(partition.num_devices);

  // 2. Modularize a ResNet18-style model (4 module layers x 16 modules,
  //    paper §6.1) and train it on the cloud's historical proxy data.
  auto zoo = make_modular(TaskModel::kResNet18, {3, 8, 8}, /*classes=*/10);
  NebulaConfig config;
  config.devices_per_round = 5;
  NebulaSystem nebula(std::move(zoo), population, profiles, config);

  std::printf("offline stage: end-to-end training + ability enhancement…\n");
  auto ability = nebula.offline(population.proxy_data_ex(1200));
  std::printf("  module layers: %zu, ability targets: %s\n",
              nebula.cloud().num_module_layers(),
              ability ? "learned" : "disabled");

  // 3. Online collaborative adaptation. Each round prints its telemetry
  //    digest; run with NEBULA_TRACE=trace.json / NEBULA_METRICS=metrics.json
  //    / NEBULA_EVENTS=rounds.jsonl to capture the full picture.
  for (int round = 0; round < 5; ++round) {
    RoundReport report = nebula.round();
    std::printf("%s (%.2f MB total)\n", report.summary().c_str(),
                nebula.ledger().total_mb());
  }

  // 4. Personalized sub-model for device 0. Whether device 0 was sampled in
  //    the rounds above is selection luck, so adapt it explicitly — derive
  //    from the final cloud and fine-tune on local data (no upload) — before
  //    evaluating.
  auto derivation = nebula.derive(0);
  std::printf("\ndevice 0 sub-model: %lld modules, budget fraction %.2f, "
              "within budget: %s\n",
              static_cast<long long>(derivation.spec.total_modules()),
              nebula.budget_fraction_for(0),
              derivation.within_budget ? "yes" : "no");
  nebula.adapt_device(0, /*query_cloud=*/true, /*local_train=*/true,
                      /*upload=*/false);
  const float accuracy = nebula.eval_device(0);
  std::printf("device 0 accuracy on its local task: %.1f%%\n",
              accuracy * 100.0f);
  return 0;
}
