// Scenario: continuous adaptation for edge video analytics.
//
// A camera (edge device) runs object recognition. Scenes change over time —
// new lighting, new angles, sometimes a different set of target objects (the
// paper's motivating video-analysis workload, §1). The device keeps a
// compact Nebula sub-model resident, and on every environment change it
// re-derives from the cloud, fine-tunes on the freshest frames, and uploads
// its learning for the rest of the fleet.
//
// The example prints per-step accuracy for the camera under three policies:
// never adapt, adapt locally only, and full Nebula collaboration.
#include <cstdio>

#include "baselines/onbaselines.h"
#include "core/nebula.h"
#include "nn/init.h"

int main() {
  using namespace nebula;

  // World: 30 cameras, each watching a 2-object subset of 10 object types,
  // with scenes (appearance clusters) that shift over time.
  SyntheticGenerator generator(cifar10_like_spec(), 11);
  PartitionConfig partition;
  partition.num_devices = 30;
  partition.classes_per_device = 2;
  partition.clusters_per_device = 2;
  partition.context_switch_prob = 0.3f;  // occasional re-aiming of the camera
  EdgePopulation population(generator, partition);
  ProfileSampler profiler(5);
  auto profiles = profiler.sample_fleet(partition.num_devices);
  auto proxy = population.proxy_data_ex(1200);

  // Static baseline and local-only adaptation for contrast.
  TrainConfig pretrain;
  pretrain.epochs = 6;
  init::reseed(41);
  NoAdaptation static_model(
      make_plain(TaskModel::kResNet18, {3, 8, 8}, 10, 1.0), population);
  static_model.pretrain(proxy.data, pretrain);
  TrainConfig local;
  local.epochs = 6;
  local.lr = 0.02f;
  init::reseed(42);
  LocalAdaptation local_only(
      make_plain(TaskModel::kResNet18, {3, 8, 8}, 10, 1.0), population, local);
  local_only.pretrain(proxy.data, pretrain);

  // Nebula.
  auto zoo = make_modular(TaskModel::kResNet18, {3, 8, 8}, 10);
  NebulaConfig config;
  config.devices_per_round = 8;
  config.pretrain.epochs = 6;
  NebulaSystem nebula(std::move(zoo), population, profiles, config);
  nebula.offline(proxy);
  for (int r = 0; r < 4; ++r) nebula.round();  // fleet warm-up

  const std::int64_t camera = 0;
  std::printf("camera %lld: scene changes over 8 steps\n",
              static_cast<long long>(camera));
  std::printf("%-6s %-12s %-12s %-12s %s\n", "step", "static", "local-only",
              "nebula", "note");
  Rng rng(6);
  for (int step = 0; step < 8; ++step) {
    const bool scene_changed = population.shift(camera);
    // Background fleet keeps collecting too.
    for (std::int64_t k = 1; k < population.num_devices(); ++k) {
      if (rng.uniform() < 0.3f) population.shift(k);
    }
    nebula.round();

    local_only.adapt_device(camera);
    nebula.adapt_device(camera, /*query_cloud=*/true, /*local_train=*/true,
                        /*upload=*/true);

    const float acc_static = static_model.eval_device(camera, 160);
    const float acc_local = local_only.eval_device(camera, 160);
    const float acc_nebula = nebula.eval_device(camera, 160);
    std::printf("%-6d %-12.3f %-12.3f %-12.3f %s\n", step, acc_static,
                acc_local, acc_nebula,
                scene_changed ? "<- new target objects" : "");
  }
  std::printf("\ncommunication spent by the camera fleet: %.2f MB\n",
              nebula.ledger().total_mb());
  return 0;
}
