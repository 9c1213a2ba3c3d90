// Scenario: on-device runtime scaling under resource fluctuation (§5.1).
//
// A device serves inference with a latency deadline while other apps come
// and go. EdgeRuntime holds a ladder of nested execution plans over the
// resident sub-model and, as contention changes, swaps to the largest plan
// that still meets the deadline — no cloud round-trip, no retraining. The
// example sweeps a contention trace and prints the plan chosen at each
// moment, its latency, and the accuracy it delivers.
#include <cstdio>

#include "core/edge_runtime.h"
#include "core/nebula.h"

int main() {
  using namespace nebula;

  SyntheticGenerator generator(cifar10_like_spec(), 17);
  PartitionConfig partition;
  partition.num_devices = 16;
  partition.classes_per_device = 2;
  partition.clusters_per_device = 2;
  EdgePopulation population(generator, partition);
  ProfileSampler profiler(8);
  auto profiles = profiler.sample_fleet(partition.num_devices);

  auto zoo = make_modular(TaskModel::kResNet18, {3, 8, 8}, 10);
  NebulaConfig config;
  config.devices_per_round = 6;
  config.pretrain.epochs = 6;
  config.budget_hi = 1.0;  // give the demo device a roomy sub-model
  NebulaSystem nebula(std::move(zoo), population, profiles, config);
  nebula.offline(population.proxy_data_ex(1200));
  for (int r = 0; r < 4; ++r) nebula.round();

  // The device installs its personalized sub-model into an EdgeRuntime.
  const std::int64_t device = 0;
  const DeviceProfile board = DeviceProfile::raspberry_pi();
  auto derivation = nebula.derive(device);
  EdgeRuntime runtime(nebula.build_submodel(derivation.spec),
                      nebula.device_importance(device), board,
                      /*batch=*/16, /*top_k=*/2);

  std::printf("execution plans for device %lld (Raspberry Pi):\n",
              static_cast<long long>(device));
  for (std::size_t p = 0; p < runtime.plans().size(); ++p) {
    const auto& plan = runtime.plans()[p];
    std::printf("  plan %zu: %lld modules, %lld params, %.3f ms idle\n", p,
                static_cast<long long>(plan.spec.total_modules()),
                static_cast<long long>(plan.params), plan.est_latency_ms);
  }

  const double deadline_ms =
      runtime.plans().front().est_latency_ms * 2.0;
  std::printf("\nlatency deadline: %.3f ms per batch\n", deadline_ms);
  std::printf("%-18s %-6s %-12s %-10s %s\n", "co-running procs", "plan",
              "latency ms", "meets?", "accuracy");
  Dataset test = population.device_test(device, 192);
  const int trace[] = {0, 1, 3, 2, 0, 3};
  for (int procs : trace) {
    RuntimeMonitor rt(procs);
    const std::size_t plan = runtime.select_plan(deadline_ms, rt);
    const double latency = runtime.active_latency_ms(rt);
    // Measure accuracy with routing restricted to the active plan.
    Tensor x = test.batch_view([&] {
      std::vector<std::size_t> idx(static_cast<std::size_t>(test.size()));
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      return idx;
    }());
    Tensor logits = runtime.infer(x, nebula.selector());
    const float acc = accuracy(logits, test.labels);
    std::printf("%-18d %-6zu %-12.3f %-10s %.3f\n", procs, plan, latency,
                latency <= deadline_ms ? "yes" : "degraded", acc);
  }
  std::printf("\nUnder contention the runtime sheds the least-important "
              "modules first, trading a little accuracy for meeting the "
              "deadline — and scales back up when the device goes idle.\n");
  return 0;
}
