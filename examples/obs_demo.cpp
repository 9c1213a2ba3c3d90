// Observability demo: a small end-to-end Nebula run (offline stage + four
// online rounds) that exercises every obs surface. Run with the env hooks to
// capture everything:
//
//   NEBULA_TRACE=trace.json NEBULA_METRICS=metrics.json \
//   NEBULA_EVENTS=rounds.jsonl ./build/examples/example_obs_demo
//
// trace.json opens at https://ui.perfetto.dev; metrics.json and rounds.jsonl
// are validated by tools/check_trace.py (the `obs`-labelled ctest runs this
// binary under those env vars and then the validator).
//
// The world is deliberately tiny (the SmallWorld scale from the test suite)
// so the demo doubles as a fast ctest fixture.
#include <cstdio>
#include <iostream>

#include "core/nebula.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/faults.h"

int main() {
  using namespace nebula;

  auto spec = har_like_spec();
  SyntheticGenerator generator(spec, /*seed=*/88);
  PartitionConfig partition;
  partition.num_devices = 10;
  partition.clusters_per_device = 2;
  partition.seed = 89;
  EdgePopulation population(generator, partition);
  ProfileSampler profiler(/*seed=*/90);
  auto profiles = profiler.sample_fleet(partition.num_devices);

  ZooOptions opts;
  opts.modules_per_layer = 6;
  opts.init_seed = 909;
  NebulaConfig config;
  config.devices_per_round = 4;
  config.pretrain.epochs = 4;
  NebulaSystem nebula(make_modular(TaskModel::kMlpHar, {32}, 6, opts),
                      population, profiles, config);

  std::printf("offline stage…\n");
  nebula.offline(population.proxy_data_ex(800));

  // A little fault pressure so the round events carry retries and drops.
  FaultConfig faults;
  faults.dropout_prob = 0.1;
  faults.transfer_failure_prob = 0.1;
  faults.seed = 91;
  nebula.inject_faults(faults);

  for (int round = 0; round < 4; ++round) {
    RoundReport report = nebula.round();
    std::printf("%s\n", report.summary().c_str());
  }

  // Registry digest to stdout; the env hooks write the JSON files at exit.
  obs::MetricsRegistry::instance().write_table(std::cout);
  const auto spans = obs::Tracer::instance().snapshot();
  std::printf("tracer: %zu spans recorded, %zu dropped\n", spans.size(),
              obs::Tracer::instance().dropped());
  return 0;
}
