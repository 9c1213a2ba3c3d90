// Live inspection endpoint demo: runs a small Nebula deployment under fault
// and drift pressure with the flight recorder on, then serves the recorder's
// state over the loopback observability endpoint so you can poke it with
// curl while the process is alive:
//
//   NEBULA_OBS_PORT=9109 ./build/examples/example_serve_obs_demo
//   curl -s localhost:9109/metrics     | python3 -m json.tool
//   curl -s localhost:9109/timeseries  | python3 -m json.tool
//   curl -s localhost:9109/devices     | python3 -m json.tool
//   curl -s localhost:9109/devices/3   | python3 -m json.tool
//   curl -s localhost:9109/health      | python3 -m json.tool
//
// Without NEBULA_OBS_PORT an ephemeral port is chosen and printed. The
// process serves until stdin reaches EOF (press Enter, or pipe from
// /dev/null for a non-blocking smoke run). Add NEBULA_TIMELINE=tl.jsonl to
// also dump the timeline artifact at exit for tools/check_trace.py
// --timeline / tools/obs_report.py.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/nebula.h"
#include "obs/recorder.h"
#include "sim/faults.h"

int main() {
  using namespace nebula;

  auto spec = har_like_spec();
  SyntheticGenerator generator(spec, /*seed=*/88);
  PartitionConfig partition;
  partition.num_devices = 12;
  partition.clusters_per_device = 2;
  partition.seed = 89;
  EdgePopulation population(generator, partition);
  ProfileSampler profiler(/*seed=*/90);
  auto profiles = profiler.sample_fleet(partition.num_devices);

  ZooOptions opts;
  opts.modules_per_layer = 6;
  opts.init_seed = 909;
  NebulaConfig config;
  config.devices_per_round = 5;
  config.pretrain.epochs = 4;
  NebulaSystem nebula(make_modular(TaskModel::kMlpHar, {32}, 6, opts),
                      population, profiles, config);

  obs::FlightRecorder& rec = obs::recorder();
  rec.set_enabled(true);
  rec.reset();
  // Honors NEBULA_OBS_PORT when set; otherwise bind an ephemeral port so the
  // demo works out of the box.
  int port = rec.ensure_endpoint_from_env();
  if (port == 0) port = rec.start_endpoint(0);
  if (port == 0) {
    std::fprintf(stderr, "could not bind the observability endpoint\n");
    return 1;
  }
  std::printf("obs endpoint: http://127.0.0.1:%d  "
              "(/metrics /timeseries /devices /devices/<id> /health)\n",
              port);

  std::printf("offline stage…\n");
  nebula.offline(population.proxy_data_ex(800));

  // Fault + drift pressure so the timelines and monitors have something to
  // say: transfer retries, dropped devices, churn events.
  FaultConfig faults;
  faults.dropout_prob = 0.1;
  faults.transfer_failure_prob = 0.15;
  faults.seed = 91;
  nebula.inject_faults(faults);
  population.set_dynamics(/*drift_rate=*/0.05f, /*churn_prob=*/0.02f);

  int rounds = 12;
  if (const char* env = std::getenv("NEBULA_DEMO_ROUNDS")) {
    rounds = std::atoi(env);
    if (rounds <= 0) rounds = 12;
  }
  for (int round = 0; round < rounds; ++round) {
    population.environment_step();
    RoundReport report = nebula.round();
    std::printf("%s\n", report.summary().c_str());
  }
  std::printf("train p95 %.3fs  comm p95 %.3fs  alerts %zu\n",
              rec.digest_quantile("train", 0.95),
              rec.digest_quantile("comm", 0.95), rec.alerts().size());

  std::printf("serving — press Enter (or close stdin) to exit\n");
  std::string line;
  std::getline(std::cin, line);
  rec.stop_endpoint();
  return 0;
}
