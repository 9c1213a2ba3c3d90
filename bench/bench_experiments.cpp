// Per-figure experiment wall-times for the perf trajectory.
//
// Runs reduced-scale versions of the paper's figure experiments (Table 1
// adaptation comparison, the fault sweep) and prints the metrics registry as
// JSON on stdout. tools/perf_trajectory.py --experiments-bin extracts the
// `experiment.*.wall_s` gauges into BENCH_experiments.json, giving every PR a
// before/after trajectory for whole-figure wall time — the end-to-end
// counterpart of the kernel microbenchmarks in BENCH_kernels.json.
//
// Human-readable progress goes to stderr so stdout stays machine-parseable.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "eval/experiments.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

int main() {
  using namespace nebula;

  BenchScale scale = BenchScale::from_env();
  // Wall-time harness, not an accuracy run: clamp the scale so the suite
  // finishes in minutes on one core. NEBULA_BENCH_SCALE still shrinks it.
  scale.devices = std::min<std::int64_t>(scale.devices, 20);
  scale.devices_per_round = std::min<std::int64_t>(scale.devices_per_round, 5);
  scale.warm_rounds = std::min<std::int64_t>(scale.warm_rounds, 3);
  scale.eval_devices = std::min<std::int64_t>(scale.eval_devices, 6);
  scale.test_samples = std::min<std::int64_t>(scale.test_samples, 64);
  scale.pretrain_epochs = std::min<std::int64_t>(scale.pretrain_epochs, 4);

  const TaskSpec spec = task_by_name("HAR", "1 subject");

  std::fprintf(stderr, "figure: Table 1 adaptation (HAR / 1 subject)…\n");
  {
    TaskEnv env = make_task_env(spec, scale, /*seed=*/9100);
    run_adaptation_comparison(env, scale, /*seed=*/9200);
  }

  std::fprintf(stderr, "figure: fault sweep cell (HAR, 30%% dropout)…\n");
  {
    TaskEnv env = make_task_env(spec, scale, /*seed=*/9300);
    ScenarioSpec scenario;
    scenario.faults.dropout_prob = 0.3;
    scenario.faults.straggler_prob = 0.1;
    scenario.faults.transfer_failure_prob = 0.05;
    scenario.faults.seed = 9400;
    run_scenario(env, scale, scenario, /*seed=*/9500);
  }

  std::fprintf(stderr,
               "figure: byzantine cell (HAR, 30%% sign-flip, trimmed mean)…\n");
  {
    TaskEnv env = make_task_env(spec, scale, /*seed=*/9600);
    ScenarioSpec scenario;
    scenario.label = "byzantine";
    scenario.faults.byzantine_fraction = 0.3;
    scenario.faults.byzantine_kind = ByzantineKind::kSignFlip;
    scenario.faults.num_devices = scale.devices;
    scenario.faults.seed = 9700;
    scenario.robust.kind = RobustAggregatorKind::kTrimmedMean;
    scenario.robust.anomaly_threshold = 4.0;
    run_scenario(env, scale, scenario, /*seed=*/9800);
  }

  std::fprintf(stderr, "figure: drift cell (HAR, 50%% drift, 10%% churn)…\n");
  {
    TaskEnv env = make_task_env(spec, scale, /*seed=*/9900);
    ScenarioSpec scenario;
    scenario.label = "drift";
    scenario.drift_rate = 0.5f;
    scenario.churn_prob = 0.1f;
    scenario.monitor_dynamics = true;
    run_scenario(env, scale, scenario, /*seed=*/10000);
  }

  // Flight-recorder cost check (DESIGN.md §14): the same fault cell with the
  // recorder off, then on. The fault cell has no recording-conditional extra
  // work (unlike the drift cell's probe evals), so the pair isolates the
  // recorder feed itself; it rides the serial merge phase, so the on/off
  // ratio should stay within noise of 1.0 — the perf trajectory records it
  // so a regression that adds recorder work to the hot path surfaces as a
  // ratio creep.
  std::fprintf(stderr, "figure: obs overhead (fault cell, recorder off/on)…\n");
  double obs_off_s = 0.0, obs_on_s = 0.0;
  ScenarioSpec obs_scenario;
  obs_scenario.faults.dropout_prob = 0.3;
  obs_scenario.faults.straggler_prob = 0.1;
  obs_scenario.faults.transfer_failure_prob = 0.05;
  obs_scenario.faults.seed = 9400;
  {
    obs::recorder().set_enabled(false);
    TaskEnv env = make_task_env(spec, scale, /*seed=*/9300);
    obs::WallTimer wall;
    run_scenario(env, scale, obs_scenario, /*seed=*/9500);
    obs_off_s = wall.elapsed_s();
  }
  {
    obs::recorder().set_enabled(true);
    obs::recorder().reset();
    TaskEnv env = make_task_env(spec, scale, /*seed=*/9300);
    obs::WallTimer wall;
    run_scenario(env, scale, obs_scenario, /*seed=*/9500);
    obs_on_s = wall.elapsed_s();
    obs::recorder().set_enabled(false);
  }
  obs::gauge("experiment.obs_overhead.off.wall_s").set(obs_off_s);
  obs::gauge("experiment.obs_overhead.on.wall_s").set(obs_on_s);
  obs::gauge("experiment.obs_overhead.ratio")
      .set(obs_off_s > 0.0 ? obs_on_s / obs_off_s : 0.0);

  for (const auto& [name, wall_s] :
       obs::MetricsRegistry::instance().gauges_with_prefix("experiment.")) {
    std::fprintf(stderr, "  %-48s %8.2f s\n", name.c_str(), wall_s);
  }
  obs::MetricsRegistry::instance().write_json(std::cout);
  return 0;
}
