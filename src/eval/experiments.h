// Shared experiment harness for the paper's evaluation (§6).
//
// Encodes the paper's task suite (Table 1 rows: four applications, two data
// partitions each), the adaptation-step protocol, and scale knobs. The
// benches in bench/ are thin drivers over this layer.
//
// Scale: the paper uses 500 simulated devices (25 per round) plus a
// 20-device physical testbed. The defaults here are scaled down so that the
// whole benchmark suite finishes on a single CPU core; set NEBULA_BENCH_SCALE
// (e.g. 0.5 or 2.0) to shrink or grow every run proportionally.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/fedavg.h"
#include "baselines/heterofl.h"
#include "baselines/onbaselines.h"
#include "core/nebula.h"
#include "data/partition.h"
#include "obs/monitor.h"
#include "sim/device.h"

namespace nebula {

/// One Table-1 row: an application, its model family, and a data partition.
struct TaskSpec {
  std::string task_name;       // "Sensing", "Image Classification", ...
  std::string dataset_name;    // "HAR", "CIFAR10", ...
  std::string model_name;      // "MLP", "ResNet18", ...
  std::string partition_name;  // "1 subject", "2 classes", ...
  TaskModel model = TaskModel::kMlpHar;
  SyntheticSpec data;
  std::int64_t classes_per_device = 0;  // m; 0 = feature skew
  std::int64_t proxy_samples = 1500;
  float pretrain_lr = 0.05f;  // 100-way heads need a gentler rate
};

/// The seven rows of Table 1 in paper order.
std::vector<TaskSpec> paper_tasks();

/// Lookup by dataset name + partition (e.g. "CIFAR10", 2). Throws if absent.
TaskSpec task_by_name(const std::string& dataset,
                      const std::string& partition);

/// Global scale knobs for bench runs.
struct BenchScale {
  std::int64_t devices = 60;
  std::int64_t devices_per_round = 10;
  std::int64_t warm_rounds = 6;
  std::int64_t eval_devices = 20;
  std::int64_t test_samples = 128;
  std::int64_t pretrain_epochs = 8;

  /// Reads NEBULA_BENCH_SCALE (default 1.0) and scales devices / rounds.
  static BenchScale from_env();
};

/// A ready-to-run simulated environment for one task.
struct TaskEnv {
  TaskSpec spec;
  std::unique_ptr<SyntheticGenerator> generator;
  std::unique_ptr<EdgePopulation> population;
  std::vector<DeviceProfile> profiles;
  SyntheticData proxy;

  /// Plain-model factory at a width multiplier (baselines).
  LayerPtr plain(double width = 1.0) const;
  /// Modularized model + selector (Nebula).
  ZooModel modular(const ZooOptions& opts = {}) const;

  std::vector<std::int64_t> sample_shape() const {
    return spec.data.sample_shape;
  }
};

/// Builds the environment: generator, non-IID population, device fleet,
/// proxy data.
TaskEnv make_task_env(const TaskSpec& spec, const BenchScale& scale,
                      std::uint64_t seed);

/// Per-method accuracy after one adaptation step (Table 1 protocol):
/// pretrain on proxy → warm-up adaptation → environment shift → one
/// adaptation step → per-device accuracy.
struct AdaptationResult {
  double na = 0.0, la = 0.0, an = 0.0, fa = 0.0, hfl = 0.0, nebula = 0.0;
  double comm_mb_fa = 0.0, comm_mb_hfl = 0.0, comm_mb_nebula = 0.0;
};

AdaptationResult run_adaptation_comparison(TaskEnv& env,
                                           const BenchScale& scale,
                                           std::uint64_t seed);

/// One cell of the dynamic-edge scenario grids (`bench_fig_faults`,
/// `bench_fig_byzantine`, `bench_fig_drift`): Nebula's fault-tolerant
/// rounds vs undefended FedAvg, both facing the same seeded fault schedule
/// (same seed, same coordinates, same device regions) in the same moving
/// population.
struct ScenarioSpec {
  FaultConfig faults;              // shared by both systems
  RobustAggregationConfig robust;  // Nebula's aggregation policy
  float drift_rate = 0.0f;         // EdgePopulation::set_dynamics knobs
  float churn_prob = 0.0f;
  /// > 0 keeps the run clean until this round — no faults, static
  /// population — and attaches the faults and the dynamics there: the
  /// change point the recorder's monitors are expected to timestamp
  /// (DESIGN.md §14). 0 starts them with the first round.
  std::int64_t onset_round = 0;
  /// Draws frozen probe test sets before the first round (they stand for
  /// the pre-drift data) and, while the recorder is on, feeds per-round
  /// probe accuracy and churn rate to its monitors. The draws come from
  /// the population stream, so they shift every later test draw: a drift
  /// sweep sets this on all its cells, its static control included, and
  /// fault runs leave it off, so their results and cost do not depend on
  /// the recorder.
  bool monitor_dynamics = false;
};

struct ScenarioResult {
  double nebula_acc = 0.0;        // mean derived-sub-model accuracy
  double fedavg_acc = 0.0;        // mean global-model accuracy
  bool nebula_finite = true;      // cloud model stayed NaN/Inf-free
  bool fedavg_finite = true;      // global model stayed NaN/Inf-free
  std::int64_t rounds_aggregated = 0;  // Nebula rounds that met quorum
  std::int64_t updates_dropped = 0;    // dropout + crash + dead links
  std::int64_t updates_rejected = 0;   // quarantined (all reasons)
  std::int64_t robust_rejected = 0;    // anomaly-gate rejections
  std::int64_t transfer_retries = 0;
  std::int64_t churned_devices = 0;    // churn events over the run
  double nebula_goodput_mb = 0.0;   // useful traffic
  double nebula_overhead_mb = 0.0;  // failed-transfer waste
  /// Every Nebula round's full report, in order — benches print per-round
  /// summaries and telemetry consumers aggregate across the sweep.
  std::vector<RoundReport> round_reports;
  /// Per-round probe accuracy on the frozen probe sets; only with
  /// `monitor_dynamics` while the recorder is enabled.
  std::vector<double> probe_accuracy;
  /// Health-monitor alerts harvested from the flight recorder, in firing
  /// order. Empty unless the recorder was enabled before the run.
  std::vector<obs::Alert> alerts;
};

/// Pretrains both systems on `env`, runs 2 x warm_rounds collaborative
/// rounds under `scenario` — the population steps between rounds — and
/// evaluates mean device accuracy. When the flight recorder is enabled the
/// run resets it first, so alert round indices refer to this run's rounds;
/// recording never changes the simulation itself (feeds are draw-free).
ScenarioResult run_scenario(TaskEnv& env, const BenchScale& scale,
                            const ScenarioSpec& scenario, std::uint64_t seed);

/// True when every parameter of the modular model (shared + all modules) is
/// finite — the invariant the quarantine must preserve.
bool model_state_finite(ModularModel& model);

/// Mean of a vector (0 for empty) — tiny stats helpers for benches.
double mean_of(const std::vector<double>& v);
double stddev_of(const std::vector<double>& v);

}  // namespace nebula
