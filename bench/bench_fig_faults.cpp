// Fault sweep — graceful degradation under dynamic-edge failure modes.
//
// The paper's motivation (Fig. 1) is that edge environments are *dynamic*:
// devices churn, contend and fluctuate. This bench stresses the online stage
// with the failure modes real fleets exhibit — dropout, crashes, stragglers,
// flaky links and corrupted payloads — and compares:
//   * Nebula  — fault-tolerant rounds: retries + backoff, update validation
//               and quarantine, quorum; module-wise aggregation means a lost
//               device only starves the modules it alone exercised.
//   * FedAvg  — the classic baseline has no defences: missing devices shrink
//               the average silently and corrupted uploads are averaged
//               straight into the global model.
//
// Expected shape: Nebula's accuracy degrades gracefully as dropout grows and
// its cloud stays finite under corruption (quarantine), while FedAvg's
// global model is destroyed by the first NaN upload that slips in.
#include <cstdio>

#include "common/table.h"
#include "eval/experiments.h"

int main() {
  using namespace nebula;
  const BenchScale scale = BenchScale::from_env();
  TaskSpec spec = task_by_name("HAR", "1 subject");

  std::printf("Fault sweep: %lld devices, %lld/round, %lld rounds per cell\n",
              static_cast<long long>(scale.devices),
              static_cast<long long>(scale.devices_per_round),
              static_cast<long long>(2 * scale.warm_rounds));

  // ---- Dropout sweep ----------------------------------------------------------
  std::printf("\n(a) device dropout (plus 10%% stragglers, flaky links)\n");
  Table dropout_table({"Dropout", "Nebula acc", "FedAvg acc", "Dropped",
                       "Retries", "Overhead MB"});
  const double dropouts[] = {0.0, 0.1, 0.3, 0.5};
  for (double p : dropouts) {
    TaskEnv env = make_task_env(spec, scale, /*seed=*/7100);
    FaultConfig fc;
    fc.dropout_prob = p;
    fc.straggler_prob = 0.1;
    fc.transfer_failure_prob = p > 0.0 ? 0.05 : 0.0;
    fc.degraded_link_prob = p > 0.0 ? 0.1 : 0.0;
    fc.seed = 7200 + static_cast<std::uint64_t>(p * 100);
    ScenarioSpec scenario;
    scenario.faults = fc;
    ScenarioResult r = run_scenario(env, scale, scenario, 7300);
    for (const RoundReport& rep : r.round_reports) {
      std::printf("  %s\n", rep.summary().c_str());
    }
    dropout_table.add_row({Table::num(p * 100, 0) + "%",
                           Table::num(r.nebula_acc * 100, 2),
                           Table::num(r.fedavg_acc * 100, 2),
                           Table::num(static_cast<double>(r.updates_dropped), 0),
                           Table::num(static_cast<double>(r.transfer_retries), 0),
                           Table::num(r.nebula_overhead_mb, 2)});
    std::fflush(stdout);
  }
  dropout_table.print();

  // ---- Corruption sweep -------------------------------------------------------
  std::printf("\n(b) payload corruption (NaN/zero/truncate uploads)\n");
  Table corrupt_table({"Corruption", "Nebula acc", "FedAvg acc",
                       "Quarantined", "Nebula finite", "FedAvg finite"});
  const double corruptions[] = {0.0, 0.1, 0.3};
  for (double p : corruptions) {
    TaskEnv env = make_task_env(spec, scale, /*seed=*/7400);
    FaultConfig fc;
    fc.corruption_prob = p;
    fc.seed = 7500 + static_cast<std::uint64_t>(p * 100);
    ScenarioSpec scenario;
    scenario.faults = fc;
    ScenarioResult r = run_scenario(env, scale, scenario, 7600);
    for (const RoundReport& rep : r.round_reports) {
      std::printf("  %s\n", rep.summary().c_str());
    }
    corrupt_table.add_row(
        {Table::num(p * 100, 0) + "%", Table::num(r.nebula_acc * 100, 2),
         Table::num(r.fedavg_acc * 100, 2),
         Table::num(static_cast<double>(r.updates_rejected), 0),
         r.nebula_finite ? "yes" : "NO", r.fedavg_finite ? "yes" : "NO"});
    std::fflush(stdout);
  }
  corrupt_table.print();

  std::printf("\nShape check: Nebula degrades gracefully with dropout and its "
              "cloud stays finite under corruption (quarantine); FedAvg has "
              "no validation, so corrupted uploads poison its global model.\n");
  return 0;
}
