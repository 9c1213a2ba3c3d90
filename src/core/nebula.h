// Nebula: the end-to-end edge-cloud collaborative learning framework
// (paper §3). Ties together the offline stage (end-to-end cloud training +
// module ability-enhancing training) and the online stage (personalized
// sub-model derivation, on-device updates, module-wise aggregation).
//
// Quickstart:
//
//   SyntheticGenerator gen(cifar10_like_spec(), seed);
//   EdgePopulation pop(gen, partition_cfg);
//   auto zoo = make_modular(TaskModel::kResNet18, {3, 8, 8}, 10);
//   NebulaSystem nebula(std::move(zoo), pop, profiles, cfg);
//   nebula.offline(pop.proxy_data_ex(3000));     // on-cloud prototyping
//   for (int r = 0; r < rounds; ++r) nebula.round();  // collaborative adapt
//   float acc = nebula.eval_device(k);
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ability.h"
#include "core/aggregation.h"
#include "core/derivation.h"
#include "core/model_zoo.h"
#include "core/train.h"
#include "data/partition.h"
#include "sim/cost_model.h"
#include "sim/device.h"
#include "sim/faults.h"

namespace nebula {

/// Server-side policy for surviving faulty rounds (DESIGN.md §9). Always in
/// force; it only changes behaviour when transfers actually fail, uploads
/// arrive damaged, or a deadline/quorum is configured — with no faults the
/// round is bit-identical to the fair-weather protocol.
struct FaultPolicy {
  /// Per-transfer attempts (1 = no retry) with capped exponential backoff.
  int max_transfer_attempts = 3;
  double backoff_base_s = 0.5;
  double backoff_cap_s = 4.0;
  /// Round deadline in estimated wall-seconds; devices whose download +
  /// train + upload estimate exceeds it are stragglers. 0 disables.
  double round_deadline_s = 0.0;
  /// Weight applied to a straggler's late update (scales importance and
  /// sample count). 0 drops late updates entirely.
  float staleness_factor = 0.0f;
  /// Fewer surviving updates than this skips aggregation for the round,
  /// leaving the cloud model untouched.
  std::int64_t min_quorum = 1;
  /// RMS bound for server-side update validation (0 disables the norm
  /// check; shape and finiteness checks are always on).
  double norm_bound_rms = 1e3;
  /// Robust aggregation policy for full rounds (DESIGN.md §13): which
  /// statistic folds co-updates and whether anomaly scores quarantine
  /// updates before aggregation. The default is the paper's weighted mean
  /// and is bit-identical to the pre-robust protocol.
  RobustAggregationConfig robust;
  /// Quarantine probation: a rejected device keeps participating but its
  /// updates are withheld until it validates cleanly this many consecutive
  /// rounds, after which it is readmitted. 0 keeps the legacy behaviour
  /// (rejection is per-round only, no quarantine state).
  int probation_clean_rounds = 0;
};

/// Host wall-clock seconds spent in each phase of one round (measured on the
/// coordinating process, not the simulated device clock).
struct RoundPhaseTimes {
  double derive_s = 0.0;     // importance scoring + knapsack derivation
  double train_s = 0.0;      // local training + update packing
  double validate_s = 0.0;   // server-side update validation
  double aggregate_s = 0.0;  // module-wise aggregation
  double total_s = 0.0;      // whole round() call
};

/// What happened in one collaborative round. Devices appear in exactly one
/// of completed / dropped / rejected; `straggled` additionally lists devices
/// that missed the deadline (kept down-weighted when the staleness policy
/// allows, otherwise counted only here).
struct RoundReport {
  std::int64_t round_index = 0;            // monotonic across the system
  std::vector<std::int64_t> participants;  // sampled this round
  std::vector<std::int64_t> completed;     // update aggregated into the cloud
  std::vector<std::int64_t> dropped;       // dropout, crash, or dead link
  std::vector<std::int64_t> straggled;     // estimate exceeded the deadline
  std::vector<std::int64_t> rejected;      // quarantined by validation
  /// Quarantined devices on probation this round: they participated and
  /// validated, but their updates were withheld from aggregation while they
  /// re-earn trust (FaultPolicy::probation_clean_rounds).
  std::vector<std::int64_t> probation;
  /// Per-reason split of `rejected`: structural verdicts (shape/sample-count
  /// lies), norm verdicts (non-finite / out-of-bound payloads), and
  /// robust-score rejections at aggregation time. Sums to rejected.size().
  std::int64_t rejected_structural = 0;
  std::int64_t rejected_norm = 0;
  std::int64_t rejected_robust = 0;
  /// Anomaly scores of the updates that reached aggregation (completed +
  /// robust-rejected devices, in participant order). Empty when the quorum
  /// was unmet or robust aggregation is inactive.
  std::vector<double> robust_scores;
  std::int64_t transfer_retries = 0;       // failed attempts that were retried
  /// Staleness weight applied to each straggler that was kept (parallel to
  /// `straggled`; 0 when the update was discarded).
  std::vector<double> staleness_weights;
  /// Simulated per-device latencies, parallel to `participants` (0 for
  /// devices that dropped before doing any work). wall = train + comm;
  /// `comm` includes retry backoff. These feed the flight recorder's
  /// latency quantile digests (DESIGN.md §14) and summary() percentiles.
  std::vector<double> device_wall_s;
  std::vector<double> device_train_s;
  std::vector<double> device_comm_s;
  /// This round's CommLedger deltas. `attempted_bytes` is accumulated
  /// independently, one add per transfer attempt, and round() checks
  /// attempted == goodput + overhead — a genuine two-path conservation
  /// check on the traffic accounting.
  std::int64_t goodput_bytes = 0;
  std::int64_t overhead_bytes = 0;
  std::int64_t attempted_bytes = 0;
  /// Selector routing over this round's derivations (soft view, averaged
  /// over participants and layers): normalized entropy in [0,1] (1 =
  /// uniform) and peak-to-mean imbalance in [1,N].
  double routing_entropy = 0.0;
  double routing_imbalance = 1.0;
  RoundPhaseTimes host_phases;  // measured host time, not simulated time
  double wall_time_s = 0.0;  // estimated round wall time (slowest survivor)
  bool aggregated = false;   // quorum met and the cloud model was updated

  /// One-line human-readable digest for CLI / bench output.
  std::string summary() const;
};

struct NebulaConfig {
  TrainConfig pretrain;              // offline end-to-end training
  AbilityConfig ability;             // §4.3 enhancement (fine-tune inside)
  TrainConfig edge;                  // on-device sub-model updates
  bool enable_ability = true;        // ablation switch
  std::int64_t devices_per_round = 10;
  std::int64_t top_k = 2;
  AggregationWeighting weighting = AggregationWeighting::kImportance;
  /// Server mixing rate for single-device continuous updates (adapt_device
  /// with upload): blend the device's update into the cloud instead of
  /// replacing module state outright. Full rounds always use 1.0 — the
  /// asymmetry is intentional (DESIGN.md §5): a multi-device round already
  /// averages across the fleet, while aggregating one device's update with
  /// weight 1 would overwrite fleet knowledge.
  float online_mix = 0.25f;
  /// Device budget as a fraction of the *original* model cost (the paper's
  /// sub-model size ratio), interpolated over the fleet's memory capacities:
  /// fraction = lo + (hi-lo) * cap/capmax.
  double budget_lo = 0.35;
  double budget_hi = 0.8;
  std::uint64_t seed = 7;
  /// Fault-tolerance policy for the round protocol (retry, deadline,
  /// quarantine, quorum).
  FaultPolicy fault_policy;

  NebulaConfig() {
    pretrain.epochs = 8;
    pretrain.lr = 0.05f;
    ability.finetune.epochs = 3;
    edge.epochs = 3;
    edge.lr = 0.02f;
    edge.train_selector = false;  // selector is frozen on devices
    edge.noise_std = 0.0f;
  }
};

class NebulaSystem {
 public:
  NebulaSystem(ZooModel cloud, EdgePopulation& pop,
               std::vector<DeviceProfile> profiles, NebulaConfig cfg);

  // ---- Offline stage (§4) ----------------------------------------------------

  /// End-to-end trains the modularized cloud model on proxy data, then (if
  /// enabled) runs module ability-enhancing training. Returns the ability
  /// result when it ran.
  std::optional<AbilityResult> offline(const SyntheticData& proxy);

  // ---- Online stage (§5) -----------------------------------------------------

  /// Device k's module importance scores from the (locally held) selector.
  std::vector<std::vector<double>> device_importance(std::int64_t k);

  /// Derives a personalized sub-model spec for device k under its budget.
  DerivationResult derive(std::int64_t k);

  /// One collaborative adaptation round: sample devices, derive + download
  /// sub-models, local training, upload, module-wise aggregation. When a
  /// fault injector is attached the round survives dropouts, stragglers,
  /// flaky links and corrupted payloads per `cfg.fault_policy`: transfers
  /// retry with capped exponential backoff, estimates past the deadline are
  /// dropped or down-weighted, uploads are validated and quarantined before
  /// touching the cloud, and aggregation is skipped below quorum.
  ///
  /// Per-device work runs on `ThreadPool::global()` and is bit-identical to
  /// serial execution for any worker count (DESIGN.md §11): training seeds
  /// are derived per (round, device), every device accumulates into a
  /// private slot, and slots merge in participant order after the barrier.
  RoundReport round();

  /// Fine-grained step for continuous-adaptation experiments: refresh device
  /// k's resident sub-model. `query_cloud` re-derives from the cloud
  /// (counted in the ledger); `local_train` updates it on local data;
  /// `upload` sends the update back and aggregates immediately.
  void adapt_device(std::int64_t k, bool query_cloud, bool local_train,
                    bool upload);

  /// Accuracy of device k's resident sub-model on a fresh sample of its
  /// current local task (derives one first if the device holds none).
  float eval_device(std::int64_t k, std::int64_t test_n = 256);

  /// Accuracy of a sub-model freshly derived from the current cloud model.
  float eval_derived(std::int64_t k, std::int64_t test_n = 256);

  /// Pure evaluation of device k's resident sub-model on a caller-provided
  /// test set. Requires the resident model to exist (throws otherwise): no
  /// lazy adaptation, no test-set draw, no ledger traffic — safe to call
  /// for distinct devices concurrently (experiment eval loops do).
  float eval_resident_on(std::int64_t k, const Dataset& test);

  /// Same, evaluating a sub-model freshly derived from the current cloud
  /// model (derivation and sub-model cloning are const on the cloud).
  float eval_derived_on(std::int64_t k, const Dataset& test);

  // ---- Introspection ----------------------------------------------------------

  ModularModel& cloud() { return *cloud_; }
  /// On-device training hyper-parameters (mutable: experiments vary local
  /// epochs between the round-based and continuous protocols).
  TrainConfig& edge_config() { return cfg_.edge; }
  ModuleSelector& selector() { return *selector_; }
  const SubmodelDerivation& derivation() const { return *derivation_; }
  CommLedger& ledger() { return ledger_; }
  EdgePopulation& population() { return pop_; }
  const DeviceProfile& profile(std::int64_t k) const {
    return profiles_.at(static_cast<std::size_t>(k));
  }
  double budget_fraction_for(std::int64_t k) const;
  const SubmodelSpec* resident_spec(std::int64_t k) const;

  // ---- Fault injection --------------------------------------------------------

  /// Attaches a fault injector built from `cfg`; subsequent rounds draw
  /// device fates from it. Replaces any previous injector.
  void inject_faults(const FaultConfig& cfg);
  void clear_faults() { faults_.reset(); }
  const FaultInjector* faults() const { return faults_.get(); }

  /// Whether device k is currently quarantined (on probation — its updates
  /// are withheld from aggregation until it re-earns trust).
  bool is_quarantined(std::int64_t k) const {
    return probation_clean_.at(static_cast<std::size_t>(k)) >= 0;
  }
  /// Forces device k into quarantine (test/operator hook; rounds put
  /// devices there automatically when probation is enabled and a device's
  /// update is rejected).
  void quarantine_device(std::int64_t k) {
    probation_clean_.at(static_cast<std::size_t>(k)) = 0;
  }

  /// Bytes to download a sub-model for device k: modules + shared state,
  /// plus the (immutable) unified selector if this device has never
  /// successfully fetched anything — devices cache the selector, it never
  /// changes during the online stage. Pure size computation: call
  /// `mark_selector_cached` once the transfer actually succeeds, otherwise
  /// a failed download would undercount all future traffic.
  std::int64_t download_bytes(const SubmodelSpec& spec,
                              std::int64_t device) const;

  /// Commits the selector-cache flag after a successful first download.
  void mark_selector_cached(std::int64_t device) {
    selector_cached_.at(static_cast<std::size_t>(device)) = 1;
  }

  /// Builds an executable sub-model from the current cloud model.
  std::unique_ptr<ModularModel> build_submodel(const SubmodelSpec& spec) {
    return cloud_->derive_submodel(spec);
  }

  /// Checkpoints the cloud model + selector to one state file, so a trained
  /// system survives process restarts (load into a system built from the
  /// same factory/config).
  void save_cloud(const std::string& path);
  void load_cloud(const std::string& path);

 private:
  struct EdgeState {
    std::unique_ptr<ModularModel> model;
    SubmodelSpec spec;
  };

  /// Per-participant working state for one round. Inside the parallel
  /// region each device writes only its own slot (plus its own entries of
  /// edge_states_ / selector_cached_); round() merges slots in participant
  /// order after the barrier, which is what keeps the report, the ledger
  /// and the aggregation order bit-identical to serial execution.
  struct DeviceRoundSlot {
    enum class Outcome { kDropped, kCut, kRejected, kCompleted };
    std::int64_t device = -1;
    Outcome outcome = Outcome::kDropped;
    bool straggled = false;
    double staleness_weight = 0.0;    // 0 when the update was discarded
    UpdateVerdict verdict = UpdateVerdict::kOk;
    EdgeUpdate update;                // valid only when kCompleted
    double wall_s = 0.0;              // simulated device wall time
    double train_s = 0.0;             // simulated local-training time
    double comm_s = 0.0;              // simulated transfer + backoff time
    std::int64_t transfer_retries = 0;
    std::int64_t attempted_bytes = 0;
    CommLedger ledger;                // this device's traffic delta
    double entropy_sum = 0.0;
    double imbalance_sum = 0.0;
    std::int64_t routing_samples = 0;
    RoundPhaseTimes phases;           // host-time contributions
  };

  std::vector<std::int64_t> proxy_subtasks(const SyntheticData& proxy) const;
  /// Derivation from pre-computed importance scores — round() scores each
  /// participant once and reuses the result for both derivation and the
  /// report's routing statistics.
  DerivationResult derive_with(
      const std::vector<std::vector<double>>& importance, std::int64_t k);
  /// The whole per-device leg of one round (derive → download → train →
  /// upload → validate), writing into the device's slot only.
  void run_round_device(std::int64_t round_idx, DeviceRoundSlot& slot);
  /// `seed` is derived per (round, device) / per adaptation call rather
  /// than drawn from the shared rng_, so concurrent devices never race on
  /// (or reorder) a shared stream.
  EdgeUpdate train_and_pack(std::int64_t k, ModularModel& submodel,
                            std::uint64_t seed);
  /// Runs one transfer (download/upload) with retry + capped exponential
  /// backoff. Returns success; accumulates wall time, traffic (goodput on
  /// success, waste on failures) and retries into the device's slot.
  bool faulted_transfer(std::int64_t round_idx, std::int64_t k,
                        std::int64_t transfer_idx, std::int64_t bytes,
                        const DeviceFate& fate, DeviceRoundSlot& slot);
  void apply_corruption(EdgeUpdate& up, CorruptionKind kind, Rng& rng) const;
  /// Rewrites a Byzantine device's upload in place (sign-flip / scale /
  /// colluding same-direction, per the injector's config). Colluders derive
  /// identical per-payload collusion keys, so their junk agrees exactly.
  void apply_byzantine(EdgeUpdate& up, std::int64_t round_idx) const;

  std::unique_ptr<ModularModel> cloud_;
  std::unique_ptr<ModuleSelector> selector_;
  EdgePopulation& pop_;
  std::vector<DeviceProfile> profiles_;
  NebulaConfig cfg_;
  std::unique_ptr<SubmodelDerivation> derivation_;
  std::vector<EdgeState> edge_states_;
  /// Byte-per-device on purpose: vector<bool> packs neighbouring devices
  /// into one byte, and concurrent per-device writes in the parallel round
  /// would race on the shared byte.
  std::vector<std::uint8_t> selector_cached_;
  /// Per-device count of local-training adaptation calls; coordinates for
  /// adapt_device's derived training seeds (independent across devices).
  std::vector<std::int64_t> adapt_counts_;
  CommLedger ledger_;
  Rng rng_;
  double cap_max_ = 1.0;
  std::unique_ptr<FaultInjector> faults_;
  std::int64_t round_index_ = 0;
  /// Quarantine state per device: -1 = trusted, >= 0 = quarantined with that
  /// many consecutive clean validations so far. Only mutated in the serial
  /// merge of round() (and the quarantine_device hook), never in the
  /// parallel region.
  std::vector<std::int64_t> probation_clean_;
};

}  // namespace nebula
