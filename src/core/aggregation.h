// Module-wise sub-model aggregation (paper §5.2).
//
// Each module i is updated as the importance-weighted average of its copies
// in the sub-models that contain it, with weights normalised over that set —
// so a module is only ever averaged across devices whose data actually
// exercises it, minimising the parameter conflicts that plain FedAvg suffers
// under non-IID data. Shared components (stem/bridges/head) are averaged
// FedAvg-style by local sample count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/modular_model.h"

namespace nebula {

/// A device's upload after local training.
struct EdgeUpdate {
  SubmodelSpec spec;
  /// Per layer (aligned with spec.modules[l]): flat module states.
  std::vector<std::vector<std::vector<float>>> module_states;
  /// Flat stem/bridges/head state.
  std::vector<float> shared_state;
  /// Per layer, per *global* id: this device's importance scores.
  std::vector<std::vector<double>> importance;
  std::int64_t num_samples = 0;

  /// Upload payload size in bytes (module + shared states).
  std::int64_t payload_bytes() const;
};

enum class AggregationWeighting {
  kImportance,  // the paper's scheme
  kUniform,     // ablation: plain overlap averaging
};

/// Server-side verdict on an uploaded update before it may touch the cloud.
enum class UpdateVerdict {
  kOk,
  kLayerCountMismatch,  // wrong number of module layers / importance rows
  kStateSizeMismatch,   // a module id (out of range or repeated in a layer)
                        // or payload doesn't match the cloud spec
  kNonFinite,           // NaN/Inf anywhere in the payload
  kNormBound,           // payload RMS exceeds the configured bound
  kNoSamples,           // claims zero (or negative) training samples
  kRobustOutlier,       // anomaly score flagged it at aggregation time
};

const char* update_verdict_name(UpdateVerdict v);

/// Rejection-reason buckets for RoundReport accounting: structural verdicts
/// (shape/sample-count lies), norm verdicts (non-finite or out-of-bound
/// payloads); kRobustOutlier forms the third bucket on its own.
bool verdict_is_structural(UpdateVerdict v);
bool verdict_is_norm(UpdateVerdict v);

/// Which statistic the server folds co-updates of one module with. The
/// weighted mean is the paper's scheme (and the bit-identical default); the
/// other three survive Byzantine uploads that pass validation — a sign-flip
/// preserves RMS, so only a cross-device robust statistic can catch it.
enum class RobustAggregatorKind {
  kWeightedMean,  // importance/sample-weighted average (paper §5.2)
  kMedian,        // coordinate-wise median
  kTrimmedMean,   // coordinate-wise mean after trimming each tail
  kKrum,          // per-module Krum: keep the candidate closest to its peers
};

const char* robust_aggregator_name(RobustAggregatorKind k);

/// Median of `v` (mean of the two middle values for an even size, 0 when
/// empty). Reorders `v` instead of copying it.
double median_in_place(std::vector<double>& v);

/// Coordinate-wise median of equal-length, finite `states` (at least one),
/// in double: the middle value, or for an even count 0.5 * (upper + lower
/// middle value). Each coordinate's values are ordered by one sorting
/// network (DESIGN.md §13), so the result equals an nth_element median bit
/// for bit, except that a zero median may carry either sign when -0 and +0
/// both sit at the median rank.
std::vector<double> coordinate_median(
    const std::vector<const std::vector<float>*>& states);

/// Coordinate-wise mean of equal-length, finite `states` after dropping the
/// `trim` smallest and `trim` largest values of each coordinate (2 * trim
/// must be below the state count). The kept values are summed in ascending
/// order in double, from +0, then divided by their count.
std::vector<double> coordinate_trimmed_mean(
    const std::vector<const std::vector<float>*>& states, std::size_t trim);

/// Robust-aggregation policy. The default (weighted mean, no anomaly gate)
/// reproduces the original aggregation path bit-for-bit.
struct RobustAggregationConfig {
  RobustAggregatorKind kind = RobustAggregatorKind::kWeightedMean;
  /// kTrimmedMean: fraction of candidates removed from *each* tail per
  /// coordinate (floor(trim_fraction · n) values a side).
  double trim_fraction = 0.2;
  /// kKrum: assumed Byzantine count f — each candidate is scored by the sum
  /// of squared distances to its n-f-2 nearest co-updates. 0 derives n/4.
  std::int64_t krum_assumed_byzantine = 0;
  /// Anomaly-score quarantine: updates scoring above this are rejected
  /// before aggregation, under any `kind`. Scores are scale-free distance
  /// ratios (a conforming update scores ~1, a sign-flipped one far more);
  /// 0 disables the gate. Useful range ~3–8.
  double anomaly_threshold = 0.0;

  bool active() const {
    return kind != RobustAggregatorKind::kWeightedMean ||
           anomaly_threshold > 0.0;
  }
};

/// What one aggregation call decided about its inputs.
struct AggregationOutcome {
  bool applied = false;  // at least one surviving update touched the cloud
  /// Indices into `updates` quarantined by validate_update.
  std::vector<std::size_t> invalid;
  /// Indices rejected by the anomaly-score gate (robust quarantine).
  std::vector<std::size_t> robust_rejected;
  /// Per-update anomaly score, parallel to `updates`. 0 when scoring was
  /// inactive, the update was invalid, or it had too few co-updates on
  /// every payload to be judged (outliers need a majority to stand out of).
  std::vector<double> anomaly_scores;
};

/// Validates `up` against `cloud`'s architecture: layer counts, module ids
/// (in range, each at most once per layer), per-module and shared state
/// sizes vs. the spec, finiteness of every parameter, and
/// (when `norm_bound_rms` > 0) an RMS bound on module/shared payloads.
/// Never mutates the cloud. Returns the first failure found.
UpdateVerdict validate_update(ModularModel& cloud, const EdgeUpdate& up,
                              double norm_bound_rms = 0.0);

/// Applies module-wise weighted aggregation of `updates` into `cloud`.
/// Modules not present in any update keep their cloud parameters.
/// `server_mix` blends the aggregate with the existing cloud state:
/// new = (1-mix)·cloud + mix·aggregate. Use 1.0 for full synchronous rounds
/// (FedAvg-style replacement) and a smaller value for continuous single-
/// device updates, where replacement would let one biased device overwrite
/// knowledge contributed by the rest of the fleet.
///
/// Robustness: every update is validated (validate_update, structural +
/// finiteness checks) *before* any cloud parameter changes; invalid updates
/// are quarantined — skipped, never partially applied — and if none survive
/// the call is a no-op. The cloud model therefore stays finite and
/// structurally intact whatever arrives from the network.
///
/// The per-module statistic is chosen by `robust.kind`, with an optional
/// pre-pass that scores every valid update for anomaly (scale-free distance
/// to the coordinate-wise median of its co-updates) and rejects those above
/// `robust.anomaly_threshold`. The default config is the plain weighted
/// mean. The median / trimmed-mean / Krum statistics ignore importance
/// weights (a robust statistic an attacker can re-weight isn't robust);
/// shared components use the same statistic over all surviving updates.
AggregationOutcome aggregate_module_wise_robust(
    ModularModel& cloud, const std::vector<EdgeUpdate>& updates,
    AggregationWeighting weighting = AggregationWeighting::kImportance,
    float server_mix = 1.0f, const RobustAggregationConfig& robust = {});

/// Builds the upload for a trained sub-model (copies its states out).
EdgeUpdate make_edge_update(ModularModel& submodel,
                            std::vector<std::vector<double>> importance,
                            std::int64_t num_samples);

}  // namespace nebula
