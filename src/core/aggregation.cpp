#include "core/aggregation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nebula {

namespace {

// A float is Inf or NaN exactly when its exponent bits are all ones. The
// flags are OR-ed without an early exit, so the loop has no branch on the
// data and vectorises.
bool all_finite(const std::vector<float>& v) {
  constexpr std::uint32_t kExponent = 0x7f800000u;
  std::uint32_t non_finite = 0;
  for (float x : v) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
    non_finite |= static_cast<std::uint32_t>((bits & kExponent) == kExponent);
  }
  return non_finite == 0;
}

bool rms_within(const std::vector<float>& v, double bound) {
  if (bound <= 0.0 || v.empty()) return true;
  double ss = 0.0;
  for (float x : v) ss += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(ss / static_cast<double>(v.size())) <= bound;
}

}  // namespace

double median_in_place(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    m = 0.5 * (m + *std::max_element(
                        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)));
  }
  return m;
}

namespace {

/// Coordinates per sorted block: one 64-byte row of floats per carrier.
constexpr std::size_t kLanes = 16;

/// Comparator pairs (i, j), i < j, of Batcher's odd-even merge sort for `n`
/// rows, in network order: the power-of-two network with every comparator
/// that touches a row >= n pruned (such rows act as +Inf padding that never
/// moves, so the pruned network still sorts).
std::vector<std::pair<std::size_t, std::size_t>> odd_even_merge_pairs(
    std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t p = 1; p < n; p <<= 1) {
    for (std::size_t k = p; k >= 1; k >>= 1) {
      for (std::size_t j = k % p; j + k < n; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < n; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            pairs.emplace_back(i + j, i + j + k);
          }
        }
      }
    }
  }
  return pairs;
}

/// Compare-exchange of two block rows, lane by lane: `a` keeps the smaller
/// value, `b` the larger. Swaps only when b < a, so values are moved, never
/// recomputed, and equal ones stay put. Kept out of any lambda and written
/// as selects into local rows so that GCC emits packed compares.
inline void compare_exchange(float* __restrict a, float* __restrict b) {
  float lo[kLanes] = {};
  float hi[kLanes] = {};
  for (std::size_t t = 0; t < kLanes; ++t) {
    const bool swap = b[t] < a[t];
    lo[t] = swap ? b[t] : a[t];
    hi[t] = swap ? a[t] : b[t];
  }
  for (std::size_t t = 0; t < kLanes; ++t) {
    a[t] = lo[t];
    b[t] = hi[t];
  }
}

/// Sorts every coordinate's values across the equal-length `states`
/// (finite values only) and hands each sorted column to
/// `visit(i, col)`, where col[r * kLanes] is the r-th smallest value of
/// coordinate i. Coordinates go kLanes at a time through an n x kLanes
/// block that one sorting network orders column by column; lanes past the
/// end of the states hold stale values that are never visited.
template <class Visit>
void for_each_sorted_column(
    const std::vector<const std::vector<float>*>& states, Visit&& visit) {
  const std::size_t n = states.size();
  const std::size_t width = states.front()->size();
  const auto pairs = odd_even_merge_pairs(n);
  std::vector<float> block(n * kLanes, 0.0f);
  for (std::size_t i0 = 0; i0 < width; i0 += kLanes) {
    const std::size_t w = std::min(kLanes, width - i0);
    for (std::size_t k = 0; k < n; ++k) {
      const float* src = states[k]->data() + i0;
      float* row = block.data() + k * kLanes;
      // A fixed-size copy for full blocks stays inline (no memmove call).
      if (w == kLanes) {
        std::copy_n(src, kLanes, row);
      } else {
        std::copy_n(src, w, row);
      }
    }
    for (const auto& [a, b] : pairs) {
      compare_exchange(block.data() + a * kLanes, block.data() + b * kLanes);
    }
    for (std::size_t t = 0; t < w; ++t) visit(i0 + t, block.data() + t);
  }
}

}  // namespace

std::vector<double> coordinate_median(
    const std::vector<const std::vector<float>*>& states) {
  NEBULA_CHECK(!states.empty());
  std::vector<double> med(states.front()->size());
  const std::size_t n = states.size();
  const std::size_t mid = n / 2;
  for_each_sorted_column(states, [&](std::size_t i, const float* col) {
    double m = col[mid * kLanes];
    if (n % 2 == 0) m = 0.5 * (m + col[(mid - 1) * kLanes]);
    med[i] = m;
  });
  return med;
}

std::vector<double> coordinate_trimmed_mean(
    const std::vector<const std::vector<float>*>& states, std::size_t trim) {
  const std::size_t n = states.size();
  NEBULA_CHECK(2 * trim < n);
  std::vector<double> mean(states.front()->size());
  const double kept = static_cast<double>(n - 2 * trim);
  for_each_sorted_column(states, [&](std::size_t i, const float* col) {
    double sum = 0.0;
    for (std::size_t r = trim; r < n - trim; ++r) sum += col[r * kLanes];
    mean[i] = sum / kept;
  });
  return mean;
}

namespace {

double rms_distance(const std::vector<float>& s,
                    const std::vector<double>& center) {
  if (s.empty()) return 0.0;
  double ss = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double d = static_cast<double>(s[i]) - center[i];
    ss += d * d;
  }
  return std::sqrt(ss / static_cast<double>(s.size()));
}

/// Krum winner: the candidate with the smallest sum of squared distances to
/// its n-f-2 nearest co-candidates (ties break toward the earlier update,
/// i.e. participant order — deterministic).
std::size_t krum_winner(const std::vector<const std::vector<float>*>& states,
                        std::int64_t assumed_byzantine) {
  const std::size_t n = states.size();
  if (n <= 2) return 0;
  std::int64_t f = assumed_byzantine > 0
                       ? assumed_byzantine
                       : static_cast<std::int64_t>(n) / 4;
  f = std::min<std::int64_t>(f, static_cast<std::int64_t>(n) - 3);
  const std::size_t neighbors = static_cast<std::size_t>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(n) - f - 2));
  // Pairwise squared distances (n is a round's participant count — tiny).
  std::vector<double> dist(n * n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      double ss = 0.0;
      const auto& sa = *states[a];
      const auto& sb = *states[b];
      for (std::size_t i = 0; i < sa.size(); ++i) {
        const double d = static_cast<double>(sa[i]) - static_cast<double>(sb[i]);
        ss += d * d;
      }
      dist[a * n + b] = dist[b * n + a] = ss;
    }
  }
  std::size_t best = 0;
  double best_score = 0.0;
  std::vector<double> row(n - 1);
  for (std::size_t a = 0; a < n; ++a) {
    std::size_t w = 0;
    for (std::size_t b = 0; b < n; ++b) {
      if (b != a) row[w++] = dist[a * n + b];
    }
    std::sort(row.begin(), row.end());
    double score = 0.0;
    for (std::size_t i = 0; i < std::min(neighbors, row.size()); ++i) {
      score += row[i];
    }
    if (a == 0 || score < best_score) {
      best = a;
      best_score = score;
    }
  }
  return best;
}

/// Folds one robust per-coordinate statistic of `states` into `merged`
/// (already scaled by 1-mix). Weighted mean is handled by the caller.
void fold_robust(std::vector<float>& merged,
                 const std::vector<const std::vector<float>*>& states,
                 float server_mix, const RobustAggregationConfig& robust) {
  const std::size_t n = states.size();
  switch (robust.kind) {
    case RobustAggregatorKind::kWeightedMean:
      NEBULA_CHECK_MSG(false, "weighted mean is not a fold_robust statistic");
      return;
    case RobustAggregatorKind::kMedian:
    case RobustAggregatorKind::kTrimmedMean: {
      std::vector<double> stat;
      if (robust.kind == RobustAggregatorKind::kMedian) {
        stat = coordinate_median(states);
      } else {
        std::size_t trim = static_cast<std::size_t>(
            std::max(0.0, robust.trim_fraction) * static_cast<double>(n));
        if (2 * trim >= n) trim = (n - 1) / 2;
        stat = coordinate_trimmed_mean(states, trim);
      }
      for (std::size_t i = 0; i < merged.size(); ++i) {
        merged[i] += server_mix * static_cast<float>(stat[i]);
      }
      return;
    }
    case RobustAggregatorKind::kKrum: {
      const auto& winner = *states[krum_winner(states,
                                               robust.krum_assumed_byzantine)];
      for (std::size_t i = 0; i < merged.size(); ++i) {
        merged[i] += server_mix * winner[i];
      }
      return;
    }
  }
}

/// Scale-free anomaly scores over the valid updates: for every payload
/// (module or shared state) with >= 3 carriers, each carrier's RMS distance
/// to the coordinate-wise median is divided by the median of those
/// distances; an update's score is the mean ratio over its scored payloads.
/// Honest updates land near 1; a sign-flipped or re-directed one lands at a
/// large multiple, however large or small the parameters themselves are.
std::vector<double> anomaly_scores_for(
    ModularModel& cloud, const std::vector<const EdgeUpdate*>& valid) {
  constexpr double kEps = 1e-12;
  constexpr std::size_t kMinCarriers = 3;
  std::vector<double> score_sum(valid.size(), 0.0);
  std::vector<std::int64_t> score_n(valid.size(), 0);
  auto score_payload = [&](const std::vector<std::size_t>& carriers,
                           const std::vector<const std::vector<float>*>& states) {
    if (carriers.size() < kMinCarriers || states.front()->empty()) return;
    const std::vector<double> med = coordinate_median(states);
    std::vector<double> d(carriers.size());
    for (std::size_t k = 0; k < carriers.size(); ++k) {
      d[k] = rms_distance(*states[k], med);
    }
    std::vector<double> order = d;  // d itself is read again below
    const double scale = median_in_place(order);
    for (std::size_t k = 0; k < carriers.size(); ++k) {
      score_sum[carriers[k]] += d[k] / (scale + kEps);
      ++score_n[carriers[k]];
    }
  };

  const std::size_t l_count = cloud.num_module_layers();
  for (std::size_t l = 0; l < l_count; ++l) {
    for (std::int64_t gid = 0; gid < cloud.full_widths()[l]; ++gid) {
      std::vector<std::size_t> carriers;
      std::vector<const std::vector<float>*> states;
      for (std::size_t u = 0; u < valid.size(); ++u) {
        const auto& ids = valid[u]->spec.modules[l];
        const auto it = std::find(ids.begin(), ids.end(), gid);
        if (it == ids.end()) continue;
        carriers.push_back(u);
        states.push_back(&valid[u]->module_states[l][static_cast<std::size_t>(
            it - ids.begin())]);
      }
      if (!carriers.empty()) score_payload(carriers, states);
    }
  }
  // Shared components: every update carries them, so this payload is the
  // one a small round can always be judged on.
  {
    std::vector<std::size_t> carriers(valid.size());
    std::vector<const std::vector<float>*> states(valid.size());
    for (std::size_t u = 0; u < valid.size(); ++u) {
      carriers[u] = u;
      states[u] = &valid[u]->shared_state;
    }
    score_payload(carriers, states);
  }

  std::vector<double> scores(valid.size(), 0.0);
  for (std::size_t u = 0; u < valid.size(); ++u) {
    if (score_n[u] > 0) {
      scores[u] = score_sum[u] / static_cast<double>(score_n[u]);
    }
  }
  return scores;
}

}  // namespace

const char* update_verdict_name(UpdateVerdict v) {
  switch (v) {
    case UpdateVerdict::kOk: return "ok";
    case UpdateVerdict::kLayerCountMismatch: return "layer-count-mismatch";
    case UpdateVerdict::kStateSizeMismatch: return "state-size-mismatch";
    case UpdateVerdict::kNonFinite: return "non-finite";
    case UpdateVerdict::kNormBound: return "norm-bound";
    case UpdateVerdict::kNoSamples: return "no-samples";
    case UpdateVerdict::kRobustOutlier: return "robust-outlier";
  }
  return "?";
}

bool verdict_is_structural(UpdateVerdict v) {
  return v == UpdateVerdict::kLayerCountMismatch ||
         v == UpdateVerdict::kStateSizeMismatch ||
         v == UpdateVerdict::kNoSamples;
}

bool verdict_is_norm(UpdateVerdict v) {
  return v == UpdateVerdict::kNonFinite || v == UpdateVerdict::kNormBound;
}

const char* robust_aggregator_name(RobustAggregatorKind k) {
  switch (k) {
    case RobustAggregatorKind::kWeightedMean: return "weighted_mean";
    case RobustAggregatorKind::kMedian: return "median";
    case RobustAggregatorKind::kTrimmedMean: return "trimmed_mean";
    case RobustAggregatorKind::kKrum: return "krum";
  }
  return "?";
}

UpdateVerdict validate_update(ModularModel& cloud, const EdgeUpdate& up,
                              double norm_bound_rms) {
  const std::size_t l_count = cloud.num_module_layers();
  if (up.spec.modules.size() != l_count ||
      up.module_states.size() != l_count || up.importance.size() != l_count) {
    return UpdateVerdict::kLayerCountMismatch;
  }
  if (up.num_samples <= 0) return UpdateVerdict::kNoSamples;
  for (std::size_t l = 0; l < l_count; ++l) {
    const auto& ids = up.spec.modules[l];
    if (up.module_states[l].size() != ids.size()) {
      return UpdateVerdict::kStateSizeMismatch;
    }
    if (up.importance[l].size() !=
        static_cast<std::size_t>(cloud.full_widths()[l])) {
      return UpdateVerdict::kLayerCountMismatch;
    }
    for (double imp : up.importance[l]) {
      if (!std::isfinite(imp)) return UpdateVerdict::kNonFinite;
    }
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const std::int64_t gid = ids[j];
      if (gid < 0 || gid >= cloud.full_widths()[l]) {
        return UpdateVerdict::kStateSizeMismatch;
      }
      // A repeated id would be billed twice but folded once.
      if (std::find(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(j),
                    gid) != ids.begin() + static_cast<std::ptrdiff_t>(j)) {
        return UpdateVerdict::kStateSizeMismatch;
      }
      const auto& state = up.module_states[l][j];
      if (static_cast<std::int64_t>(state.size()) !=
          cloud.module_state_size(l, gid)) {
        return UpdateVerdict::kStateSizeMismatch;
      }
      if (!all_finite(state)) return UpdateVerdict::kNonFinite;
      if (!rms_within(state, norm_bound_rms)) return UpdateVerdict::kNormBound;
    }
  }
  if (static_cast<std::int64_t>(up.shared_state.size()) !=
      cloud.shared_state_size()) {
    return UpdateVerdict::kStateSizeMismatch;
  }
  if (!all_finite(up.shared_state)) return UpdateVerdict::kNonFinite;
  if (!rms_within(up.shared_state, norm_bound_rms)) {
    return UpdateVerdict::kNormBound;
  }
  return UpdateVerdict::kOk;
}

std::int64_t EdgeUpdate::payload_bytes() const {
  std::int64_t floats = static_cast<std::int64_t>(shared_state.size());
  for (const auto& layer : module_states) {
    for (const auto& m : layer) floats += static_cast<std::int64_t>(m.size());
  }
  return floats * static_cast<std::int64_t>(sizeof(float));
}

EdgeUpdate make_edge_update(ModularModel& submodel,
                            std::vector<std::vector<double>> importance,
                            std::int64_t num_samples) {
  EdgeUpdate up;
  up.spec = submodel.full_spec();
  up.importance = std::move(importance);
  up.num_samples = num_samples;
  up.shared_state = submodel.shared_state();
  up.module_states.resize(up.spec.modules.size());
  for (std::size_t l = 0; l < up.spec.modules.size(); ++l) {
    for (std::int64_t gid : up.spec.modules[l]) {
      up.module_states[l].push_back(submodel.module_state(l, gid));
    }
  }
  return up;
}

AggregationOutcome aggregate_module_wise_robust(
    ModularModel& cloud, const std::vector<EdgeUpdate>& updates,
    AggregationWeighting weighting, float server_mix,
    const RobustAggregationConfig& robust) {
  NEBULA_CHECK(server_mix > 0.0f && server_mix <= 1.0f);
  NEBULA_SPAN("aggregation.module_wise");
  static obs::Counter& m_updates = obs::counter("aggregation.updates");
  static obs::Counter& m_quarantined = obs::counter("aggregation.quarantined");
  static obs::Counter& m_robust_rejected =
      obs::counter("aggregation.robust_rejected");
  AggregationOutcome out;
  out.anomaly_scores.assign(updates.size(), 0.0);
  // Quarantine anything structurally wrong or non-finite *before* touching a
  // single cloud parameter, so a bad upload can never leave the cloud model
  // half-mutated or poisoned.
  std::vector<const EdgeUpdate*> valid;
  std::vector<std::size_t> valid_idx;
  valid.reserve(updates.size());
  valid_idx.reserve(updates.size());
  for (std::size_t u = 0; u < updates.size(); ++u) {
    if (validate_update(cloud, updates[u]) == UpdateVerdict::kOk) {
      valid.push_back(&updates[u]);
      valid_idx.push_back(u);
    } else {
      out.invalid.push_back(u);
    }
  }
  m_updates.add(static_cast<std::int64_t>(valid.size()));
  m_quarantined.add(static_cast<std::int64_t>(updates.size() - valid.size()));

  // Anomaly pre-pass: scale-free distance ratios over co-updates; anything
  // above the threshold is dropped before it can bias even a robust
  // statistic. Skipped entirely under the default config so the legacy path
  // performs exactly the original operations.
  if (robust.active() && !valid.empty()) {
    const std::vector<double> scores = anomaly_scores_for(cloud, valid);
    for (std::size_t k = 0; k < valid.size(); ++k) {
      out.anomaly_scores[valid_idx[k]] = scores[k];
    }
    if (robust.anomaly_threshold > 0.0) {
      std::vector<const EdgeUpdate*> kept;
      kept.reserve(valid.size());
      for (std::size_t k = 0; k < valid.size(); ++k) {
        if (scores[k] > robust.anomaly_threshold) {
          out.robust_rejected.push_back(valid_idx[k]);
        } else {
          kept.push_back(valid[k]);
        }
      }
      valid = std::move(kept);
      m_robust_rejected.add(
          static_cast<std::int64_t>(out.robust_rejected.size()));
    }
  }
  if (valid.empty()) return out;
  const std::size_t l_count = cloud.num_module_layers();
  const bool robust_fold = robust.kind != RobustAggregatorKind::kWeightedMean;

  // ---- Module-wise importance-weighted averaging -----------------------------
  for (std::size_t l = 0; l < l_count; ++l) {
    for (std::int64_t gid = 0; gid < cloud.full_widths()[l]; ++gid) {
      // Collect every update carrying this module.
      std::vector<const std::vector<float>*> states;
      std::vector<double> weights;
      for (const EdgeUpdate* upp : valid) {
        const auto& up = *upp;
        const auto& ids = up.spec.modules[l];
        const auto it = std::find(ids.begin(), ids.end(), gid);
        if (it == ids.end()) continue;
        const std::size_t local = static_cast<std::size_t>(it - ids.begin());
        states.push_back(&up.module_states[l][local]);
        const double w =
            weighting == AggregationWeighting::kImportance
                ? std::max(1e-9, up.importance[l][static_cast<std::size_t>(gid)])
                : 1.0;
        weights.push_back(w);
      }
      if (states.empty()) continue;  // untouched module keeps cloud weights
      std::vector<float> merged = cloud.module_state(l, gid);
      if (merged.empty()) continue;  // parameter-free module (identity)
      for (std::size_t k = 0; k < states.size(); ++k) {
        NEBULA_CHECK_MSG(states[k]->size() == merged.size(),
                         "module state size mismatch during aggregation");
      }
      for (auto& v : merged) v *= (1.0f - server_mix);
      if (robust_fold) {
        fold_robust(merged, states, server_mix, robust);
      } else {
        double wsum = 0.0;
        for (double w : weights) wsum += w;
        for (std::size_t k = 0; k < states.size(); ++k) {
          const float w = server_mix * static_cast<float>(weights[k] / wsum);
          const auto& s = *states[k];
          for (std::size_t i = 0; i < merged.size(); ++i) merged[i] += w * s[i];
        }
      }
      cloud.set_module_state(l, gid, merged);
    }
  }

  // ---- Shared components: FedAvg by sample count (or the robust statistic) ---
  std::vector<float> merged = cloud.shared_state();
  for (auto& v : merged) v *= (1.0f - server_mix);
  if (robust_fold) {
    std::vector<const std::vector<float>*> states;
    states.reserve(valid.size());
    for (const EdgeUpdate* up : valid) states.push_back(&up->shared_state);
    fold_robust(merged, states, server_mix, robust);
  } else {
    double n_total = 0.0;
    for (const EdgeUpdate* up : valid) {
      n_total += static_cast<double>(up->num_samples);
    }
    NEBULA_CHECK(n_total > 0.0);
    for (const EdgeUpdate* up : valid) {
      const float w =
          server_mix * static_cast<float>(up->num_samples / n_total);
      for (std::size_t i = 0; i < merged.size(); ++i) {
        merged[i] += w * up->shared_state[i];
      }
    }
  }
  cloud.set_shared_state(merged);
  out.applied = true;
  return out;
}

}  // namespace nebula
