// Module-wise sub-model aggregation tests (§5.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "core/aggregation.h"
#include "core/model_zoo.h"

namespace nebula {
namespace {

double sort_median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// The in-place median equals a sort-based median, and leaves a permutation
// of its input behind.
TEST(MedianInPlace, MatchesSortBasedMedian) {
  std::vector<std::vector<double>> cases = {
      {7.0},
      {3.0, 1.0, 2.0},
      {4.0, 1.0, 3.0, 2.0},
      {2.0, 2.0, 2.0, 1.0, 2.0},
      {5.0, 5.0, 1.0, 1.0},
      {-0.0, 0.0, 0.0},
      {0.0, -0.0},
      {-0.0, 0.0, -1.0, 1.0},
      {-0.0, -0.0, 0.0, 0.0, 3.0},
  };
  Rng rng(4040);
  for (std::size_t n = 1; n <= 40; ++n) {
    std::vector<double> v(n);
    // Few distinct values, so duplicates are common.
    for (double& x : v) x = static_cast<double>(rng.uniform_int(5)) - 2.0;
    cases.push_back(v);
  }
  for (const auto& c : cases) {
    std::vector<double> buf = c;
    const double got = median_in_place(buf);
    EXPECT_EQ(got, sort_median(c)) << "n=" << c.size();
    std::vector<double> a = buf, b = c;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "n=" << c.size();
  }
  std::vector<double> empty;
  EXPECT_EQ(median_in_place(empty), 0.0);
}

using States = std::vector<const std::vector<float>*>;

States pointers_to(const std::vector<std::vector<float>>& rows) {
  States states;
  for (const auto& r : rows) states.push_back(&r);
  return states;
}

// The coordinate-wise loops the sorted-block kernel replaced, kept verbatim
// (the nth_element median with a max_element lower half for even sizes,
// and the std::sort trimmed mean) as the reference it must match.
double nth_element_median(std::vector<double>& v) {
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

std::vector<double> reference_median(const States& states) {
  std::vector<double> med(states.front()->size(), 0.0);
  std::vector<double> col(states.size());
  for (std::size_t i = 0; i < med.size(); ++i) {
    for (std::size_t k = 0; k < states.size(); ++k) col[k] = (*states[k])[i];
    med[i] = nth_element_median(col);
  }
  return med;
}

std::vector<double> reference_trimmed_mean(const States& states,
                                           std::size_t trim) {
  const std::size_t n = states.size();
  std::vector<double> mean(states.front()->size(), 0.0);
  std::vector<double> col(n);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    for (std::size_t k = 0; k < n; ++k) col[k] = (*states[k])[i];
    std::sort(col.begin(), col.end());
    double sum = 0.0;
    for (std::size_t k = trim; k < n - trim; ++k) sum += col[k];
    mean[i] = sum / static_cast<double>(n - 2 * trim);
  }
  return mean;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// 0-1 principle: coordinate c of carrier k holds bit k of c, so one call
// over 2^n coordinates feeds the network every 0-1 input of size n. Every
// median and trimmed mean must come out exact; by the principle the median
// is then exact for every input of that n. The order inside a trimmed
// window, which the sum's rounding can see, is pinned by the next test.
TEST(CoordinateStatistics, ZeroOneInputsGiveExactStatistics) {
  for (std::size_t n = 1; n <= 16; ++n) {
    const std::size_t width = std::size_t{1} << n;
    std::vector<std::vector<float>> rows(n, std::vector<float>(width));
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t c = 0; c < width; ++c) {
        rows[k][c] = static_cast<float>((c >> k) & 1);
      }
    }
    const States states = pointers_to(rows);
    // Sorted, column c holds n - ones zeros and then `ones` ones.
    auto sorted_at = [n](std::size_t ones, std::size_t r) {
      return r >= n - ones ? 1.0 : 0.0;
    };
    const std::vector<double> med = coordinate_median(states);
    ASSERT_EQ(med.size(), width);
    const std::size_t mid = n / 2;
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t ones = static_cast<std::size_t>(std::popcount(c));
      const double want =
          n % 2 == 1 ? sorted_at(ones, mid)
                     : 0.5 * (sorted_at(ones, mid) + sorted_at(ones, mid - 1));
      ASSERT_EQ(med[c], want) << "n=" << n << " c=" << c;
    }
    for (std::size_t trim = 0; 2 * trim < n; ++trim) {
      const std::vector<double> mean = coordinate_trimmed_mean(states, trim);
      ASSERT_EQ(mean.size(), width);
      for (std::size_t c = 0; c < width; ++c) {
        const std::size_t ones = static_cast<std::size_t>(std::popcount(c));
        double sum = 0.0;
        for (std::size_t r = trim; r < n - trim; ++r) sum += sorted_at(ones, r);
        ASSERT_EQ(mean[c], sum / static_cast<double>(n - 2 * trim))
            << "n=" << n << " trim=" << trim << " c=" << c;
      }
    }
  }
}

// Bit for bit against the replaced loops, on data with duplicates, signed
// zeros, signed denormals, +-FLT_MAX and magnitudes wide enough that the
// trimmed sum's rounding depends on the order of its terms. The one
// documented exception: a zero median may differ in sign (nth_element's
// pick among equal values is unspecified), so zero medians are compared by
// value.
TEST(CoordinateStatistics, BitIdenticalToNthElementAndSortLoops) {
  const float palette[] = {0.0f,          -0.0f,         FLT_MAX,
                           -FLT_MAX,      FLT_TRUE_MIN,  -FLT_TRUE_MIN,
                           FLT_MIN / 4.0f, -FLT_MIN / 4.0f, 1.0f,
                           -1.0f,         0.5f,          3.0f};
  Rng rng(2323);
  for (std::size_t n = 1; n <= 64; ++n) {
    for (std::size_t width : {1, 15, 16, 17, 33, 1878}) {
      std::vector<std::vector<float>> rows(n, std::vector<float>(width));
      for (auto& row : rows) {
        for (float& x : row) {
          switch (rng.uniform_int(3)) {
            case 0: x = palette[rng.uniform_int(std::size(palette))]; break;
            case 1: x = rng.uniform(-2.0f, 2.0f); break;
            default:  // magnitudes 2^-40..2^40: sums round by order
              x = std::ldexp(rng.uniform(-2.0f, 2.0f),
                             static_cast<int>(rng.uniform_int(81)) - 40);
          }
        }
      }
      const States states = pointers_to(rows);
      const std::vector<double> med = coordinate_median(states);
      const std::vector<double> want_med = reference_median(states);
      ASSERT_EQ(med.size(), width);
      for (std::size_t i = 0; i < width; ++i) {
        if (want_med[i] == 0.0) {
          ASSERT_EQ(med[i], 0.0) << "n=" << n << " width=" << width;
        } else {
          ASSERT_TRUE(same_bits(med[i], want_med[i]))
              << "n=" << n << " width=" << width << " i=" << i << " got "
              << med[i] << " want " << want_med[i];
        }
      }
      std::vector<std::size_t> trims = {0, n / 5, (n - 1) / 2};
      if (n > 2) trims.push_back(1);
      for (std::size_t trim : trims) {
        const std::vector<double> mean = coordinate_trimmed_mean(states, trim);
        const std::vector<double> want = reference_trimmed_mean(states, trim);
        ASSERT_EQ(mean.size(), width);
        ASSERT_EQ(std::memcmp(mean.data(), want.data(),
                              width * sizeof(double)), 0)
            << "n=" << n << " width=" << width << " trim=" << trim;
      }
    }
  }
}

// The network swaps only when b < a, so a column of equal values -- here
// zeros of both signs -- leaves in carrier order: the median is the zero
// (or the mean of the two zeros) at the median rows.
TEST(CoordinateStatistics, EqualValuesKeepCarrierOrder) {
  Rng rng(77);
  const std::size_t width = 33;
  for (std::size_t n = 1; n <= 64; ++n) {
    std::vector<std::vector<float>> rows(n, std::vector<float>(width));
    for (auto& row : rows) {
      for (float& x : row) x = rng.uniform_int(2) == 0 ? 0.0f : -0.0f;
    }
    const std::vector<double> med = coordinate_median(pointers_to(rows));
    const std::size_t mid = n / 2;
    for (std::size_t i = 0; i < width; ++i) {
      double want = rows[mid][i];
      if (n % 2 == 0) want = 0.5 * (want + rows[mid - 1][i]);
      ASSERT_TRUE(same_bits(med[i], want)) << "n=" << n << " i=" << i;
    }
  }
}

ZooModel make_cloud() {
  ZooOptions opts;
  opts.modules_per_layer = 4;
  opts.init_seed = 505;
  return make_modular(TaskModel::kMlpHar, {8}, 3, opts);
}

EdgeUpdate update_for(ModularModel& cloud, const SubmodelSpec& spec,
                      float fill_value, double importance,
                      std::int64_t samples) {
  auto sub = cloud.derive_submodel(spec);
  // Overwrite every module and shared parameter with a constant so averages
  // are easy to verify.
  for (std::size_t l = 0; l < spec.modules.size(); ++l) {
    for (std::int64_t gid : spec.modules[l]) {
      auto s = sub->module_state(l, gid);
      std::fill(s.begin(), s.end(), fill_value);
      sub->set_module_state(l, gid, s);
    }
  }
  auto shared = sub->shared_state();
  std::fill(shared.begin(), shared.end(), fill_value);
  sub->set_shared_state(shared);

  std::vector<std::vector<double>> imp(spec.modules.size());
  for (std::size_t l = 0; l < spec.modules.size(); ++l) {
    imp[l].assign(4, importance);
  }
  return make_edge_update(*sub, imp, samples);
}

TEST(Aggregation, SingleUpdateReplacesContainedModules) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0, 1}};
  auto up = update_for(*zm.model, spec, 7.0f, 0.5, 100);
  aggregate_module_wise_robust(*zm.model, {up});
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 7.0f);
  for (float v : zm.model->module_state(0, 1)) EXPECT_FLOAT_EQ(v, 7.0f);
}

TEST(Aggregation, UntouchedModulesKeepCloudWeights) {
  auto zm = make_cloud();
  const auto before = zm.model->module_state(0, 2);
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto up = update_for(*zm.model, spec, 7.0f, 0.5, 100);
  aggregate_module_wise_robust(*zm.model, {up});
  EXPECT_EQ(zm.model->module_state(0, 2), before);
}

TEST(Aggregation, ImportanceWeightedAverage) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto up1 = update_for(*zm.model, spec, 10.0f, /*importance=*/0.75, 50);
  auto up2 = update_for(*zm.model, spec, 2.0f, /*importance=*/0.25, 50);
  aggregate_module_wise_robust(*zm.model, {up1, up2},
                               AggregationWeighting::kImportance);
  // Weighted: 0.75*10 + 0.25*2 = 8.
  for (float v : zm.model->module_state(0, 0)) EXPECT_NEAR(v, 8.0f, 1e-5);
}

TEST(Aggregation, UniformWeightingAblation) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto up1 = update_for(*zm.model, spec, 10.0f, 0.75, 50);
  auto up2 = update_for(*zm.model, spec, 2.0f, 0.25, 50);
  aggregate_module_wise_robust(*zm.model, {up1, up2},
                               AggregationWeighting::kUniform);
  for (float v : zm.model->module_state(0, 0)) EXPECT_NEAR(v, 6.0f, 1e-5);
}

TEST(Aggregation, SharedStateAveragedBySampleCount) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto up1 = update_for(*zm.model, spec, 9.0f, 0.5, /*samples=*/30);
  auto up2 = update_for(*zm.model, spec, 3.0f, 0.5, /*samples=*/10);
  aggregate_module_wise_robust(*zm.model, {up1, up2});
  // (30*9 + 10*3) / 40 = 7.5.
  for (float v : zm.model->shared_state()) EXPECT_NEAR(v, 7.5f, 1e-5);
}

TEST(Aggregation, ServerMixBlendsWithCloud) {
  auto zm = make_cloud();
  // Set cloud module 0 to a known constant first.
  auto s = zm.model->module_state(0, 0);
  std::fill(s.begin(), s.end(), 4.0f);
  zm.model->set_module_state(0, 0, s);
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto up = update_for(*zm.model, spec, 8.0f, 0.5, 100);
  aggregate_module_wise_robust(*zm.model, {up},
                               AggregationWeighting::kImportance,
                               /*server_mix=*/0.25f);
  // 0.75*4 + 0.25*8 = 5.
  for (float v : zm.model->module_state(0, 0)) EXPECT_NEAR(v, 5.0f, 1e-5);
}

TEST(Aggregation, DisjointDevicesUpdateDisjointModules) {
  auto zm = make_cloud();
  SubmodelSpec s1, s2;
  s1.modules = {{0}};
  s2.modules = {{1}};
  auto up1 = update_for(*zm.model, s1, 1.0f, 0.9, 100);
  auto up2 = update_for(*zm.model, s2, 2.0f, 0.9, 100);
  aggregate_module_wise_robust(*zm.model, {up1, up2});
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 1.0f);
  for (float v : zm.model->module_state(0, 1)) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(Aggregation, PayloadBytesCountsStates) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0, 3}};  // module 3 is the identity (0 params)
  auto up = update_for(*zm.model, spec, 1.0f, 0.5, 10);
  const std::int64_t expected_floats =
      static_cast<std::int64_t>(zm.model->module_state(0, 0).size()) +
      static_cast<std::int64_t>(zm.model->shared_state().size());
  EXPECT_EQ(up.payload_bytes(), expected_floats * 4);
}

TEST(Aggregation, EmptyUpdateListIsNoOp) {
  auto zm = make_cloud();
  const auto before = zm.model->shared_state();
  aggregate_module_wise_robust(*zm.model, {});
  EXPECT_EQ(zm.model->shared_state(), before);
}

TEST(Aggregation, ValidateUpdateVerdicts) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0, 1}};
  auto ok = update_for(*zm.model, spec, 1.0f, 0.5, 10);
  EXPECT_EQ(validate_update(*zm.model, ok), UpdateVerdict::kOk);

  auto no_samples = ok;
  no_samples.num_samples = 0;
  EXPECT_EQ(validate_update(*zm.model, no_samples),
            UpdateVerdict::kNoSamples);

  auto wrong_layers = ok;
  wrong_layers.module_states.pop_back();
  EXPECT_EQ(validate_update(*zm.model, wrong_layers),
            UpdateVerdict::kLayerCountMismatch);

  auto truncated = ok;
  truncated.module_states[0][0].pop_back();
  EXPECT_EQ(validate_update(*zm.model, truncated),
            UpdateVerdict::kStateSizeMismatch);

  // A module listed twice in one layer, each copy well-formed: aggregation
  // would fold one copy while payload_bytes bills both.
  auto duplicate = ok;
  duplicate.spec.modules[0] = {0, 1, 0};
  duplicate.module_states[0].push_back(duplicate.module_states[0][0]);
  EXPECT_EQ(validate_update(*zm.model, duplicate),
            UpdateVerdict::kStateSizeMismatch);

  auto nan_update = ok;
  nan_update.module_states[0][1][0] = std::nanf("");
  EXPECT_EQ(validate_update(*zm.model, nan_update),
            UpdateVerdict::kNonFinite);

  auto inf_shared = ok;
  inf_shared.shared_state[0] = std::numeric_limits<float>::infinity();
  EXPECT_EQ(validate_update(*zm.model, inf_shared),
            UpdateVerdict::kNonFinite);

  // Every non-finite value is caught at the first, a middle and the last
  // position of a module state and of the shared state; finite extremes pass.
  const float non_finite[] = {std::nanf(""), -std::nanf(""),
                              std::numeric_limits<float>::signaling_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
  const float finite[] = {FLT_MAX, -FLT_MAX, FLT_TRUE_MIN, -FLT_TRUE_MIN,
                          FLT_MIN, -0.0f};
  for (const bool shared : {false, true}) {
    std::vector<float>& state =
        shared ? ok.shared_state : ok.module_states[0][1];
    ASSERT_GE(state.size(), 3u);
    for (const std::size_t at : {std::size_t{0}, state.size() / 2,
                                 state.size() - 1}) {
      const float kept = state[at];
      for (const float v : non_finite) {
        state[at] = v;
        EXPECT_EQ(validate_update(*zm.model, ok), UpdateVerdict::kNonFinite)
            << "shared=" << shared << " at=" << at << " value=" << v;
      }
      for (const float v : finite) {
        state[at] = v;
        EXPECT_EQ(validate_update(*zm.model, ok), UpdateVerdict::kOk)
            << "shared=" << shared << " at=" << at << " value=" << v;
      }
      state[at] = kept;
    }
  }
  ASSERT_EQ(validate_update(*zm.model, ok), UpdateVerdict::kOk);

  auto bad_importance = ok;
  bad_importance.importance[0][0] = std::nan("");
  EXPECT_EQ(validate_update(*zm.model, bad_importance),
            UpdateVerdict::kNonFinite);

  // Finite but absurdly large parameters trip the norm bound when one is set.
  auto huge = update_for(*zm.model, spec, 1e6f, 0.5, 10);
  EXPECT_EQ(validate_update(*zm.model, huge), UpdateVerdict::kOk);
  EXPECT_EQ(validate_update(*zm.model, huge, /*norm_bound_rms=*/100.0),
            UpdateVerdict::kNormBound);
  EXPECT_EQ(validate_update(*zm.model, ok, /*norm_bound_rms=*/100.0),
            UpdateVerdict::kOk);
}

TEST(Aggregation, QuarantinesNaNUpdateWithoutCorruptingCloud) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto good = update_for(*zm.model, spec, 2.0f, 0.5, 50);
  auto bad = update_for(*zm.model, spec, 2.0f, 0.5, 50);
  for (auto& layer : bad.module_states) {
    for (auto& state : layer) {
      std::fill(state.begin(), state.end(), std::nanf(""));
    }
  }
  aggregate_module_wise_robust(*zm.model, {good, bad});
  // Only the good update lands: the module is exactly 2, not NaN.
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 2.0f);
  for (float v : zm.model->shared_state()) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(Aggregation, QuarantinesSizeMismatchedUpdate) {
  auto zm = make_cloud();
  const auto before = zm.model->module_state(0, 0);
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto bad = update_for(*zm.model, spec, 5.0f, 0.5, 50);
  bad.module_states[0][0].resize(bad.module_states[0][0].size() / 2);
  // Formerly a mid-aggregation NEBULA_CHECK throw (partial mutation hazard);
  // now the malformed update is skipped and nothing changes.
  aggregate_module_wise_robust(*zm.model, {bad});
  EXPECT_EQ(zm.model->module_state(0, 0), before);
}

TEST(Aggregation, AllInvalidUpdatesIsNoOp) {
  auto zm = make_cloud();
  const auto shared_before = zm.model->shared_state();
  const auto mod_before = zm.model->module_state(0, 0);
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto bad1 = update_for(*zm.model, spec, 1.0f, 0.5, 50);
  bad1.shared_state[0] = std::nanf("");
  auto bad2 = update_for(*zm.model, spec, 1.0f, 0.5, 50);
  bad2.num_samples = 0;
  aggregate_module_wise_robust(*zm.model, {bad1, bad2});
  EXPECT_EQ(zm.model->shared_state(), shared_before);
  EXPECT_EQ(zm.model->module_state(0, 0), mod_before);
}

TEST(Aggregation, InvalidServerMixThrows) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto up = update_for(*zm.model, spec, 1.0f, 0.5, 10);
  EXPECT_THROW(aggregate_module_wise_robust(
                   *zm.model, {up}, AggregationWeighting::kImportance, 0.0f),
               std::runtime_error);
  EXPECT_THROW(aggregate_module_wise_robust(
                   *zm.model, {up}, AggregationWeighting::kImportance, 1.5f),
               std::runtime_error);
}

}  // namespace
}  // namespace nebula
