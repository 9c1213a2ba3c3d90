// Module-wise sub-model aggregation tests (§5.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

ZooModel make_cloud() {
  ZooOptions opts;
  opts.modules_per_layer = 4;
  opts.init_seed = 505;
  return make_modular_mlp(8, 3, opts);
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

  auto nan_update = ok;
  nan_update.module_states[0][1][0] = std::nanf("");
  EXPECT_EQ(validate_update(*zm.model, nan_update),
            UpdateVerdict::kNonFinite);

  auto inf_shared = ok;
  inf_shared.shared_state[0] = std::numeric_limits<float>::infinity();
  EXPECT_EQ(validate_update(*zm.model, inf_shared),
            UpdateVerdict::kNonFinite);

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
