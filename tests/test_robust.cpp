// Byzantine-resilient aggregation + dynamic-environment scenario tests
// (DESIGN.md §13): robust statistics, the anomaly-score quarantine, the
// Byzantine/outage/skew fault extensions, drift + churn in the partitioner,
// probation readmission, and the headline acceptance check — undefended
// FedAvg collapses under a 30% sign-flip coalition while Nebula with a
// robust aggregator holds its clean accuracy.
//
// Lives in its own binary (ctest label `robust`) so the suite can be run
// standalone under sanitizers:
//   cmake -B build-asan -S . -DNEBULA_SANITIZE=ON && cmake --build build-asan
//   ctest --test-dir build-asan -L robust
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/aggregation.h"
#include "core/model_zoo.h"
#include "core/nebula.h"
#include "data/partition.h"
#include "eval/experiments.h"
#include "sim/device.h"
#include "sim/faults.h"

namespace nebula {
namespace {

// ---- Robust statistic units (mirrors test_aggregation.cpp's helpers) ---------

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

std::vector<float> model_snapshot(ModularModel& m) {
  std::vector<float> snap = m.shared_state();
  for (std::size_t l = 0; l < m.num_module_layers(); ++l) {
    for (std::int64_t gid = 0; gid < m.full_widths()[l]; ++gid) {
      const auto s = m.module_state(l, gid);
      snap.insert(snap.end(), s.begin(), s.end());
    }
  }
  return snap;
}

RobustAggregationConfig config_for(RobustAggregatorKind kind) {
  RobustAggregationConfig c;
  c.kind = kind;
  return c;
}

TEST(RobustAggregation, MedianResistsSingleOutlier) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto u1 = update_for(*zm.model, spec, 1.0f, 0.5, 10);
  auto u2 = update_for(*zm.model, spec, 2.0f, 0.5, 10);
  auto u3 = update_for(*zm.model, spec, 100.0f, 0.5, 10);
  auto out = aggregate_module_wise_robust(
      *zm.model, {u1, u2, u3}, AggregationWeighting::kImportance, 1.0f,
      config_for(RobustAggregatorKind::kMedian));
  EXPECT_TRUE(out.applied);
  EXPECT_TRUE(out.invalid.empty());
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 2.0f);
  for (float v : zm.model->shared_state()) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(RobustAggregation, MedianEvenCountAveragesMiddlePair) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  std::vector<EdgeUpdate> ups;
  for (float fill : {1.0f, 2.0f, 3.0f, 100.0f}) {
    ups.push_back(update_for(*zm.model, spec, fill, 0.5, 10));
  }
  aggregate_module_wise_robust(*zm.model, ups,
                               AggregationWeighting::kImportance, 1.0f,
                               config_for(RobustAggregatorKind::kMedian));
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(RobustAggregation, TrimmedMeanDropsBothTails) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  std::vector<EdgeUpdate> ups;
  for (float fill : {-50.0f, 2.0f, 3.0f, 4.0f, 100.0f}) {
    ups.push_back(update_for(*zm.model, spec, fill, 0.5, 10));
  }
  auto cfg = config_for(RobustAggregatorKind::kTrimmedMean);
  cfg.trim_fraction = 0.2;  // floor(0.2 * 5) = 1 from each tail
  aggregate_module_wise_robust(*zm.model, ups,
                               AggregationWeighting::kImportance, 1.0f, cfg);
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 3.0f);
  for (float v : zm.model->shared_state()) EXPECT_FLOAT_EQ(v, 3.0f);
}

TEST(RobustAggregation, TrimmedMeanClampsOverAggressiveTrim) {
  // trim_fraction so large it would remove everything: the implementation
  // clamps to (n-1)/2 per side, so at least one value always survives.
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto u1 = update_for(*zm.model, spec, 1.0f, 0.5, 10);
  auto u2 = update_for(*zm.model, spec, 3.0f, 0.5, 10);
  auto cfg = config_for(RobustAggregatorKind::kTrimmedMean);
  cfg.trim_fraction = 0.5;
  auto out = aggregate_module_wise_robust(
      *zm.model, {u1, u2}, AggregationWeighting::kImportance, 1.0f, cfg);
  EXPECT_TRUE(out.applied);
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(RobustAggregation, KrumPicksClusteredCandidate) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  std::vector<EdgeUpdate> ups;
  for (float fill : {1.0f, 1.0f, 1.0f, 100.0f}) {
    ups.push_back(update_for(*zm.model, spec, fill, 0.5, 10));
  }
  aggregate_module_wise_robust(*zm.model, ups,
                               AggregationWeighting::kImportance, 1.0f,
                               config_for(RobustAggregatorKind::kKrum));
  // The winner must come from the 3-strong cluster, never the outlier.
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 1.0f);
  for (float v : zm.model->shared_state()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(RobustAggregation, DefaultConfigMatchesLegacyWrapper) {
  // The defaulted robust argument must be the explicit default config — the
  // original weighted-mean aggregation, bit for bit — same clouds, same
  // updates, same result.
  auto zm_a = make_cloud();
  auto zm_b = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0, 1}};
  auto mk = [&](ModularModel& cloud) {
    return std::vector<EdgeUpdate>{
        update_for(cloud, spec, 0.37f, 0.75, 31),
        update_for(cloud, spec, -1.2f, 0.25, 77),
        update_for(cloud, spec, 5.5f, 0.5, 12),
    };
  };
  aggregate_module_wise_robust(*zm_a.model, mk(*zm_a.model),
                               AggregationWeighting::kImportance, 0.5f);
  auto out = aggregate_module_wise_robust(*zm_b.model, mk(*zm_b.model),
                                          AggregationWeighting::kImportance,
                                          0.5f, RobustAggregationConfig{});
  EXPECT_TRUE(out.applied);
  // Inactive config: the score vector stays parallel to `updates` but no
  // scoring pass ran — every entry is exactly 0.
  EXPECT_EQ(out.anomaly_scores, std::vector<double>(3, 0.0));
  EXPECT_EQ(model_snapshot(*zm_a.model), model_snapshot(*zm_b.model));
}

TEST(RobustAggregation, AnomalyGateRejectsSignFlippedUpdate) {
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  std::vector<EdgeUpdate> ups;
  for (int i = 0; i < 4; ++i) {
    ups.push_back(update_for(*zm.model, spec, 1.0f, 0.5, 10));
  }
  ups.push_back(update_for(*zm.model, spec, -1.0f, 0.5, 10));  // sign-flipped
  RobustAggregationConfig cfg;  // weighted mean + gate: scoring alone defends
  cfg.anomaly_threshold = 4.0;
  auto out = aggregate_module_wise_robust(
      *zm.model, ups, AggregationWeighting::kImportance, 1.0f, cfg);
  ASSERT_EQ(out.robust_rejected, (std::vector<std::size_t>{4}));
  ASSERT_EQ(out.anomaly_scores.size(), 5u);
  EXPECT_GT(out.anomaly_scores[4], cfg.anomaly_threshold);
  for (int i = 0; i < 4; ++i) EXPECT_LT(out.anomaly_scores[i], 1.0);
  // Only the honest updates landed.
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 1.0f);
  for (float v : zm.model->shared_state()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(RobustAggregation, AnomalyGateRejectsBeforeMedianFold) {
  // The gate scores against the median of all five updates (1.2); the fold
  // must take the median of the four it kept (1.3), not reuse the first.
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  std::vector<EdgeUpdate> ups;
  for (float fill : {1.0f, 1.2f, 1.4f, 1.6f}) {
    ups.push_back(update_for(*zm.model, spec, fill, 0.5, 10));
  }
  ups.push_back(update_for(*zm.model, spec, -1.6f, 0.5, 10));  // sign-flipped
  RobustAggregationConfig cfg = config_for(RobustAggregatorKind::kMedian);
  cfg.anomaly_threshold = 4.0;
  auto out = aggregate_module_wise_robust(
      *zm.model, ups, AggregationWeighting::kImportance, 1.0f, cfg);
  ASSERT_EQ(out.robust_rejected, (std::vector<std::size_t>{4}));
  for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 1.3f);
  for (float v : zm.model->shared_state()) EXPECT_FLOAT_EQ(v, 1.3f);
}

TEST(RobustAggregation, AnomalyScoresNeedThreeCarriers) {
  // With only two updates there is no majority for an outlier to stand out
  // of: scores stay 0 and the gate must not fire.
  auto zm = make_cloud();
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto u1 = update_for(*zm.model, spec, 1.0f, 0.5, 10);
  auto u2 = update_for(*zm.model, spec, -1.0f, 0.5, 10);
  RobustAggregationConfig cfg;
  cfg.anomaly_threshold = 4.0;
  auto out = aggregate_module_wise_robust(
      *zm.model, {u1, u2}, AggregationWeighting::kImportance, 1.0f, cfg);
  EXPECT_TRUE(out.robust_rejected.empty());
  ASSERT_EQ(out.anomaly_scores.size(), 2u);
  EXPECT_EQ(out.anomaly_scores[0], 0.0);
  EXPECT_EQ(out.anomaly_scores[1], 0.0);
}

// ---- Degenerate inputs under robust kinds ------------------------------------

TEST(RobustAggregation, AllInvalidUnderRobustKindIsNoOp) {
  auto zm = make_cloud();
  const auto before = model_snapshot(*zm.model);
  SubmodelSpec spec;
  spec.modules = {{0}};
  auto bad1 = update_for(*zm.model, spec, 1.0f, 0.5, 10);
  bad1.num_samples = 0;
  auto bad2 = update_for(*zm.model, spec, 1.0f, 0.5, 10);
  bad2.shared_state[0] = std::nanf("");
  auto out = aggregate_module_wise_robust(
      *zm.model, {bad1, bad2}, AggregationWeighting::kImportance, 1.0f,
      config_for(RobustAggregatorKind::kMedian));
  EXPECT_FALSE(out.applied);
  EXPECT_EQ(out.invalid.size(), 2u);
  EXPECT_EQ(model_snapshot(*zm.model), before);
}

TEST(RobustAggregation, EmptyUpdateListUnderRobustKindIsNoOp) {
  auto zm = make_cloud();
  const auto before = model_snapshot(*zm.model);
  auto out = aggregate_module_wise_robust(
      *zm.model, {}, AggregationWeighting::kImportance, 1.0f,
      config_for(RobustAggregatorKind::kKrum));
  EXPECT_FALSE(out.applied);
  EXPECT_EQ(model_snapshot(*zm.model), before);
}

TEST(RobustAggregation, SingleParticipantRobustKindsDegradeToIdentity) {
  for (auto kind :
       {RobustAggregatorKind::kMedian, RobustAggregatorKind::kTrimmedMean,
        RobustAggregatorKind::kKrum}) {
    auto zm = make_cloud();
    SubmodelSpec spec;
    spec.modules = {{0}};
    auto up = update_for(*zm.model, spec, 7.0f, 0.5, 10);
    auto out = aggregate_module_wise_robust(
        *zm.model, {up}, AggregationWeighting::kImportance, 1.0f,
        config_for(kind));
    EXPECT_TRUE(out.applied);
    for (float v : zm.model->module_state(0, 0)) EXPECT_FLOAT_EQ(v, 7.0f);
    for (float v : zm.model->shared_state()) EXPECT_FLOAT_EQ(v, 7.0f);
  }
}

// ---- Byzantine fault injection -----------------------------------------------

TEST(ByzantineFaults, ExactCountMembershipIsDeterministic) {
  FaultConfig fc;
  fc.byzantine_fraction = 0.3;
  fc.num_devices = 10;
  fc.seed = 99;
  FaultInjector a(fc), b(fc);
  int attackers = 0;
  for (std::int64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(a.is_byzantine(k), b.is_byzantine(k));
    attackers += a.is_byzantine(k) ? 1 : 0;
  }
  EXPECT_EQ(attackers, 3);  // llround(0.3 * 10): exact, not binomial
}

TEST(ByzantineFaults, ZeroFractionMarksNobody) {
  FaultInjector inj{FaultConfig{}};
  for (std::int64_t k = 0; k < 20; ++k) EXPECT_FALSE(inj.is_byzantine(k));
}

TEST(ByzantineFaults, SignFlipAndScalePayloads) {
  FaultConfig fc;
  fc.byzantine_kind = ByzantineKind::kSignFlip;
  std::vector<float> p = {1.0f, -2.0f, 3.5f};
  apply_byzantine_payload(p, fc, /*collusion_key=*/0);
  EXPECT_EQ(p, (std::vector<float>{-1.0f, 2.0f, -3.5f}));

  fc.byzantine_kind = ByzantineKind::kScaled;
  fc.byzantine_scale = 4.0;
  std::vector<float> q = {1.0f, -2.0f};
  apply_byzantine_payload(q, fc, 0);
  EXPECT_EQ(q, (std::vector<float>{4.0f, -8.0f}));
}

TEST(ByzantineFaults, ColludersUploadIdenticalDirections) {
  FaultConfig fc;
  fc.byzantine_kind = ByzantineKind::kSameDirection;
  fc.byzantine_scale = 10.0;
  std::vector<float> a(256, 1.0f), b(256, -7.0f), c(256, 0.0f);
  apply_byzantine_payload(a, fc, /*collusion_key=*/42);
  apply_byzantine_payload(b, fc, /*collusion_key=*/42);
  apply_byzantine_payload(c, fc, /*collusion_key=*/43);
  EXPECT_EQ(a, b) << "same collusion key must produce byte-identical junk";
  EXPECT_NE(a, c) << "different keys must diverge";
  double sq = 0.0;
  for (float v : a) sq += static_cast<double>(v) * v;
  const double rms = std::sqrt(sq / a.size());
  EXPECT_NEAR(rms, fc.byzantine_scale, 0.15 * fc.byzantine_scale);
}

TEST(ByzantineFaults, RegionalOutagesAreCorrelatedWithinARegion) {
  FaultConfig fc;
  fc.regional_outage_prob = 0.4;
  fc.seed = 7;
  FaultInjector inj(fc);
  // The outage is a pure function of (round, region): every device in one
  // region shares its fate by construction, so the interesting properties
  // are determinism, variation across rounds, and the zero-prob short
  // circuit.
  bool any_out = false, any_up = false;
  for (std::int64_t r = 0; r < 32; ++r) {
    const bool out = inj.regional_outage(r, 0);
    EXPECT_EQ(out, inj.regional_outage(r, 0));
    any_out = any_out || out;
    any_up = any_up || !out;
  }
  EXPECT_TRUE(any_out);
  EXPECT_TRUE(any_up);
  FaultInjector none{FaultConfig{}};
  for (std::int64_t r = 0; r < 8; ++r) {
    EXPECT_FALSE(none.regional_outage(r, 0));
  }
}

TEST(ByzantineFaults, ClockSkewIsBoundedAndDeterministic) {
  FaultConfig fc;
  fc.clock_skew_s = 2.5;
  fc.seed = 11;
  FaultInjector a(fc), b(fc);
  bool any_nonzero = false;
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t k = 0; k < 10; ++k) {
      const double s = a.clock_skew(r, k);
      EXPECT_EQ(s, b.clock_skew(r, k));
      EXPECT_LE(std::abs(s), fc.clock_skew_s);
      any_nonzero = any_nonzero || s != 0.0;
    }
  }
  EXPECT_TRUE(any_nonzero);
  FaultInjector none{FaultConfig{}};
  EXPECT_EQ(none.clock_skew(0, 0), 0.0);
}

TEST(ByzantineFaults, AssignRegionsRoundRobins) {
  ProfileSampler sampler(3);
  auto fleet = sampler.sample_fleet(7);
  assign_regions(fleet, 3);
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    EXPECT_EQ(fleet[k].region, static_cast<std::int64_t>(k % 3));
  }
  EXPECT_THROW(assign_regions(fleet, 0), std::runtime_error);
}

// ---- Dynamic environment: drift + churn --------------------------------------

struct DriftWorld {
  std::unique_ptr<SyntheticGenerator> gen;
  std::unique_ptr<EdgePopulation> pop;

  explicit DriftWorld(float drift, float churn, std::uint64_t seed = 88) {
    gen = std::make_unique<SyntheticGenerator>(har_like_spec(), seed);
    PartitionConfig pc;
    pc.num_devices = 8;
    pc.classes_per_device = 0;
    pc.clusters_per_device = 2;
    pc.drift_rate = drift;
    pc.churn_prob = churn;
    pc.seed = seed + 1;
    pop = std::make_unique<EdgePopulation>(*gen, pc);
  }
};

std::vector<float> device_features(const EdgePopulation& pop, std::int64_t k) {
  return pop.local_data(k).features.storage();
}

TEST(DynamicEnvironment, StepIsNoOpWhenDisabled) {
  DriftWorld w(0.0f, 0.0f);
  std::vector<std::vector<float>> before;
  for (std::int64_t k = 0; k < 8; ++k) {
    before.push_back(device_features(*w.pop, k));
  }
  EXPECT_EQ(w.pop->environment_step(), 0);
  EXPECT_EQ(w.pop->step(), 1);
  for (std::int64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(device_features(*w.pop, k), before[k]) << "device " << k;
  }
}

TEST(DynamicEnvironment, DriftReplacesDataWithoutResizing) {
  DriftWorld w(0.5f, 0.0f);
  std::vector<std::int64_t> sizes;
  std::vector<std::vector<float>> before;
  for (std::int64_t k = 0; k < 8; ++k) {
    sizes.push_back(w.pop->local_data(k).size());
    before.push_back(device_features(*w.pop, k));
  }
  EXPECT_EQ(w.pop->environment_step(), 0);  // drift is not churn
  int changed = 0;
  for (std::int64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(w.pop->local_data(k).size(), sizes[k]);
    changed += device_features(*w.pop, k) != before[k] ? 1 : 0;
  }
  EXPECT_GT(changed, 0) << "50% drift left every device's data untouched";
}

TEST(DynamicEnvironment, FullChurnReplacesEveryDevice) {
  DriftWorld w(0.0f, 1.0f);
  EXPECT_EQ(w.pop->environment_step(), 8);
  for (std::int64_t k = 0; k < 8; ++k) {
    EXPECT_GE(w.pop->local_data(k).size(),
              w.pop->config().min_samples);
    EXPECT_LE(w.pop->local_data(k).size(),
              w.pop->config().max_samples);
  }
}

TEST(DynamicEnvironment, SetDynamicsValidatesRates) {
  DriftWorld w(0.0f, 0.0f);
  EXPECT_THROW(w.pop->set_dynamics(1.5f, 0.0f), std::runtime_error);
  EXPECT_THROW(w.pop->set_dynamics(0.0f, -0.1f), std::runtime_error);
  w.pop->set_dynamics(0.25f, 0.1f);  // in range: fine
}

TEST(DynamicEnvironment, DriftIsDeterministicPerSeed) {
  DriftWorld a(0.5f, 0.2f), b(0.5f, 0.2f);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(a.pop->environment_step(), b.pop->environment_step());
  }
  for (std::int64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(device_features(*a.pop, k), device_features(*b.pop, k));
  }
}

// ---- System-level: probation, all-quarantined rounds -------------------------

struct RobustWorld {
  std::unique_ptr<SyntheticGenerator> gen;
  std::unique_ptr<EdgePopulation> pop;
  std::vector<DeviceProfile> profiles;
  SyntheticData proxy;

  explicit RobustWorld(std::uint64_t seed = 88) {
    auto spec = har_like_spec();
    gen = std::make_unique<SyntheticGenerator>(spec, seed);
    PartitionConfig pc;
    pc.num_devices = 10;
    pc.classes_per_device = 0;
    pc.clusters_per_device = 2;
    pc.seed = seed + 1;
    pop = std::make_unique<EdgePopulation>(*gen, pc);
    ProfileSampler sampler(seed + 2);
    profiles = sampler.sample_fleet(10);
    proxy = pop->proxy_data_ex(800);
  }

  NebulaSystem make_system(NebulaConfig cfg = {},
                           std::int64_t devices_per_round = 4) {
    ZooOptions opts;
    opts.modules_per_layer = 6;
    opts.init_seed = 909;
    cfg.devices_per_round = devices_per_round;
    cfg.pretrain.epochs = 4;
    return NebulaSystem(make_modular(TaskModel::kMlpHar, {32}, 6, opts), *pop,
                        profiles, cfg);
  }
};

std::vector<float> cloud_snapshot(NebulaSystem& sys) {
  return model_snapshot(sys.cloud());
}

TEST(Probation, CleanRoundsReadmitQuarantinedDevice) {
  RobustWorld world;
  NebulaConfig cfg;
  cfg.fault_policy.probation_clean_rounds = 2;
  // Every device participates every round so probation counts advance
  // deterministically.
  auto sys = world.make_system(cfg, /*devices_per_round=*/10);
  sys.offline(world.proxy);
  sys.quarantine_device(3);
  ASSERT_TRUE(sys.is_quarantined(3));

  // Round 1: device 3 completes cleanly but its update is withheld.
  RoundReport r1 = sys.round();
  EXPECT_EQ(r1.probation, (std::vector<std::int64_t>{3}));
  EXPECT_EQ(std::count(r1.completed.begin(), r1.completed.end(), 3), 0);
  EXPECT_TRUE(sys.is_quarantined(3));

  // Round 2: second consecutive clean validation → readmitted afterwards.
  RoundReport r2 = sys.round();
  EXPECT_EQ(r2.probation, (std::vector<std::int64_t>{3}));
  EXPECT_FALSE(sys.is_quarantined(3));

  // Round 3: fully trusted again, its update aggregates normally.
  RoundReport r3 = sys.round();
  EXPECT_TRUE(r3.probation.empty());
  EXPECT_EQ(std::count(r3.completed.begin(), r3.completed.end(), 3), 1);
}

TEST(Probation, DisabledByDefaultKeepsLegacyBehaviour) {
  RobustWorld world;
  auto sys = world.make_system();  // probation_clean_rounds = 0
  sys.offline(world.proxy);
  FaultConfig fc;
  fc.corruption_prob = 1.0;
  fc.seed = 123;
  sys.inject_faults(fc);
  for (int r = 0; r < 3; ++r) {
    const RoundReport rep = sys.round();
    EXPECT_TRUE(rep.probation.empty());
  }
  for (std::int64_t k = 0; k < 10; ++k) EXPECT_FALSE(sys.is_quarantined(k));
}

TEST(Probation, RejectionRestartsTheCleanStreak) {
  RobustWorld world;
  NebulaConfig cfg;
  cfg.fault_policy.probation_clean_rounds = 2;
  auto sys = world.make_system(cfg, /*devices_per_round=*/10);
  sys.offline(world.proxy);
  // Corrupt every upload: every surviving device gets rejected or (zeroed
  // payloads pass validation) completes. Rejected devices must land in
  // quarantine and stay there while rejections keep coming.
  FaultConfig fc;
  fc.corruption_prob = 1.0;
  fc.seed = 321;
  sys.inject_faults(fc);
  const RoundReport rep = sys.round();
  ASSERT_GT(rep.rejected.size(), 0u);
  for (std::int64_t k : rep.rejected) {
    EXPECT_TRUE(sys.is_quarantined(k)) << "rejected device " << k;
  }
  EXPECT_EQ(rep.rejected_structural + rep.rejected_norm + rep.rejected_robust,
            static_cast<std::int64_t>(rep.rejected.size()));
}

TEST(RobustRound, AllQuarantinedRoundLeavesCloudUntouched) {
  RobustWorld world;
  NebulaConfig cfg;
  cfg.fault_policy.probation_clean_rounds = 100;  // nobody re-earns trust
  auto sys = world.make_system(cfg, /*devices_per_round=*/10);
  sys.offline(world.proxy);
  for (std::int64_t k = 0; k < 10; ++k) sys.quarantine_device(k);
  const auto before = cloud_snapshot(sys);
  const RoundReport rep = sys.round();
  EXPECT_EQ(rep.probation.size(), rep.participants.size());
  EXPECT_TRUE(rep.completed.empty());
  EXPECT_FALSE(rep.aggregated);
  EXPECT_EQ(cloud_snapshot(sys), before)
      << "an all-quarantined round must not mutate the cloud";
}

TEST(RobustRound, RobustScoresExportedInRoundReport) {
  RobustWorld world;
  NebulaConfig cfg;
  cfg.fault_policy.robust.kind = RobustAggregatorKind::kTrimmedMean;
  cfg.fault_policy.robust.anomaly_threshold = 4.0;
  auto sys = world.make_system(cfg, /*devices_per_round=*/5);
  sys.offline(world.proxy);
  FaultConfig fc;
  fc.byzantine_fraction = 0.3;
  fc.byzantine_kind = ByzantineKind::kSignFlip;
  fc.num_devices = 10;
  fc.seed = 555;
  sys.inject_faults(fc);
  std::int64_t robust_rejections = 0;
  for (int r = 0; r < 4; ++r) {
    const RoundReport rep = sys.round();
    // Scores are parallel to the updates that reached aggregation.
    EXPECT_EQ(rep.robust_scores.size(),
              rep.completed.size() + static_cast<std::size_t>(
                                         rep.rejected_robust));
    EXPECT_EQ(rep.rejected_structural + rep.rejected_norm +
                  rep.rejected_robust,
              static_cast<std::int64_t>(rep.rejected.size()));
    robust_rejections += rep.rejected_robust;
  }
  EXPECT_GT(robust_rejections, 0)
      << "a 30% sign-flip coalition never tripped the anomaly gate";
  EXPECT_TRUE(model_state_finite(sys.cloud()));
}

// ---- Acceptance: FedAvg collapses, robust Nebula holds -----------------------

TEST(ByzantineAcceptance, FedAvgCollapsesWhileTrimmedMeanNebulaHolds) {
  BenchScale scale;
  scale.devices = 10;
  scale.devices_per_round = 5;
  scale.warm_rounds = 4;  // 2 x warm_rounds = 8 collaborative rounds
  scale.eval_devices = 8;
  scale.test_samples = 96;
  scale.pretrain_epochs = 4;
  const TaskSpec spec = task_by_name("HAR", "1 subject");

  RobustAggregationConfig trimmed;
  trimmed.kind = RobustAggregatorKind::kTrimmedMean;
  trimmed.anomaly_threshold = 4.0;

  ScenarioSpec clean_spec;
  clean_spec.faults.seed = 8200;
  clean_spec.robust = trimmed;
  ScenarioSpec attack_spec = clean_spec;
  attack_spec.faults.byzantine_fraction = 0.3;
  attack_spec.faults.byzantine_kind = ByzantineKind::kSignFlip;
  attack_spec.faults.num_devices = scale.devices;  // exactly 3 of 10 attackers

  TaskEnv clean_env = make_task_env(spec, scale, /*seed=*/8100);
  const ScenarioResult clean = run_scenario(clean_env, scale, clean_spec, 8300);
  TaskEnv attack_env = make_task_env(spec, scale, /*seed=*/8100);
  const ScenarioResult attacked =
      run_scenario(attack_env, scale, attack_spec, 8300);

  // Both models stay finite — sign flips are norm-preserving, not NaN bombs.
  EXPECT_TRUE(clean.nebula_finite && clean.fedavg_finite);
  EXPECT_TRUE(attacked.nebula_finite && attacked.fedavg_finite);

  // Undefended FedAvg collapses toward chance (HAR: 6 classes, ~16.7%).
  EXPECT_GT(clean.fedavg_acc, 0.6) << "clean FedAvg baseline failed to learn";
  EXPECT_LT(attacked.fedavg_acc, 0.3)
      << "30% sign-flip coalition should drive FedAvg to near-chance";

  // Nebula with trimmed mean + anomaly gate holds within 3 points.
  EXPECT_GE(attacked.nebula_acc, clean.nebula_acc - 0.03)
      << "robust Nebula lost more than 3 accuracy points under attack "
      << "(clean " << clean.nebula_acc << ", attacked "
      << attacked.nebula_acc << ")";
  EXPECT_GT(attacked.robust_rejected, 0)
      << "the anomaly gate never fired under a persistent 30% attack";
}

}  // namespace
}  // namespace nebula
