// Fault injection + fault-tolerant round protocol tests: injector
// determinism, the zero-fault bit-identical regression, quarantine of
// corrupted uploads, quorum, stragglers, retry accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/nebula.h"
#include "eval/experiments.h"
#include "nn/init.h"
#include "sim/faults.h"

namespace nebula {
namespace {

// Mirrors the SmallWorld fixture of test_nebula_system.cpp: a 10-device
// HAR-like fleet small enough for several full systems per test binary.
struct FaultWorld {
  std::unique_ptr<SyntheticGenerator> gen;
  std::unique_ptr<EdgePopulation> pop;
  std::vector<DeviceProfile> profiles;
  SyntheticData proxy;

  explicit FaultWorld(std::uint64_t seed = 88) {
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

  NebulaSystem make_system(NebulaConfig cfg = {}) {
    ZooOptions opts;
    opts.modules_per_layer = 6;
    opts.init_seed = 909;
    cfg.devices_per_round = 4;
    cfg.pretrain.epochs = 4;
    return NebulaSystem(make_modular(TaskModel::kMlpHar, {32}, 6, opts), *pop,
                        profiles, cfg);
  }
};

// Full cloud parameter snapshot for exact-equality comparisons.
std::vector<float> cloud_snapshot(NebulaSystem& sys) {
  std::vector<float> snap = sys.cloud().shared_state();
  for (std::size_t l = 0; l < sys.cloud().num_module_layers(); ++l) {
    for (std::int64_t gid = 0; gid < sys.cloud().full_widths()[l]; ++gid) {
      const auto s = sys.cloud().module_state(l, gid);
      snap.insert(snap.end(), s.begin(), s.end());
    }
  }
  return snap;
}

// ---- FaultInjector unit tests -------------------------------------------------

TEST(FaultInjector, FatesAreDeterministicAndOrderIndependent) {
  FaultConfig cfg;
  cfg.dropout_prob = 0.3;
  cfg.straggler_prob = 0.4;
  cfg.corruption_prob = 0.3;
  cfg.degraded_link_prob = 0.2;
  cfg.seed = 4242;
  FaultInjector a(cfg), b(cfg);
  // Query b in reverse order: fates must still match a's exactly.
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t k = 0; k < 20; ++k) {
      const DeviceFate fa = a.device_fate(r, k);
      const DeviceFate fb = b.device_fate(3 - r, 19 - k);
      const DeviceFate fb_same = b.device_fate(r, k);
      EXPECT_EQ(fa.dropped, fb_same.dropped);
      EXPECT_EQ(fa.crashes_before_upload, fb_same.crashes_before_upload);
      EXPECT_DOUBLE_EQ(fa.latency_multiplier, fb_same.latency_multiplier);
      EXPECT_DOUBLE_EQ(fa.bandwidth_factor, fb_same.bandwidth_factor);
      EXPECT_EQ(fa.corruption, fb_same.corruption);
      (void)fb;
    }
  }
}

TEST(FaultInjector, FatesVaryAcrossRoundsDevicesAndSeeds) {
  FaultConfig cfg;
  cfg.dropout_prob = 0.5;
  cfg.seed = 7;
  FaultInjector inj(cfg);
  int dropped = 0, total = 0;
  for (std::int64_t r = 0; r < 10; ++r) {
    for (std::int64_t k = 0; k < 10; ++k) {
      dropped += inj.device_fate(r, k).dropped ? 1 : 0;
      ++total;
    }
  }
  // Roughly half drop; certainly not all-or-nothing.
  EXPECT_GT(dropped, total / 5);
  EXPECT_LT(dropped, total * 4 / 5);

  FaultConfig other = cfg;
  other.seed = 8;
  FaultInjector inj2(other);
  bool any_diff = false;
  for (std::int64_t k = 0; k < 10 && !any_diff; ++k) {
    any_diff = inj.device_fate(0, k).dropped != inj2.device_fate(0, k).dropped;
  }
  EXPECT_TRUE(any_diff) << "different seeds should give different schedules";
}

TEST(FaultInjector, ZeroConfigInjectsNothing) {
  FaultInjector inj{FaultConfig{}};
  EXPECT_FALSE(inj.enabled());
  for (std::int64_t k = 0; k < 50; ++k) {
    const DeviceFate f = inj.device_fate(0, k);
    EXPECT_FALSE(f.dropped);
    EXPECT_FALSE(f.crashes_before_upload);
    EXPECT_DOUBLE_EQ(f.latency_multiplier, 1.0);
    EXPECT_DOUBLE_EQ(f.bandwidth_factor, 1.0);
    EXPECT_EQ(f.corruption, CorruptionKind::kNone);
    EXPECT_FALSE(inj.transfer_attempt_fails(0, k, 0, 0));
  }
}

TEST(FaultInjector, ConfigValidation) {
  FaultConfig bad;
  bad.dropout_prob = 1.5;
  EXPECT_THROW(FaultInjector{bad}, std::runtime_error);
  bad = FaultConfig{};
  bad.transfer_failure_prob = 1.0;  // could never succeed
  EXPECT_THROW(FaultInjector{bad}, std::runtime_error);
  bad = FaultConfig{};
  bad.straggler_multiplier_lo = 0.5;  // speed-up is not a straggler
  EXPECT_THROW(FaultInjector{bad}, std::runtime_error);
  bad = FaultConfig{};
  bad.degraded_bandwidth_factor = 0.0;
  EXPECT_THROW(FaultInjector{bad}, std::runtime_error);
}

TEST(FaultInjector, ConfigValidationRejectsNaNAndInfinities) {
  // NaN compares false against any range bound, so naive `p < 0 || p > 1`
  // checks silently accept it — validate() must reject non-finite values in
  // every probability and magnitude field.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  auto expect_rejected = [](FaultConfig bad, const char* what) {
    EXPECT_THROW(FaultInjector{bad}, std::runtime_error) << what;
  };

  FaultConfig c;
  c.dropout_prob = nan;
  expect_rejected(c, "NaN dropout_prob");
  c = FaultConfig{};
  c.crash_prob = -0.1;
  expect_rejected(c, "negative crash_prob");
  c = FaultConfig{};
  c.corruption_prob = nan;
  expect_rejected(c, "NaN corruption_prob");
  c = FaultConfig{};
  c.byzantine_fraction = nan;
  expect_rejected(c, "NaN byzantine_fraction");
  c = FaultConfig{};
  c.byzantine_fraction = 1.2;
  expect_rejected(c, "byzantine_fraction > 1");
  c = FaultConfig{};
  c.regional_outage_prob = inf;
  expect_rejected(c, "infinite regional_outage_prob");
  c = FaultConfig{};
  c.straggler_multiplier_lo = inf;
  expect_rejected(c, "infinite straggler multiplier");
  c = FaultConfig{};
  c.straggler_multiplier_lo = 4.0;
  c.straggler_multiplier_hi = 2.0;
  expect_rejected(c, "inverted straggler bounds");
  c = FaultConfig{};
  c.degraded_bandwidth_factor = nan;
  expect_rejected(c, "NaN bandwidth factor");
  c = FaultConfig{};
  c.degraded_bandwidth_factor = 1.5;
  expect_rejected(c, "bandwidth factor > 1");
  c = FaultConfig{};
  c.byzantine_scale = 0.0;
  expect_rejected(c, "non-positive byzantine_scale");
  c = FaultConfig{};
  c.byzantine_scale = nan;
  expect_rejected(c, "NaN byzantine_scale");
  c = FaultConfig{};
  c.clock_skew_s = -1.0;
  expect_rejected(c, "negative clock_skew_s");
  c = FaultConfig{};
  c.clock_skew_s = inf;
  expect_rejected(c, "infinite clock_skew_s");
  c = FaultConfig{};
  c.num_devices = -1;
  expect_rejected(c, "negative num_devices");

  // And the all-defaults config stays valid.
  EXPECT_NO_THROW(FaultInjector{FaultConfig{}});
}

TEST(FaultInjector, CorruptPayloadKinds) {
  Rng rng(5);
  std::vector<float> nan_payload(100, 1.0f);
  FaultInjector::corrupt_payload(nan_payload, CorruptionKind::kNaN, rng);
  EXPECT_EQ(nan_payload.size(), 100u);
  bool any_bad = false;
  for (float v : nan_payload) any_bad = any_bad || !std::isfinite(v);
  EXPECT_TRUE(any_bad);

  std::vector<float> zero_payload(100, 1.0f);
  FaultInjector::corrupt_payload(zero_payload, CorruptionKind::kZero, rng);
  for (float v : zero_payload) EXPECT_EQ(v, 0.0f);

  std::vector<float> short_payload(100, 1.0f);
  FaultInjector::corrupt_payload(short_payload, CorruptionKind::kTruncate,
                                 rng);
  EXPECT_LT(short_payload.size(), 100u);
  EXPECT_GE(short_payload.size(), 50u);

  std::vector<float> untouched(10, 3.0f);
  FaultInjector::corrupt_payload(untouched, CorruptionKind::kNone, rng);
  EXPECT_EQ(untouched, std::vector<float>(10, 3.0f));
}

// ---- Zero-fault regression ----------------------------------------------------

TEST(FaultTolerantRound, ZeroProbabilitiesAreBitIdentical) {
  // A system with an all-zero injector attached must consume the same RNG
  // draws, pick the same participants and produce the exact same cloud
  // parameters as one with no injector at all.
  FaultWorld w1, w2;
  auto plain = w1.make_system();
  auto faulted = w2.make_system();
  faulted.inject_faults(FaultConfig{});  // attached but all probabilities 0
  plain.offline(w1.proxy);
  faulted.offline(w2.proxy);
  for (int r = 0; r < 3; ++r) {
    const RoundReport a = plain.round();
    const RoundReport b = faulted.round();
    EXPECT_EQ(a.participants, b.participants);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_TRUE(b.dropped.empty());
    EXPECT_TRUE(b.rejected.empty());
    EXPECT_EQ(b.transfer_retries, 0);
    EXPECT_TRUE(b.aggregated);
  }
  EXPECT_EQ(cloud_snapshot(plain), cloud_snapshot(faulted));
  EXPECT_EQ(plain.ledger().total_bytes(), faulted.ledger().total_bytes());
  EXPECT_EQ(faulted.ledger().overhead_bytes(), 0);
}

// ---- Faulted rounds -----------------------------------------------------------

TEST(FaultTolerantRound, DropoutSkipsDevicesAndRoundSurvives) {
  FaultWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  FaultConfig fc;
  fc.dropout_prob = 0.5;
  fc.seed = 99;
  sys.inject_faults(fc);
  std::size_t completed = 0, dropped = 0;
  for (int r = 0; r < 4; ++r) {
    const RoundReport rep = sys.round();
    EXPECT_EQ(rep.completed.size() + rep.dropped.size(),
              rep.participants.size());
    completed += rep.completed.size();
    dropped += rep.dropped.size();
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_TRUE(model_state_finite(sys.cloud()));
}

TEST(FaultTolerantRound, CorruptedUploadsAreQuarantined) {
  FaultWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  FaultConfig fc;
  fc.corruption_prob = 1.0;  // every upload arrives damaged
  fc.seed = 123;
  sys.inject_faults(fc);
  std::size_t rejected = 0;
  for (int r = 0; r < 3; ++r) {
    const RoundReport rep = sys.round();
    rejected += rep.rejected.size();
    // NaN and truncated payloads must be quarantined; zeroed payloads are
    // structurally valid and slip through — which is exactly why the cloud
    // finiteness invariant below is the hard guarantee.
    for (std::int64_t k : rep.rejected) {
      (void)k;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_TRUE(model_state_finite(sys.cloud()))
      << "a corrupted upload reached the cloud model";
}

TEST(FaultTolerantRound, BelowQuorumLeavesCloudUntouched) {
  FaultWorld world;
  NebulaConfig cfg;
  cfg.fault_policy.min_quorum = 100;  // unreachable with 4 devices/round
  auto sys = world.make_system(cfg);
  sys.offline(world.proxy);
  const auto before = cloud_snapshot(sys);
  const RoundReport rep = sys.round();
  EXPECT_FALSE(rep.aggregated);
  EXPECT_EQ(rep.completed.size(), 4u);  // devices did their part...
  EXPECT_EQ(cloud_snapshot(sys), before);  // ...but the cloud skipped merging
}

TEST(FaultTolerantRound, DeadlineDropsOrDownWeightsStragglers) {
  FaultWorld world;
  NebulaConfig cut_cfg;
  cut_cfg.fault_policy.round_deadline_s = 1e-9;  // everyone is late
  cut_cfg.fault_policy.staleness_factor = 0.0f;  // late = dropped
  auto cut = world.make_system(cut_cfg);
  cut.offline(world.proxy);
  const auto before = cloud_snapshot(cut);
  const RoundReport rep = cut.round();
  EXPECT_EQ(rep.straggled.size(), rep.participants.size());
  EXPECT_TRUE(rep.completed.empty());
  EXPECT_FALSE(rep.aggregated);
  EXPECT_EQ(cloud_snapshot(cut), before);
  EXPECT_DOUBLE_EQ(rep.wall_time_s, cut_cfg.fault_policy.round_deadline_s);

  NebulaConfig stale_cfg;
  stale_cfg.fault_policy.round_deadline_s = 1e-9;
  stale_cfg.fault_policy.staleness_factor = 0.25f;  // late = down-weighted
  auto stale = world.make_system(stale_cfg);
  stale.offline(world.proxy);
  const auto before2 = cloud_snapshot(stale);
  const RoundReport rep2 = stale.round();
  EXPECT_EQ(rep2.straggled.size(), rep2.participants.size());
  EXPECT_EQ(rep2.completed.size(), rep2.participants.size());
  EXPECT_TRUE(rep2.aggregated);
  EXPECT_NE(cloud_snapshot(stale), before2);
}

TEST(FaultTolerantRound, StalenessWeightsParallelStraggledOnCutPath) {
  // Regression: RoundReport documents staleness_weights as parallel to
  // `straggled` with 0 for discarded updates. The straggler-cut path used to
  // skip the push entirely, leaving the two vectors out of step.
  FaultWorld world;
  NebulaConfig cfg;
  cfg.fault_policy.round_deadline_s = 1e-9;  // everyone is late
  cfg.fault_policy.staleness_factor = 0.0f;  // late = discarded
  auto sys = world.make_system(cfg);
  sys.offline(world.proxy);
  const RoundReport rep = sys.round();
  ASSERT_GT(rep.straggled.size(), 0u);
  ASSERT_EQ(rep.staleness_weights.size(), rep.straggled.size());
  for (double w : rep.staleness_weights) EXPECT_EQ(w, 0.0);

  // Kept stragglers record the configured factor instead.
  FaultWorld world2;
  NebulaConfig keep;
  keep.fault_policy.round_deadline_s = 1e-9;
  keep.fault_policy.staleness_factor = 0.25f;
  auto kept = world2.make_system(keep);
  kept.offline(world2.proxy);
  const RoundReport rep2 = kept.round();
  ASSERT_EQ(rep2.staleness_weights.size(), rep2.straggled.size());
  for (double w : rep2.staleness_weights) EXPECT_DOUBLE_EQ(w, 0.25);
}

TEST(FaultTolerantRound, FlakyLinksRetryAndAccountOverhead) {
  FaultWorld world;
  NebulaConfig cfg;
  cfg.fault_policy.max_transfer_attempts = 4;
  auto sys = world.make_system(cfg);
  sys.offline(world.proxy);
  FaultConfig fc;
  fc.transfer_failure_prob = 0.4;
  fc.seed = 321;
  sys.inject_faults(fc);
  std::int64_t retries = 0;
  for (int r = 0; r < 3; ++r) retries += sys.round().transfer_retries;
  EXPECT_GT(retries, 0);
  EXPECT_GT(sys.ledger().overhead_bytes(), 0);
  EXPECT_GT(sys.ledger().failed_attempts(), 0);
  // Goodput is still strictly separated from waste.
  EXPECT_GT(sys.ledger().total_bytes(), 0);
  EXPECT_EQ(sys.ledger().total_bytes_with_overhead(),
            sys.ledger().total_bytes() + sys.ledger().overhead_bytes());
}

TEST(FaultTolerantRound, StragglersInflateEstimatedWallTime) {
  FaultWorld w1, w2;
  auto fast = w1.make_system();
  fast.offline(w1.proxy);
  FaultConfig none;
  none.seed = 5;
  fast.inject_faults(none);
  const double base_wall = fast.round().wall_time_s;

  auto slow = w2.make_system();
  slow.offline(w2.proxy);
  FaultConfig fc;
  fc.straggler_prob = 1.0;
  fc.straggler_multiplier_lo = 10.0;
  fc.straggler_multiplier_hi = 10.0;
  fc.seed = 5;
  slow.inject_faults(fc);
  const double slow_wall = slow.round().wall_time_s;
  // All-straggler rounds are 10x slower on the compute side; transfer time
  // (unchanged, and dominant for this small model) dilutes that, so only
  // require a conservative 1.5x on the total.
  EXPECT_GT(slow_wall, 1.5 * base_wall);
}

TEST(FaultTolerantRound, ThirtyPercentDropoutStillImproves) {
  // Acceptance: at 30% dropout (plus mild link flakiness) the collaborative
  // loop must still improve device accuracy over rounds.
  FaultWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  double before = 0.0;
  for (int k = 0; k < 5; ++k) before += sys.eval_derived(k, 160);
  FaultConfig fc;
  fc.dropout_prob = 0.3;
  fc.transfer_failure_prob = 0.05;
  fc.straggler_prob = 0.2;
  fc.seed = 31;
  sys.inject_faults(fc);
  std::int64_t aggregated = 0;
  for (int r = 0; r < 5; ++r) aggregated += sys.round().aggregated ? 1 : 0;
  double after = 0.0;
  for (int k = 0; k < 5; ++k) after += sys.eval_derived(k, 160);
  EXPECT_GT(aggregated, 0);
  EXPECT_TRUE(model_state_finite(sys.cloud()));
  EXPECT_GT(after, before) << "dropout-degraded collaboration regressed: "
                           << before / 5 << " -> " << after / 5;
  EXPECT_GT(after / 5, 0.6);
}

}  // namespace
}  // namespace nebula
