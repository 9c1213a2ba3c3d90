// NebulaSystem integration tests: the full offline + online pipeline on a
// small fleet, ledger accounting, ablation switches.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "core/nebula.h"
#include "nn/init.h"
#include "nn/serialize.h"

namespace nebula {
namespace {

struct SmallWorld {
  std::unique_ptr<SyntheticGenerator> gen;
  std::unique_ptr<EdgePopulation> pop;
  std::vector<DeviceProfile> profiles;
  SyntheticData proxy;

  explicit SmallWorld(std::uint64_t seed = 88) {
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

TEST(NebulaSystem, OfflineProducesAbilityResult) {
  SmallWorld world;
  auto sys = world.make_system();
  auto ability = sys.offline(world.proxy);
  ASSERT_TRUE(ability.has_value());
  EXPECT_EQ(ability->target.size(), sys.cloud().num_module_layers());
}

TEST(NebulaSystem, AbilityCanBeDisabled) {
  SmallWorld world;
  NebulaConfig cfg;
  cfg.enable_ability = false;
  auto sys = world.make_system(cfg);
  EXPECT_FALSE(sys.offline(world.proxy).has_value());
}

TEST(NebulaSystem, RoundTrainsAndAccountsComm) {
  SmallWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  const RoundReport report = sys.round();
  EXPECT_EQ(report.participants.size(), 4u);
  // Fair-weather round: everyone completes, nothing dropped or rejected.
  EXPECT_EQ(report.completed, report.participants);
  EXPECT_TRUE(report.dropped.empty());
  EXPECT_TRUE(report.straggled.empty());
  EXPECT_TRUE(report.rejected.empty());
  EXPECT_EQ(report.transfer_retries, 0);
  EXPECT_TRUE(report.aggregated);
  EXPECT_GT(report.wall_time_s, 0.0);
  EXPECT_GT(sys.ledger().download_bytes(), 0);
  EXPECT_GT(sys.ledger().upload_bytes(), 0);
  EXPECT_EQ(sys.ledger().overhead_bytes(), 0);
  // Upload excludes the selector, so it is strictly smaller than download
  // on the first contact.
  EXPECT_LT(sys.ledger().upload_bytes(), sys.ledger().download_bytes());
}

TEST(NebulaSystem, SelectorDownloadedOncePerDevice) {
  SmallWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  const SubmodelSpec spec = sys.derive(0).spec;
  // download_bytes is a pure size computation: until a transfer succeeds
  // the selector stays uncached and keeps being counted.
  const std::int64_t first = sys.download_bytes(spec, 0);
  EXPECT_EQ(sys.download_bytes(spec, 0), first);
  sys.mark_selector_cached(0);
  const std::int64_t second = sys.download_bytes(spec, 0);
  EXPECT_EQ(first - second, sys.selector().state_size() * 4);
}

TEST(NebulaSystem, DeviceBudgetsTrackCapacity) {
  SmallWorld world;
  auto sys = world.make_system();
  for (int a = 0; a < 10; ++a) {
    for (int b = 0; b < 10; ++b) {
      if (world.profiles[a].mem_capacity_mb <
          world.profiles[b].mem_capacity_mb) {
        EXPECT_LE(sys.budget_fraction_for(a), sys.budget_fraction_for(b));
      }
    }
  }
}

TEST(NebulaSystem, DerivedSubmodelsRespectBudgets) {
  SmallWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  for (int k = 0; k < 10; ++k) {
    auto res = sys.derive(k);
    EXPECT_TRUE(res.within_budget) << "device " << k;
    for (const auto& layer : res.spec.modules) {
      EXPECT_GE(layer.size(), 1u);
    }
  }
}

TEST(NebulaSystem, CollaborationImprovesDeviceAccuracy) {
  SmallWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  double before = 0.0;
  for (int k = 0; k < 5; ++k) before += sys.eval_derived(k, 160);
  for (int r = 0; r < 5; ++r) sys.round();
  double after = 0.0;
  for (int k = 0; k < 5; ++k) after += sys.eval_derived(k, 160);
  EXPECT_GT(after, before - 0.15)
      << "adaptation must not destroy accuracy: " << before / 5 << " -> "
      << after / 5;
  EXPECT_GT(after / 5, 0.6);
}

TEST(NebulaSystem, AdaptDeviceVariantsMaintainResidentModel) {
  SmallWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  EXPECT_EQ(sys.resident_spec(3), nullptr);
  sys.adapt_device(3, /*query_cloud=*/true, /*local_train=*/false, false);
  ASSERT_NE(sys.resident_spec(3), nullptr);
  const std::int64_t dl_after_query = sys.ledger().download_bytes();
  // Local-only adaptation must not touch the network.
  sys.adapt_device(3, /*query_cloud=*/false, /*local_train=*/true, false);
  EXPECT_EQ(sys.ledger().download_bytes(), dl_after_query);
  const std::int64_t ul_before = sys.ledger().upload_bytes();
  sys.adapt_device(3, false, true, /*upload=*/true);
  EXPECT_GT(sys.ledger().upload_bytes(), ul_before);
}

TEST(NebulaSystem, OnlineMixGatesUploadsButNotRounds) {
  // DESIGN.md §5: online_mix applies ONLY to single-device continuous
  // uploads (adapt_device with upload=true) — a full round already averages
  // across the fleet and always aggregates at full weight. Pin both halves
  // of the asymmetry so an accidental "unification" fails loudly.
  auto snapshot = [](NebulaSystem& s) {
    std::vector<float> snap = s.cloud().shared_state();
    for (std::size_t l = 0; l < s.cloud().num_module_layers(); ++l) {
      for (std::int64_t gid = 0; gid < s.cloud().full_widths()[l]; ++gid) {
        const auto st = s.cloud().module_state(l, gid);
        snap.insert(snap.end(), st.begin(), st.end());
      }
    }
    return snap;
  };

  NebulaConfig lo, hi;  // aggregation requires mix in (0, 1]
  lo.online_mix = 0.05f;
  hi.online_mix = 1.0f;

  // Half 1: the mix scales how much of a single-device upload reaches the
  // cloud — identical systems differing only in online_mix diverge after
  // one adapt_device upload.
  {
    SmallWorld w1, w2;
    auto a = w1.make_system(lo);
    auto b = w2.make_system(hi);
    a.offline(w1.proxy);
    b.offline(w2.proxy);
    a.adapt_device(1, /*query_cloud=*/true, /*local_train=*/true,
                   /*upload=*/true);
    b.adapt_device(1, /*query_cloud=*/true, /*local_train=*/true,
                   /*upload=*/true);
    EXPECT_NE(snapshot(a), snapshot(b));
  }

  // Half 2: round() ignores online_mix entirely — the same two configs
  // produce bit-identical clouds after a full round.
  {
    SmallWorld w1, w2;
    auto a = w1.make_system(lo);
    auto b = w2.make_system(hi);
    a.offline(w1.proxy);
    b.offline(w2.proxy);
    a.round();
    b.round();
    EXPECT_EQ(snapshot(a), snapshot(b));
  }
}

TEST(NebulaSystem, EvalDeviceUsesResidentModel) {
  SmallWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  const float acc = sys.eval_device(2, 160);
  EXPECT_GT(acc, 0.3f);
  EXPECT_NE(sys.resident_spec(2), nullptr);  // lazily derived
}

TEST(NebulaSystem, CheckpointRoundTrip) {
  SmallWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);
  sys.round();
  const std::string path = std::string(::testing::TempDir()) + "cloud.neb";
  sys.save_cloud(path);

  SmallWorld world2;
  auto fresh = world2.make_system();
  fresh.load_cloud(path);
  // The restored cloud must produce identical derived sub-model outputs.
  Dataset test = world.pop->device_test(0, 128);
  auto spec = sys.derive(0).spec;
  auto a = sys.build_submodel(spec);
  auto b = fresh.build_submodel(spec);
  const float acc_a = evaluate_modular(*a, sys.selector(), test, 2);
  const float acc_b = evaluate_modular(*b, fresh.selector(), test, 2);
  EXPECT_FLOAT_EQ(acc_a, acc_b);
  std::remove(path.c_str());
  EXPECT_THROW(fresh.load_cloud(path), std::runtime_error);
}

TEST(NebulaSystem, LoadCloudRejectsTruncatedCheckpoint) {
  SmallWorld world;
  auto sys = world.make_system();
  const std::string path =
      std::string(::testing::TempDir()) + "truncated.neb";
  sys.save_cloud(path);
  const std::vector<float> blob = load_state_file(path);
  const auto before_shared = sys.cloud().shared_state();

  // A well-formed state file that is simply too short for this architecture
  // (e.g. checkpoint from a smaller model) must be rejected up-front.
  save_state_file(path,
                  std::vector<float>(blob.begin(), blob.end() - 5));
  EXPECT_THROW(sys.load_cloud(path), std::runtime_error);
  // The failed load must not have half-applied anything.
  EXPECT_EQ(sys.cloud().shared_state(), before_shared);

  // A physically chopped file (header promises more floats than the file
  // holds — a crash mid-write) must throw at the serialisation layer.
  save_state_file(path, blob);
  const long full_size =
      8 + 8 + static_cast<long>(blob.size()) * 4;  // magic + count + payload
  ASSERT_EQ(truncate(path.c_str(), full_size / 2), 0);
  EXPECT_THROW(sys.load_cloud(path), std::runtime_error);
  EXPECT_EQ(sys.cloud().shared_state(), before_shared);
  std::remove(path.c_str());
}

TEST(NebulaSystem, LoadCloudRejectsTrailingData) {
  SmallWorld world;
  auto sys = world.make_system();
  const std::string path = std::string(::testing::TempDir()) + "trailing.neb";
  sys.save_cloud(path);
  std::vector<float> blob = load_state_file(path);
  blob.push_back(1.0f);  // one float too many
  save_state_file(path, blob);
  const auto before_shared = sys.cloud().shared_state();
  EXPECT_THROW(sys.load_cloud(path), std::runtime_error);
  EXPECT_EQ(sys.cloud().shared_state(), before_shared);
  std::remove(path.c_str());
}

TEST(NebulaSystem, SaveCrashLoadRecoveryResumesTraining) {
  // The "survives process restarts" promise: train, checkpoint, simulate a
  // crash by abandoning the process state, restore into a fresh system and
  // keep training productively.
  SmallWorld world;
  const std::string path = std::string(::testing::TempDir()) + "recovery.neb";
  {
    auto sys = world.make_system();
    sys.offline(world.proxy);
    sys.round();
    sys.save_cloud(path);
    // Crash: `sys` (cloud model, resident sub-models, RNG state) is lost.
  }
  SmallWorld world2;
  auto restored = world2.make_system();
  restored.load_cloud(path);
  double before = 0.0;
  for (int k = 0; k < 4; ++k) before += restored.eval_derived(k, 160);
  // Resumed collaborative training must still work and not collapse.
  for (int r = 0; r < 3; ++r) {
    const RoundReport rep = restored.round();
    EXPECT_TRUE(rep.aggregated);
  }
  double after = 0.0;
  for (int k = 0; k < 4; ++k) after += restored.eval_derived(k, 160);
  EXPECT_GT(after, before - 0.15)
      << "recovered system lost accuracy: " << before / 4 << " -> "
      << after / 4;
  EXPECT_GT(after / 4, 0.5);
  std::remove(path.c_str());
}

TEST(NebulaSystem, ProfileCountMismatchThrows) {
  SmallWorld world;
  ZooOptions opts;
  opts.modules_per_layer = 4;
  NebulaConfig cfg;
  std::vector<DeviceProfile> wrong(world.profiles.begin(),
                                   world.profiles.begin() + 3);
  EXPECT_THROW(NebulaSystem(make_modular(TaskModel::kMlpHar, {32}, 6, opts),
                            *world.pop, wrong, cfg),
               std::runtime_error);
}

}  // namespace
}  // namespace nebula
