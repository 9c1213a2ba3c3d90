// Baseline tests: nested prefix sharing (HeteroFL machinery), FedAvg rounds,
// local/no adaptation, AdaptiveNet-like branch selection.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/fedavg.h"
#include "baselines/heterofl.h"
#include "baselines/nested.h"
#include "baselines/onbaselines.h"
#include "core/model_zoo.h"
#include "nn/init.h"
#include "nn/state.h"

namespace nebula {
namespace {

TEST(Nested, ExtractCopiesPrefixBlocks) {
  init::reseed(601);
  auto full = make_plain(TaskModel::kMlpHar, {8}, 3, 1.0);
  init::reseed(602);
  auto half = make_plain(TaskModel::kMlpHar, {8}, 3, 0.5);
  nested_extract(*full, *half);
  // First linear layer of the half model equals the top-left block of the
  // full model's first linear layer.
  auto fp = full->params();
  auto hp = half->params();
  ASSERT_EQ(fp.size(), hp.size());
  const Tensor& fw = fp[0]->value;  // (8, 48)
  const Tensor& hw = hp[0]->value;  // (8, 24)
  for (std::int64_t r = 0; r < hw.dim(0); ++r) {
    for (std::int64_t c = 0; c < hw.dim(1); ++c) {
      EXPECT_EQ(hw.at(r, c), fw.at(r, c));
    }
  }
}

TEST(Nested, ExtractRejectsMismatchedArchitectures) {
  auto mlp = make_plain(TaskModel::kMlpHar, {8}, 3, 1.0);
  auto conv = make_plain(TaskModel::kResNet18, {3, 8, 8}, 3, 1.0);
  EXPECT_THROW(nested_extract(*mlp, *conv), std::runtime_error);
}

TEST(Nested, AggregatorAveragesCoveredRegions) {
  init::reseed(603);
  auto full = make_plain(TaskModel::kMlpHar, {4}, 2, 1.0);
  for (Param* p : full->params()) p->value.fill(0.0f);
  init::reseed(604);
  auto a = make_plain(TaskModel::kMlpHar, {4}, 2, 0.5);
  init::reseed(605);
  auto b = make_plain(TaskModel::kMlpHar, {4}, 2, 1.0);
  for (Param* p : a->params()) p->value.fill(2.0f);
  for (Param* p : b->params()) p->value.fill(4.0f);
  NestedAggregator agg(*full);
  agg.add(*a, 1.0);
  agg.add(*b, 1.0);
  agg.finish(*full);
  // Overlap region (covered by both): (2+4)/2 = 3; full-only region: 4.
  const Tensor& w = full->params()[0]->value;  // (4, 48) vs half (4, 24)
  EXPECT_FLOAT_EQ(w.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(w.at(0, 47), 4.0f);
}

TEST(Nested, AggregatorWeightsRespected) {
  init::reseed(606);
  auto full = make_plain(TaskModel::kMlpHar, {4}, 2, 1.0);
  auto a = make_plain(TaskModel::kMlpHar, {4}, 2, 1.0);
  auto b = make_plain(TaskModel::kMlpHar, {4}, 2, 1.0);
  for (Param* p : a->params()) p->value.fill(10.0f);
  for (Param* p : b->params()) p->value.fill(0.0f);
  NestedAggregator agg(*full);
  agg.add(*a, 3.0);
  agg.add(*b, 1.0);
  agg.finish(*full);
  EXPECT_NEAR(full->params()[0]->value[0], 7.5f, 1e-5);
  EXPECT_THROW(agg.add(*a, 0.0), std::runtime_error);
}

class FleetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    gen_ = std::make_unique<SyntheticGenerator>(har_like_spec(), 77);
    PartitionConfig pc;
    pc.num_devices = 12;
    pc.classes_per_device = 0;  // subjects
    pc.seed = 9;
    pop_ = std::make_unique<EdgePopulation>(*gen_, pc);
    ProfileSampler sampler(3);
    profiles_ = sampler.sample_fleet(12);
    proxy_ = pop_->proxy_data(800);
  }
  std::unique_ptr<SyntheticGenerator> gen_;
  std::unique_ptr<EdgePopulation> pop_;
  std::vector<DeviceProfile> profiles_;
  Dataset proxy_;
};

TEST_F(FleetFixture, FedAvgRoundImprovesAndCountsComm) {
  init::reseed(607);
  FedAvgConfig cfg;
  cfg.devices_per_round = 4;
  FedAvg fa(make_plain(TaskModel::kMlpHar, {32}, 6, 1.0), *pop_, cfg);
  TrainConfig pre;
  pre.epochs = 4;
  fa.pretrain(proxy_, pre);
  const std::int64_t model_bytes = state_bytes(fa.global());
  auto participants = fa.round();
  EXPECT_EQ(participants.size(), 4u);
  // Full model both ways for every participant.
  EXPECT_EQ(fa.ledger().download_bytes(), 4 * model_bytes);
  EXPECT_EQ(fa.ledger().upload_bytes(), 4 * model_bytes);
  float acc = 0;
  for (int k = 0; k < 4; ++k) acc += fa.eval_device(k, 96);
  EXPECT_GT(acc / 4, 0.5f);
}

TEST_F(FleetFixture, FedAvgHasNoFaultDefences) {
  // The contrast case for the fault sweep: FedAvg silently loses dropped
  // devices and averages corrupted uploads straight into the global model.
  init::reseed(612);
  FedAvgConfig cfg;
  cfg.devices_per_round = 4;
  FedAvg fa(make_plain(TaskModel::kMlpHar, {32}, 6, 1.0), *pop_, cfg);
  TrainConfig pre;
  pre.epochs = 2;
  fa.pretrain(proxy_, pre);

  // Total dropout: the round runs but nothing is uploaded or averaged.
  FaultConfig all_drop;
  all_drop.dropout_prob = 1.0;
  all_drop.seed = 13;
  FaultInjector drop_inj(all_drop);
  fa.set_fault_injector(&drop_inj);
  const auto before = get_state(fa.global());
  auto participants = fa.round();
  EXPECT_EQ(participants.size(), 4u);
  EXPECT_EQ(get_state(fa.global()), before);
  EXPECT_EQ(fa.ledger().download_bytes(), 0);

  // Guaranteed corruption: with no validation the global model is poisoned.
  FaultConfig corrupt;
  corrupt.corruption_prob = 1.0;
  corrupt.seed = 14;
  FaultInjector corrupt_inj(corrupt);
  fa.set_fault_injector(&corrupt_inj);
  bool poisoned = false;
  for (int r = 0; r < 3 && !poisoned; ++r) {
    fa.round();
    for (float v : get_state(fa.global())) {
      if (!std::isfinite(v)) {
        poisoned = true;
        break;
      }
    }
  }
  EXPECT_TRUE(poisoned) << "NaN uploads should destroy an unvalidated "
                           "global average within a few rounds";
  fa.set_fault_injector(nullptr);
}

TEST_F(FleetFixture, HeteroFLTiersShrinkWithCapacity) {
  init::reseed(608);
  HeteroFLConfig cfg;
  cfg.devices_per_round = 4;
  HeteroFL hfl(
      [](double w) { return make_plain(TaskModel::kMlpHar, {32}, 6, w); },
      *pop_, profiles_, cfg);
  // Tier widths follow capacity order.
  for (int a = 0; a < 12; ++a) {
    for (int b = 0; b < 12; ++b) {
      if (profiles_[a].mem_capacity_mb < profiles_[b].mem_capacity_mb) {
        EXPECT_LE(hfl.device_width(a), hfl.device_width(b));
      }
    }
  }
  TrainConfig pre;
  pre.epochs = 3;
  hfl.pretrain(proxy_, pre);
  auto participants = hfl.round();
  EXPECT_EQ(participants.size(), 4u);
  EXPECT_GT(hfl.ledger().total_bytes(), 0);
  // Smaller tiers transmit less than the full model would.
  EXPECT_LT(hfl.ledger().download_bytes(),
            4 * state_bytes(hfl.global()) + 1);
  float acc = 0;
  for (int k = 0; k < 4; ++k) acc += hfl.eval_device(k, 96);
  EXPECT_GT(acc / 4, 0.4f);
}

TEST_F(FleetFixture, NoAdaptationIsStatic) {
  init::reseed(609);
  NoAdaptation na(make_plain(TaskModel::kMlpHar, {32}, 6, 1.0), *pop_);
  TrainConfig pre;
  pre.epochs = 4;
  na.pretrain(proxy_, pre);
  const float a1 = na.eval_device(0, 256);
  pop_->shift(0);
  // Model unchanged; only the environment moved.
  const float a2 = na.eval_device(0, 256);
  EXPECT_GT(a1, 0.5f);
  (void)a2;  // may go either way, but evaluation must not mutate the model
  auto s = get_state(na.model());
  na.eval_device(0, 64);
  EXPECT_EQ(get_state(na.model()), s);
}

TEST_F(FleetFixture, LocalAdaptationImprovesOnDeviceTask) {
  init::reseed(610);
  TrainConfig local;
  local.epochs = 6;
  local.lr = 0.02f;
  LocalAdaptation la(make_plain(TaskModel::kMlpHar, {32}, 6, 1.0), *pop_,
                     local);
  TrainConfig pre;
  pre.epochs = 2;  // weak pre-training leaves headroom
  la.pretrain(proxy_, pre);
  const float before = la.eval_device(1, 256);
  la.adapt_device(1);
  la.adapt_device(1);
  const float after = la.eval_device(1, 256);
  EXPECT_GE(after, before - 0.05f);
  EXPECT_GT(after, 0.55f);
}

TEST_F(FleetFixture, AdaptiveNetPicksBranchByCapacity) {
  init::reseed(611);
  TrainConfig local;
  local.epochs = 4;
  AdaptiveNetLike an(
      [](double w) { return make_plain(TaskModel::kMlpHar, {32}, 6, w); },
      {0.5, 0.75, 1.0}, *pop_, profiles_, local);
  for (int a = 0; a < 12; ++a) {
    for (int b = 0; b < 12; ++b) {
      if (profiles_[a].mem_capacity_mb < profiles_[b].mem_capacity_mb) {
        EXPECT_LE(an.device_width(a), an.device_width(b));
      }
    }
  }
  TrainConfig pre;
  pre.epochs = 3;
  an.pretrain(proxy_, pre);
  an.adapt_device(2);
  EXPECT_GT(an.eval_device(2, 128), 0.5f);
}

}  // namespace
}  // namespace nebula
