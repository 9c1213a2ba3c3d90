// Simulator tests: device profiles, contention model, cost models,
// communication ledger, tier assignment.
#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "nn/init.h"
#include "sim/cost_model.h"
#include "sim/device.h"

namespace nebula {
namespace {

TEST(DeviceProfile, PresetsMatchPaperTestbed) {
  auto nano = DeviceProfile::jetson_nano();
  auto pi = DeviceProfile::raspberry_pi();
  EXPECT_EQ(nano.mem_capacity_mb, 4096.0);  // 4 GB Jetson Nano
  EXPECT_EQ(pi.mem_capacity_mb, 2048.0);    // 2 GB Raspberry Pi 4B
  EXPECT_TRUE(nano.has_gpu);
  EXPECT_FALSE(pi.has_gpu);
  EXPECT_GT(nano.flops_per_sec, pi.flops_per_sec);
}

TEST(ProfileSampler, FleetsSpanHeterogeneousResources) {
  ProfileSampler sampler(5);
  auto fleet = sampler.sample_fleet(200, 0.6);
  ASSERT_EQ(fleet.size(), 200u);
  double min_mem = 1e18, max_mem = 0;
  std::int64_t mobiles = 0;
  for (const auto& p : fleet) {
    min_mem = std::min(min_mem, p.mem_capacity_mb);
    max_mem = std::max(max_mem, p.mem_capacity_mb);
    if (p.cls == DeviceClass::kMobileSoc) ++mobiles;
    EXPECT_GT(p.flops_per_sec, 0.0);
    EXPECT_GT(p.bandwidth_mbps, 0.0);
  }
  EXPECT_LT(min_mem, 2048.0 + 1);   // IoT boards go small
  EXPECT_GT(max_mem, 8000.0);       // mobiles go large
  EXPECT_NEAR(static_cast<double>(mobiles) / 200.0, 0.6, 0.12);
}

TEST(RuntimeMonitor, ContentionMatchesPaperFigure1b) {
  // Paper: 3 co-running processes inflate latency ~5.06x.
  RuntimeMonitor idle(0), busy(3);
  EXPECT_DOUBLE_EQ(idle.contention_factor(), 1.0);
  EXPECT_NEAR(busy.contention_factor(), 5.06, 0.01);
  EXPECT_THROW(RuntimeMonitor(-1), std::runtime_error);
}

TEST(AssignTiers, QuantilesAreBalanced) {
  ProfileSampler sampler(6);
  auto fleet = sampler.sample_fleet(90);
  auto tiers = assign_tiers_by_capacity(fleet, 3);
  std::int64_t counts[3] = {0, 0, 0};
  for (auto t : tiers) {
    ASSERT_LT(t, 3u);
    ++counts[t];
  }
  EXPECT_EQ(counts[0], 30);
  EXPECT_EQ(counts[1], 30);
  EXPECT_EQ(counts[2], 30);
  // Monotone: every tier-2 device has >= capacity of every tier-0 device.
  double max0 = 0, min2 = 1e18;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (tiers[i] == 0) max0 = std::max(max0, fleet[i].mem_capacity_mb);
    if (tiers[i] == 2) min2 = std::min(min2, fleet[i].mem_capacity_mb);
  }
  EXPECT_LE(max0, min2);
}

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    init::reseed(0xC057);
    model_ = make_plain(TaskModel::kResNet18, {3, 8, 8}, 10, 1.0);
  }
  LayerPtr model_;
};

TEST_F(CostModelTest, ModelSizeIsParamBytes) {
  const double mb = CostModel::model_size_mb(*model_);
  EXPECT_NEAR(mb, model_->num_params() * 4.0 / (1024.0 * 1024.0), 1e-9);
}

TEST_F(CostModelTest, TrainingCostsExceedInference) {
  // Paper Figure 2(c): training costs much more memory and time.
  const double inf_mem = CostModel::inference_peak_mem_mb(*model_, {3, 8, 8});
  const double train_mem =
      CostModel::training_peak_mem_mb(*model_, {3, 8, 8}, 16);
  EXPECT_GT(train_mem, 3.0 * inf_mem);

  RuntimeMonitor idle(0);
  auto nano = DeviceProfile::jetson_nano();
  const double inf_lat =
      CostModel::inference_latency_ms(*model_, {3, 8, 8}, 16, nano, idle);
  const double train_lat =
      CostModel::training_latency_ms(*model_, {3, 8, 8}, 16, nano, idle);
  EXPECT_GT(train_lat, 2.0 * inf_lat);
}

TEST_F(CostModelTest, ContentionScalesLatency) {
  auto pi = DeviceProfile::raspberry_pi();
  RuntimeMonitor idle(0), busy(3);
  const double base =
      CostModel::inference_latency_ms(*model_, {3, 8, 8}, 1, pi, idle);
  const double contended =
      CostModel::inference_latency_ms(*model_, {3, 8, 8}, 1, pi, busy);
  EXPECT_NEAR(contended / base, 5.06, 0.01);
}

TEST_F(CostModelTest, SlowerDeviceIsSlower) {
  RuntimeMonitor idle(0);
  auto nano = DeviceProfile::jetson_nano();
  auto pi = DeviceProfile::raspberry_pi();
  EXPECT_GT(CostModel::training_latency_ms(*model_, {3, 8, 8}, 16, pi, idle),
            CostModel::training_latency_ms(*model_, {3, 8, 8}, 16, nano,
                                           idle));
}

TEST_F(CostModelTest, BiggerModelCostsMore) {
  init::reseed(0xC058);
  auto half = make_plain(TaskModel::kResNet18, {3, 8, 8}, 10, 0.5);
  EXPECT_LT(CostModel::model_size_mb(*half),
            CostModel::model_size_mb(*model_));
  EXPECT_LT(CostModel::forward_flops(*half, {3, 8, 8}),
            CostModel::forward_flops(*model_, {3, 8, 8}));
  EXPECT_LT(CostModel::training_peak_mem_mb(*half, {3, 8, 8}),
            CostModel::training_peak_mem_mb(*model_, {3, 8, 8}));
}

TEST_F(CostModelTest, TransferTimeScalesWithBytesAndBandwidth) {
  auto pi = DeviceProfile::raspberry_pi();
  const double t1 = CostModel::transfer_time_s(1'000'000, pi);
  const double t2 = CostModel::transfer_time_s(2'000'000, pi);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-9);
  auto fast = pi;
  fast.bandwidth_mbps *= 4.0;
  EXPECT_NEAR(CostModel::transfer_time_s(1'000'000, fast), t1 / 4.0, 1e-9);
}

TEST(CommLedger, AccumulatesAndResets) {
  CommLedger ledger;
  ledger.record_download(1024);
  ledger.record_upload(2048);
  EXPECT_EQ(ledger.download_bytes(), 1024);
  EXPECT_EQ(ledger.upload_bytes(), 2048);
  EXPECT_EQ(ledger.total_bytes(), 3072);
  EXPECT_NEAR(ledger.total_mb(), 3072.0 / (1024 * 1024), 1e-12);
  ledger.reset();
  EXPECT_EQ(ledger.total_bytes(), 0);
  EXPECT_THROW(ledger.record_download(-1), std::runtime_error);
}

TEST(CommLedger, SeparatesGoodputFromFaultOverhead) {
  CommLedger ledger;
  // Two failed download attempts, then success; one failed upload attempt.
  ledger.record_failed_download(1000);
  ledger.record_failed_download(1000);
  ledger.record_download(1000);
  ledger.record_failed_upload(500);
  ledger.record_upload(500);

  // Goodput counters see only the successful transfers...
  EXPECT_EQ(ledger.download_bytes(), 1000);
  EXPECT_EQ(ledger.upload_bytes(), 500);
  EXPECT_EQ(ledger.total_bytes(), 1500);
  // ...while the waste is tracked separately.
  EXPECT_EQ(ledger.wasted_download_bytes(), 2000);
  EXPECT_EQ(ledger.wasted_upload_bytes(), 500);
  EXPECT_EQ(ledger.overhead_bytes(), 2500);
  EXPECT_EQ(ledger.total_bytes_with_overhead(), 4000);
  EXPECT_NEAR(ledger.overhead_mb(), 2500.0 / (1024 * 1024), 1e-12);
  // Every attempt (failed or not) counts as an attempt.
  EXPECT_EQ(ledger.download_attempts(), 3);
  EXPECT_EQ(ledger.upload_attempts(), 2);
  EXPECT_EQ(ledger.failed_attempts(), 3);

  ledger.reset();
  EXPECT_EQ(ledger.overhead_bytes(), 0);
  EXPECT_EQ(ledger.download_attempts(), 0);
  EXPECT_EQ(ledger.upload_attempts(), 0);
  EXPECT_EQ(ledger.failed_attempts(), 0);
  EXPECT_THROW(ledger.record_failed_upload(-1), std::runtime_error);
}

TEST_F(CostModelTest, DegradedLinkStretchesTransferTime) {
  auto pi = DeviceProfile::raspberry_pi();
  const double full = CostModel::transfer_time_s(1'000'000, pi);
  const double degraded =
      CostModel::transfer_time_s(1'000'000, pi, /*bandwidth_factor=*/0.25);
  EXPECT_NEAR(degraded, 4.0 * full, 1e-9);
  EXPECT_THROW(CostModel::transfer_time_s(1'000'000, pi, 0.0),
               std::runtime_error);
  EXPECT_THROW(CostModel::transfer_time_s(1'000'000, pi, 1.5),
               std::runtime_error);
}

TEST_F(CostModelTest, ComputeTimeScalesWithSlowdown) {
  auto pi = DeviceProfile::raspberry_pi();
  const double flops = CostModel::forward_flops(*model_, {3, 8, 8});
  const double base = CostModel::compute_time_s(flops, pi);
  const double straggling = CostModel::compute_time_s(flops, pi, 6.0);
  EXPECT_GT(base, 0.0);
  EXPECT_NEAR(straggling, 6.0 * base, 1e-9);
  EXPECT_THROW(CostModel::compute_time_s(flops, pi, 0.5), std::runtime_error);
}

}  // namespace
}  // namespace nebula
