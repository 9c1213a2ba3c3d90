// Serialization round-trips and evaluation-metric tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/model_zoo.h"
#include "eval/metrics.h"
#include "nn/init.h"
#include "nn/serialize.h"
#include "nn/state.h"
#include "test_util.h"

namespace nebula {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(Serialize, StateFileRoundTrip) {
  const std::string path = temp_path("state.neb");
  std::vector<float> state = {1.5f, -2.25f, 0.0f, 1e-20f, 3e8f};
  save_state_file(path, state);
  EXPECT_EQ(load_state_file(path), state);
  std::remove(path.c_str());
}

TEST(Serialize, EmptyStateOk) {
  const std::string path = temp_path("empty.neb");
  save_state_file(path, {});
  EXPECT_TRUE(load_state_file(path).empty());
  std::remove(path.c_str());
}

TEST(Serialize, ModelRoundTripPreservesOutputs) {
  const std::string path = temp_path("model.neb");
  init::reseed(901);
  auto a = make_plain(TaskModel::kMlpHar, {8}, 3, 1.0);
  init::reseed(902);
  auto b = make_plain(TaskModel::kMlpHar, {8}, 3, 1.0);
  save_model(path, *a);
  load_model(path, *b);
  Rng rng(3);
  Tensor x({4, 8});
  testutil::fill_random(x, rng);
  testutil::expect_tensor_near(a->forward(x, false), b->forward(x, false));
  std::remove(path.c_str());
}

TEST(Serialize, RejectsCorruptFiles) {
  const std::string path = temp_path("junk.neb");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a nebula file", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_state_file(path), std::runtime_error);
  EXPECT_THROW(load_state_file(temp_path("missing.neb")), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, SizeMismatchOnLoadThrows) {
  const std::string path = temp_path("small.neb");
  init::reseed(903);
  auto small = make_plain(TaskModel::kMlpHar, {4}, 2, 0.5);
  save_model(path, *small);
  init::reseed(904);
  auto big = make_plain(TaskModel::kMlpHar, {4}, 2, 1.0);
  EXPECT_THROW(load_model(path, *big), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Metrics, TopkAccuracy) {
  Tensor logits({2, 4}, {0.1f, 0.9f, 0.5f, 0.2f,   // top2: {1, 2}
                         0.8f, 0.1f, 0.05f, 0.7f}); // top2: {0, 3}
  EXPECT_FLOAT_EQ(topk_accuracy(logits, {2, 1}, 1), 0.0f);
  EXPECT_FLOAT_EQ(topk_accuracy(logits, {2, 3}, 2), 1.0f);
  EXPECT_FLOAT_EQ(topk_accuracy(logits, {1, 1}, 2), 0.5f);
  EXPECT_THROW(topk_accuracy(logits, {0, 0}, 5), std::runtime_error);
}

TEST(Metrics, ConfusionMatrixNormalisesRows) {
  ConfusionMatrix cm(3);
  Tensor logits({4, 3}, {9, 0, 0,   // pred 0, true 0
                         9, 0, 0,   // pred 0, true 1
                         0, 9, 0,   // pred 1, true 1
                         0, 0, 9}); // pred 2, true 2
  cm.add(logits, {0, 1, 1, 2});
  EXPECT_DOUBLE_EQ(cm.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cm.at(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(cm.at(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(cm.at(2, 2), 1.0);
  EXPECT_EQ(cm.total_samples(), 4);
  auto per_class = cm.per_class_accuracy();
  EXPECT_DOUBLE_EQ(per_class[1], 0.5);
  EXPECT_NEAR(cm.balanced_accuracy(), (1.0 + 0.5 + 1.0) / 3.0, 1e-12);
  cm.reset();
  EXPECT_EQ(cm.total_samples(), 0);
  EXPECT_DOUBLE_EQ(cm.balanced_accuracy(), 0.0);
}

TEST(Metrics, ConfusionMatrixIgnoresUnseenClasses) {
  ConfusionMatrix cm(4);
  Tensor logits({1, 4}, {9, 0, 0, 0});
  cm.add(logits, {0});
  EXPECT_DOUBLE_EQ(cm.balanced_accuracy(), 1.0);  // only class 0 seen
  EXPECT_DOUBLE_EQ(cm.at(3, 3), 0.0);
}

TEST(Metrics, ConvergenceTracker) {
  ConvergenceTracker t;
  EXPECT_EQ(t.converged_at(), -1);
  t.record(0.2);
  t.record(0.5);
  t.record(0.79);
  t.record(0.8);
  t.record(0.81);
  // 95% of 0.81 = 0.7695 -> first index reaching it is 2.
  EXPECT_EQ(t.converged_at(0.95), 2);
  EXPECT_DOUBLE_EQ(t.final_accuracy(), 0.81);
  EXPECT_EQ(t.converged_at(1.0), 4);
}

}  // namespace
}  // namespace nebula
