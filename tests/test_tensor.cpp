// Tensor construction and kernel tests: GEMM against a reference
// implementation, elementwise ops, reductions, softmax, top-k, im2col.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace nebula {
namespace {

using testutil::fill_random;

TEST(Tensor, ConstructionZeroInitialises) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2u);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t[static_cast<std::size_t>(i)], 0.0f);
  }
}

TEST(Tensor, ShapeVolumeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), std::runtime_error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::runtime_error);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at(2, 0), std::runtime_error);
  EXPECT_THROW(t.at(0, -1), std::runtime_error);
}

TEST(Tensor, NegativeDimensionRejected) {
  EXPECT_THROW(Tensor({2, -1}), std::runtime_error);
}

// Reference O(n^3) GEMM for validation.
Tensor matmul_ref(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

class MatmulSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MatmulSizes, MatchesReference) {
  auto [m, k, n] = GetParam();
  Rng rng(7 + m * 100 + k * 10 + n);
  Tensor a({m, k}), b({k, n});
  fill_random(a, rng);
  fill_random(b, rng);
  Tensor c = matmul(a, b);
  testutil::expect_tensor_near(c, matmul_ref(a, b), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 17, 9), std::make_tuple(128, 32, 20),
                      std::make_tuple(65, 64, 1)));

TEST(Matmul, InnerDimensionMismatchThrows) {
  Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(matmul(a, b), std::runtime_error);
}

TEST(Matmul, TnAccAccumulates) {
  Rng rng(11);
  Tensor a({5, 3}), b({5, 4});
  fill_random(a, rng);
  fill_random(b, rng);
  Tensor c({3, 4});
  c.fill(1.0f);
  matmul_tn_acc(a, b, c);
  // Reference: 1 + A^T B.
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      double acc = 1.0;
      for (std::int64_t p = 0; p < 5; ++p) {
        acc += static_cast<double>(a.at(p, i)) * b.at(p, j);
      }
      EXPECT_NEAR(c.at(i, j), acc, 1e-4);
    }
  }
}

TEST(Matmul, NtMatchesReference) {
  Rng rng(12);
  Tensor a({6, 3}), b({5, 3});
  fill_random(a, rng);
  fill_random(b, rng);
  Tensor c({6, 5});
  matmul_nt(a, b, c);
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < 3; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(j, p);
      }
      EXPECT_NEAR(c.at(i, j), acc, 1e-4);
    }
  }
}

TEST(Elementwise, AddSubMulScaleAxpy) {
  Tensor a({4}, {1, 2, 3, 4});
  Tensor b({4}, {4, 3, 2, 1});
  Tensor c = add(a, b);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(c[i], 5.0f);
  Tensor d = sub(a, b);
  EXPECT_EQ(d[0], -3.0f);
  EXPECT_EQ(d[3], 3.0f);
  mul_inplace(a, b);  // {4, 6, 6, 4}
  EXPECT_EQ(a[1], 6.0f);
  scale_inplace(a, 0.5f);
  EXPECT_EQ(a[0], 2.0f);
  axpy(2.0f, b, a);  // a + 2b
  EXPECT_EQ(a[3], 2.0f + 2.0f * 1.0f);
}

TEST(Elementwise, SizeMismatchThrows) {
  Tensor a({3}), b({4});
  EXPECT_THROW(add_inplace(a, b), std::runtime_error);
  EXPECT_THROW(dot(a, b), std::runtime_error);
}

TEST(Reductions, SumMeanNormDot) {
  Tensor a({4}, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(sum(a), -2.0f);
  EXPECT_FLOAT_EQ(mean(a), -0.5f);
  EXPECT_FLOAT_EQ(max_abs(a), 4.0f);
  EXPECT_NEAR(l2_norm(a), std::sqrt(30.0f), 1e-5);
  Tensor b({4}, {1, 1, 1, 1});
  EXPECT_FLOAT_EQ(dot(a, b), -2.0f);
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Tensor logits({2, 3}, {1.0f, 2.0f, 3.0f, -1.0f, -1.0f, -1.0f});
  Tensor p = softmax_rows(logits);
  for (std::int64_t r = 0; r < 2; ++r) {
    float s = 0.0f;
    for (std::int64_t c = 0; c < 3; ++c) s += p.at(r, c);
    EXPECT_NEAR(s, 1.0f, 1e-5);
  }
  EXPECT_LT(p.at(0, 0), p.at(0, 1));
  EXPECT_LT(p.at(0, 1), p.at(0, 2));
  EXPECT_NEAR(p.at(1, 0), 1.0f / 3.0f, 1e-5);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits({1, 2}, {1000.0f, 999.0f});
  Tensor p = softmax_rows(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_GT(p[0], p[1]);
}

TEST(Softmax, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(5);
  Tensor logits({3, 7});
  fill_random(logits, rng, 3.0f);
  Tensor p = softmax_rows(logits);
  Tensor lp = log_softmax_rows(logits);
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    EXPECT_NEAR(lp[static_cast<std::size_t>(i)],
                std::log(p[static_cast<std::size_t>(i)]), 1e-4);
  }
}

TEST(TopK, ReturnsDescendingIndices) {
  const float v[] = {0.1f, 0.9f, 0.5f, 0.7f};
  auto idx = topk_indices(v, 4, 3);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 3);
  EXPECT_EQ(idx[2], 2);
}

TEST(TopK, DeterministicTieBreakByIndex) {
  const float v[] = {0.5f, 0.5f, 0.5f};
  auto idx = topk_indices(v, 3, 2);
  EXPECT_EQ(idx[0], 0);
  EXPECT_EQ(idx[1], 1);
}

TEST(TopK, KZeroAndKAll) {
  const float v[] = {1.0f, 2.0f};
  EXPECT_TRUE(topk_indices(v, 2, 0).empty());
  EXPECT_EQ(topk_indices(v, 2, 2).size(), 2u);
  EXPECT_THROW(topk_indices(v, 2, 3), std::runtime_error);
}

TEST(TopK, BufferFormMatchesAndReusesCapacity) {
  const float wide[] = {0.3f, 0.1f, 0.9f, 0.9f, 0.2f, 0.7f};
  const float narrow[] = {0.4f, 0.8f, 0.6f};
  std::vector<std::int64_t> buf;
  topk_indices(wide, 6, 3, buf);
  EXPECT_EQ(buf, topk_indices(wide, 6, 3));
  EXPECT_EQ(buf, (std::vector<std::int64_t>{2, 3, 5}));
  const std::int64_t* storage = buf.data();
  topk_indices(narrow, 3, 2, buf);  // stale contents from the wider row
  EXPECT_EQ(buf, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(buf.data(), storage);  // no reallocation
  EXPECT_THROW(topk_indices(narrow, 3, 4, buf), std::runtime_error);
}

TEST(Argmax, PicksRowMaximum) {
  Tensor t({2, 3}, {0, 5, 2, 9, 1, 1});
  EXPECT_EQ(argmax_row(t, 0), 1);
  EXPECT_EQ(argmax_row(t, 1), 0);
}

TEST(Im2Col, IdentityKernelReproducesImage) {
  // 1x1 kernel, stride 1, no pad: col == image.
  Rng rng(3);
  Tensor img({2, 4, 4});
  fill_random(img, rng);
  Tensor col({2, 16});
  im2col(img.data(), 2, 4, 4, 1, 1, 1, 0, col.data(), 16);
  testutil::expect_tensor_near(col, Tensor({2, 16}, img.storage()));
}

TEST(Im2Col, PaddingProducesZeroBorder) {
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  // 3x3 kernel, pad 1 -> out 2x2, col is (9, 4).
  Tensor col({9, 4});
  im2col(img.data(), 1, 2, 2, 3, 3, 1, 1, col.data(), 4);
  // First row = kernel position (0,0): all outputs read padded region except
  // output pixel (1,1) which reads img(0,0)=1.
  EXPECT_EQ(col.at(0, 0), 0.0f);
  EXPECT_EQ(col.at(0, 3), 1.0f);
  // Centre kernel position (1,1) reads the image directly.
  EXPECT_EQ(col.at(4, 0), 1.0f);
  EXPECT_EQ(col.at(4, 3), 4.0f);
}

TEST(Im2Col, Col2ImAdjointProperty) {
  // <im2col(x), y> == <x, col2im(y)> (adjoint pair), checked on random data.
  Rng rng(17);
  const std::int64_t c = 2, h = 5, w = 4, k = 3, stride = 2, pad = 1;
  const std::int64_t oh = conv_out_size(h, k, stride, pad);
  const std::int64_t ow = conv_out_size(w, k, stride, pad);
  Tensor x({c, h, w});
  fill_random(x, rng);
  Tensor col({c * k * k, oh * ow});
  im2col(x.data(), c, h, w, k, k, stride, pad, col.data(), oh * ow);
  Tensor y(col.shape());
  fill_random(y, rng);
  Tensor back({c, h, w});
  col2im(y.data(), oh * ow, c, h, w, k, k, stride, pad, back.data());
  EXPECT_NEAR(dot(col, y), dot(x, back), 1e-3);
}

TEST(ConvOutSize, Formula) {
  EXPECT_EQ(conv_out_size(8, 3, 1, 1), 8);
  EXPECT_EQ(conv_out_size(8, 3, 2, 1), 4);
  EXPECT_EQ(conv_out_size(8, 2, 2, 0), 4);
  EXPECT_EQ(conv_out_size(5, 3, 2, 0), 2);
}

}  // namespace
}  // namespace nebula
