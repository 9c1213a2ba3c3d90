#include "eval/metrics.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/ops.h"

namespace nebula {

float topk_accuracy(const Tensor& logits,
                    const std::vector<std::int64_t>& labels, std::int64_t k) {
  NEBULA_CHECK(logits.rank() == 2);
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  NEBULA_CHECK(static_cast<std::int64_t>(labels.size()) == n);
  NEBULA_CHECK(k >= 1 && k <= c);
  if (n == 0) return 0.0f;
  std::int64_t hits = 0;
  std::vector<std::int64_t> top;
  for (std::int64_t r = 0; r < n; ++r) {
    topk_indices(logits.data() + r * c, c, k, top);
    if (std::find(top.begin(), top.end(), labels[static_cast<std::size_t>(r)]) !=
        top.end()) {
      ++hits;
    }
  }
  return static_cast<float>(hits) / static_cast<float>(n);
}

ConfusionMatrix::ConfusionMatrix(std::int64_t num_classes)
    : num_classes_(num_classes) {
  NEBULA_CHECK(num_classes > 0);
  reset();
}

void ConfusionMatrix::reset() {
  counts_.assign(static_cast<std::size_t>(num_classes_ * num_classes_), 0);
  row_totals_.assign(static_cast<std::size_t>(num_classes_), 0);
  total_ = 0;
}

void ConfusionMatrix::add(const Tensor& logits,
                          const std::vector<std::int64_t>& labels) {
  NEBULA_CHECK(logits.rank() == 2 && logits.dim(1) == num_classes_);
  NEBULA_CHECK(static_cast<std::int64_t>(labels.size()) == logits.dim(0));
  for (std::int64_t r = 0; r < logits.dim(0); ++r) {
    const std::int64_t truth = labels[static_cast<std::size_t>(r)];
    NEBULA_CHECK(truth >= 0 && truth < num_classes_);
    const std::int64_t pred = argmax_row(logits, r);
    ++counts_[static_cast<std::size_t>(truth * num_classes_ + pred)];
    ++row_totals_[static_cast<std::size_t>(truth)];
    ++total_;
  }
}

double ConfusionMatrix::at(std::int64_t truth, std::int64_t pred) const {
  NEBULA_CHECK(truth >= 0 && truth < num_classes_ && pred >= 0 &&
               pred < num_classes_);
  const std::int64_t row = row_totals_[static_cast<std::size_t>(truth)];
  if (row == 0) return 0.0;
  return static_cast<double>(
             counts_[static_cast<std::size_t>(truth * num_classes_ + pred)]) /
         static_cast<double>(row);
}

std::vector<double> ConfusionMatrix::per_class_accuracy() const {
  std::vector<double> out(static_cast<std::size_t>(num_classes_), 0.0);
  for (std::int64_t c = 0; c < num_classes_; ++c) {
    out[static_cast<std::size_t>(c)] = at(c, c);
  }
  return out;
}

double ConfusionMatrix::balanced_accuracy() const {
  double s = 0.0;
  std::int64_t seen = 0;
  for (std::int64_t c = 0; c < num_classes_; ++c) {
    if (row_totals_[static_cast<std::size_t>(c)] > 0) {
      s += at(c, c);
      ++seen;
    }
  }
  return seen == 0 ? 0.0 : s / static_cast<double>(seen);
}

std::int64_t ConvergenceTracker::converged_at(double ratio) const {
  if (series_.empty()) return -1;
  const double target = ratio * series_.back();
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i] >= target) return static_cast<std::int64_t>(i);
  }
  return static_cast<std::int64_t>(series_.size()) - 1;
}

}  // namespace nebula
