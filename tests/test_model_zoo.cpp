// Model-zoo structure tests: the properties the resource experiments
// (Figures 7-9) depend on.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/derivation.h"
#include "core/model_zoo.h"
#include "nn/init.h"
#include "nn/state.h"

namespace nebula {
namespace {

TEST(ModelZoo, PaperModuleLayerCounts) {
  ZooOptions opts;
  EXPECT_EQ(make_modular(TaskModel::kMlpHar, {32}, 6, opts)
                .model->num_module_layers(),
            1u);
  EXPECT_EQ(make_modular(TaskModel::kResNet18, {3, 8, 8}, 10, opts)
                .model->num_module_layers(),
            4u);
  EXPECT_EQ(make_modular(TaskModel::kVgg16, {3, 8, 8}, 100, opts)
                .model->num_module_layers(),
            3u);
  EXPECT_EQ(make_modular(TaskModel::kResNet34, {1, 16, 8}, 35, opts)
                .model->num_module_layers(),
            3u);
}

TEST(ModelZoo, DefaultModuleWidthsMatchPaper) {
  ZooOptions opts;  // defaults
  auto mlp = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
  EXPECT_EQ(mlp.model->full_widths()[0], 16);
  auto vgg = make_modular(TaskModel::kVgg16, {3, 8, 8}, 100, opts);
  for (auto w : vgg.model->full_widths()) EXPECT_EQ(w, 32);
}

TEST(ModelZoo, VggFcLayerHoldsParameterMass) {
  // The FC module layer must dominate the conv module layers in parameters —
  // that is what makes VGG sub-models meaningfully smaller than the original.
  ZooOptions opts;
  auto vgg = make_modular(TaskModel::kVgg16, {3, 8, 8}, 100, opts);
  auto costs = vgg.model->module_costs();
  std::int64_t conv_max = 0, fc_max = 0;
  for (const auto& c : costs[0]) conv_max = std::max(conv_max, c.params);
  for (const auto& c : costs[2]) fc_max = std::max(fc_max, c.params);
  EXPECT_GT(fc_max, 3 * conv_max);
}

TEST(ModelZoo, SubmodelsShrinkMeaningfullyBelowReference) {
  // At a 0.35 budget the derived sub-model must carry well under the
  // original-model parameter count (Figures 7-9 depend on this headroom).
  for (auto which : {TaskModel::kVgg16, TaskModel::kResNet34}) {
    ZooOptions opts;
    opts.init_seed = 2001;
    std::vector<std::int64_t> shape =
        which == TaskModel::kVgg16 ? std::vector<std::int64_t>{3, 8, 8}
                                   : std::vector<std::int64_t>{1, 16, 8};
    const std::int64_t classes = which == TaskModel::kVgg16 ? 100 : 35;
    auto zm = make_modular(which, shape, classes, opts);
    SubmodelDerivation der(zm.model->module_costs(), zm.model->shared_cost());
    DerivationRequest req;
    req.importance.resize(zm.model->num_module_layers());
    for (std::size_t l = 0; l < req.importance.size(); ++l) {
      const std::int64_t n = zm.model->full_widths()[l];
      req.importance[l].assign(static_cast<std::size_t>(n),
                               1.0 / static_cast<double>(n));
    }
    req.budgets = der.budget_fraction(0.35);
    auto res = der.derive(req);
    EXPECT_TRUE(res.within_budget);
    EXPECT_LT(res.used[0], der.reference_cost()[0] * 0.85)
        << "sub-model too close to the original model's size";
  }
}

TEST(ModelZoo, ModuleFractionCycleProducesDiverseSizes) {
  ZooOptions opts;
  opts.modules_per_layer = 11;  // two full fraction cycles + identity
  auto zm = make_modular(TaskModel::kMlpHar, {16}, 4, opts);
  auto costs = zm.model->module_costs();
  std::int64_t distinct = 0;
  std::int64_t last = -1;
  std::vector<std::int64_t> sizes;
  for (const auto& c : costs[0]) sizes.push_back(c.params);
  std::sort(sizes.begin(), sizes.end());
  for (auto s : sizes) {
    if (s != last) ++distinct;
    last = s;
  }
  EXPECT_GE(distinct, 5);  // 5 fractions + identity ≥ 5 distinct sizes
}

TEST(ModelZoo, PlainWidthScalingIsNestedPrefix) {
  // Width-scaled plain models must have pairwise-aligned tensors with
  // elementwise-smaller shapes (the HeteroFL prefix-sharing contract).
  for (auto which : {TaskModel::kMlpHar, TaskModel::kResNet18,
                     TaskModel::kVgg16, TaskModel::kResNet34}) {
    std::vector<std::int64_t> shape;
    std::int64_t classes = 0;
    switch (which) {
      case TaskModel::kMlpHar: shape = {32}; classes = 6; break;
      case TaskModel::kResNet18: shape = {3, 8, 8}; classes = 10; break;
      case TaskModel::kVgg16: shape = {3, 8, 8}; classes = 100; break;
      case TaskModel::kResNet34: shape = {1, 16, 8}; classes = 35; break;
    }
    init::reseed(2002);
    auto full = make_plain(which, shape, classes, 1.0);
    init::reseed(2003);
    auto half = make_plain(which, shape, classes, 0.5);
    auto fp = full->params();
    auto hp = half->params();
    ASSERT_EQ(fp.size(), hp.size());
    for (std::size_t i = 0; i < fp.size(); ++i) {
      ASSERT_EQ(fp[i]->value.rank(), hp[i]->value.rank());
      for (std::size_t d = 0; d < fp[i]->value.rank(); ++d) {
        EXPECT_LE(hp[i]->value.shape()[d], fp[i]->value.shape()[d]);
      }
    }
  }
}

TEST(ModelZoo, SelectorWidthsMatchModel) {
  ZooOptions opts;
  auto zm = make_modular(TaskModel::kResNet18, {3, 8, 8}, 10, opts);
  ASSERT_EQ(zm.selector->num_layers(), zm.model->num_module_layers());
  for (std::size_t l = 0; l < zm.selector->num_layers(); ++l) {
    EXPECT_EQ(zm.selector->layer_width(l), zm.model->full_widths()[l]);
  }
  EXPECT_EQ(zm.selector->input_dim(), zm.model->flat_input_dim());
}

// ---- Pinned construction ----------------------------------------------------
//
// Every factory output is pinned by its parameter count, a hash of its layer
// structure, and a hash of its initial state bytes (model and selector). A
// change to how the zoo builds models that moves any init draw, width or layer
// fails here. On a mismatch the failure prints the actual row, ready to paste.

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(const std::vector<float>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(float), h);
}

void append_shape(const std::vector<std::int64_t>& shape, std::string& out) {
  out += '(';
  for (auto d : shape) out += std::to_string(d) + ',';
  out += ')';
}

/// Layer names in construction order, containers bracketed, each leaf
/// followed by its parameter names and shapes.
void append_layer_names(Layer& layer, std::string& out) {
  out += layer.name();
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    out += '[';
    for (std::size_t i = 0; i < seq->size(); ++i) {
      append_layer_names((*seq)[i], out);
    }
    out += ']';
  } else if (auto* res = dynamic_cast<Residual*>(&layer)) {
    out += '[';
    append_layer_names(res->inner(), out);
    out += ']';
  } else {
    for (Param* p : layer.params()) {
      out += p->name;
      append_shape(p->value.shape(), out);
    }
  }
  out += ';';
}

struct ZooPin {
  std::string label;
  std::int64_t params;
  std::uint64_t names;
  std::uint64_t state;

  bool operator==(const ZooPin& o) const {
    return label == o.label && params == o.params && names == o.names &&
           state == o.state;
  }
};

std::string pin_row(const ZooPin& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %" PRId64 ", 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL},",
                p.label.c_str(), p.params, p.names, p.state);
  return buf;
}

struct ZooCase {
  TaskModel which;
  std::vector<std::int64_t> shape;
  std::int64_t classes;
  std::string family;
};

ZooPin pin_modular(const ZooCase& c, const ZooOptions& opts,
                   const std::string& label) {
  auto zm = make_modular(c.which, c.shape, c.classes, opts);
  ModularModel& m = *zm.model;
  // The stem, bridges and head are reachable only through their parameters
  // and the shapes and costs they produce.
  std::string names;
  for (Param* p : m.params()) {
    names += p->name;
    append_shape(p->value.shape(), names);
  }
  for (std::size_t l = 0; l < m.num_module_layers(); ++l) {
    names += "|L" + std::to_string(l);
    append_shape(m.layer_input_shape(l), names);
    for (std::size_t i = 0; i < m.module_layer(l).size(); ++i) {
      append_layer_names(m.module_layer(l).module(i), names);
    }
  }
  names += "|flops" + std::to_string(m.forward_flops());
  names += "|selector" + std::to_string(zm.selector->embed_dim());
  for (Param* p : zm.selector->params()) append_shape(p->value.shape(), names);

  std::uint64_t state = fnv1a(m.shared_state(), 0xcbf29ce484222325ULL);
  for (std::size_t l = 0; l < m.num_module_layers(); ++l) {
    for (std::int64_t id : m.module_layer(l).global_ids()) {
      state = fnv1a(m.module_state(l, id), state);
    }
  }
  state = fnv1a(zm.selector->state(), state);
  return {label, m.num_params(), fnv1a(names.data(), names.size()), state};
}

ZooPin pin_plain(const ZooCase& c, double width, const std::string& label) {
  init::reseed(0x91a1);  // plain factories draw from the current init stream
  auto net = make_plain(c.which, c.shape, c.classes, width);
  std::string names;
  append_layer_names(*net, names);
  std::vector<std::int64_t> in = c.shape;
  in.insert(in.begin(), 1);
  append_shape(net->out_shape(in), names);
  names += "|flops" + std::to_string(net->flops(in));
  return {label, net->num_params(), fnv1a(names.data(), names.size()),
          fnv1a(get_state(*net), 0xcbf29ce484222325ULL)};
}

TEST(ModelZoo, ParametersPinned) {
  const std::vector<ZooPin> golden = {
      {"modular.mlp.default", 29370, 0x2ba55b7c283cd4ceULL, 0xa0d1db5199dfd353ULL},
      {"modular.mlp.n6", 25883, 0xf8b19ed0f27d6072ULL, 0x5591e942f393bc07ULL},
      {"modular.mlp.seed4242", 29370, 0x2ba55b7c283cd4ceULL, 0xe825d69646c781fdULL},
      {"plain.mlp.w1", 5030, 0xbdbf963f602a26c0ULL, 0xf6467d5175d15a97ULL},
      {"plain.mlp.w0.75", 3198, 0x02638f01f98c4921ULL, 0xb29e57676dc7be9eULL},
      {"plain.mlp.w0.5", 1750, 0xcce377f899da5056ULL, 0xa50ab906f85af166ULL},
      {"plain.mlp.w0.25", 686, 0x9ccd718092c51f4dULL, 0xf384754a9e918463ULL},
      {"modular.resnet18.default", 102104, 0xf1e5dc3fe279efdcULL, 0x399efa45023fe687ULL},
      {"modular.resnet18.n6", 90634, 0xae6b0f7043c4687cULL, 0x493b142bbd02afe9ULL},
      {"modular.resnet18.seed4242", 102104, 0xf1e5dc3fe279efdcULL, 0x26fd2d75707a4bc3ULL},
      {"plain.resnet18.w1", 13226, 0x34704773f0de9e52ULL, 0x2b65a90cd7513222ULL},
      {"plain.resnet18.w0.75", 7546, 0x0b418fe393340160ULL, 0xb0349495a20c9d5eULL},
      {"plain.resnet18.w0.5", 3450, 0xc73bff41eae4cfa6ULL, 0xc8ec6dd0327c15a3ULL},
      {"plain.resnet18.w0.25", 938, 0x814af5774547ea58ULL, 0x2441df7a411eb372ULL},
      {"modular.vgg16.default", 804700, 0xc66127c839de4901ULL, 0x17af40c2894710f1ULL},
      {"modular.vgg16.n6", 674115, 0xae42aeaf0b1f9de6ULL, 0xdc32b996a38f00f0ULL},
      {"modular.vgg16.seed4242", 804700, 0xc66127c839de4901ULL, 0xaf3eddab19d80a2bULL},
      {"plain.vgg16.w1", 70180, 0xd15b212406c54c95ULL, 0x67f06caa68e09138ULL},
      {"plain.vgg16.w0.75", 59144, 0x40e8a87fb40cd57cULL, 0x1e2cbcbfceae9c75ULL},
      {"plain.vgg16.w0.5", 48108, 0x8eea68bb98c5c3fdULL, 0xb1e140b12498a3f3ULL},
      {"plain.vgg16.w0.25", 37072, 0xa8c09fc80e5c33d7ULL, 0x41b9bf8280bb0f49ULL},
      {"modular.resnet34.default", 150029, 0xe572274e8b461247ULL, 0x4ee547a8a2492156ULL},
      {"modular.resnet34.n6", 124355, 0xea01b02d3028faa8ULL, 0xe1754afa232e0087ULL},
      {"modular.resnet34.seed4242", 150029, 0xe572274e8b461247ULL, 0x2e38a637e9c0fa58ULL},
      {"plain.resnet34.w1", 12239, 0x36f281871980c22dULL, 0xac35ae801e951c08ULL},
      {"plain.resnet34.w0.75", 7568, 0xfbf3d512693aa0a5ULL, 0x01517beb4f69ade4ULL},
      {"plain.resnet34.w0.5", 3977, 0x3da4c2886e687395ULL, 0x958c34cc59bc83e1ULL},
      {"plain.resnet34.w0.25", 1466, 0x7d8ddf954d31dc3eULL, 0x20f0acaea4206b0cULL},
  };
  const std::vector<ZooCase> cases = {
      {TaskModel::kMlpHar, {32}, 6, "mlp"},
      {TaskModel::kResNet18, {3, 8, 8}, 10, "resnet18"},
      {TaskModel::kVgg16, {3, 8, 8}, 100, "vgg16"},
      {TaskModel::kResNet34, {1, 16, 8}, 35, "resnet34"}};
  std::vector<ZooPin> actual;
  for (const ZooCase& c : cases) {
    const std::string modular = "modular." + c.family;
    ZooOptions opts;
    actual.push_back(pin_modular(c, opts, modular + ".default"));
    opts.modules_per_layer = 6;
    actual.push_back(pin_modular(c, opts, modular + ".n6"));
    opts = ZooOptions{};
    opts.init_seed = 4242;
    actual.push_back(pin_modular(c, opts, modular + ".seed4242"));
    for (const char* w : {"1", "0.75", "0.5", "0.25"}) {
      actual.push_back(
          pin_plain(c, std::stod(w), "plain." + c.family + ".w" + w));
    }
  }
  ASSERT_EQ(golden.size(), actual.size()) << [&] {
    std::string rows = "actual rows:\n";
    for (const ZooPin& a : actual) rows += pin_row(a) + "\n";
    return rows;
  }();
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(golden[i], actual[i]) << "actual: " << pin_row(actual[i]);
  }
}

}  // namespace
}  // namespace nebula
