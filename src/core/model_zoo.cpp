#include "core/model_zoo.h"

#include <algorithm>
#include <cmath>

#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/layers_basic.h"

namespace nebula {

namespace {

// Hidden-width fractions cycled across a module layer's shrunk modules.
constexpr double kFractions[] = {1.0, 0.75, 0.5, 0.375, 0.25};

constexpr std::int64_t kSelectorEmbedDim = 32;

std::int64_t scaled(std::int64_t base, double f) {
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                       std::lround(base * f)));
}

// ---- Block tables -----------------------------------------------------------

/// A dense layer of a stem, bridge or head. Input sizes are not listed: each
/// follows from the activation shape the layers before it produce.
enum class Op {
  kLinear,      // Linear to `out` features
  kConv,        // 3x3 Conv2d to `out` channels, padding 1
  kBatchNorm,
  kReLU,
  kMaxPool,     // 2x2
  kGlobalAvgPool,
  kFlatten,
  kDropout,     // p = 0.1
  kClassifier,  // Linear to the task's classes
};

struct LayerSpec {
  Op op;
  std::int64_t out = 0;
  std::int64_t stride = 1;
  bool scales = true;  // a plain width-r model shrinks `out`
};

/// Two Linear (MLP) or two 3x3 conv layers around a ReLU, mapping the trunk
/// width to a hidden width and back.
enum class BlockKind { kMlp, kConv };

/// One repeated block: a module layer in the modular model, one block at
/// width r in the plain model.
struct BlockSpec {
  BlockKind kind;
  std::int64_t hidden;          // base hidden width
  bool plain_residual = true;   // plain model wraps the block in a Residual
  std::vector<LayerSpec> bridge = {};  // dense layers after the block
};

struct FamilySpec {
  std::size_t input_rank;
  /// Paper modules per layer: the default, and the granularity reference
  /// that module hidden widths scale against (see build_module_layer).
  std::int64_t modules;
  std::vector<LayerSpec> stem;
  std::vector<BlockSpec> blocks;
  std::vector<LayerSpec> head;
};

/// The four families, indexed by TaskModel.
const FamilySpec& family(TaskModel which) {
  static const FamilySpec families[] = {
      // kMlpHar.
      {1, 16,
       {{Op::kLinear, 48}, {Op::kReLU}},
       {{BlockKind::kMlp, 32, /*plain_residual=*/false}},
       {{Op::kReLU}, {Op::kClassifier}}},
      // kResNet18: two blocks at 8 channels on 4x4 maps, two at 16 on 2x2.
      {3, 16,
       {{Op::kConv, 8}, {Op::kBatchNorm}, {Op::kReLU}, {Op::kMaxPool}},
       {{BlockKind::kConv, 8},
        {BlockKind::kConv, 8, true,
         {{Op::kConv, 16, 2}, {Op::kBatchNorm}, {Op::kReLU}}},
        {BlockKind::kConv, 16},
        {BlockKind::kConv, 16}},
       {{Op::kReLU}, {Op::kGlobalAvgPool}, {Op::kClassifier}}},
      // kVgg16. Shallow VGG blocks stay dense in the stem; the paper
      // modularizes the parameter-heavy deep blocks: the last conv stacks
      // AND the fully-connected block on the flattened features, where the
      // parameters concentrate. The conv blocks carry a residual path that
      // classic VGG lacks: with several routed module layers stacked, the
      // identity path is what keeps gradients flowing to rarely-selected
      // modules (without it the modular model reached 2.6% against the
      // plain model's 72% on the 100-class task). The plain model keeps its
      // 16-channel trunk at every width.
      {3, 32,
       {{Op::kConv, 12},
        {Op::kReLU},
        {Op::kMaxPool},
        {Op::kConv, 16, 1, /*scales=*/false},
        {Op::kBatchNorm},
        {Op::kReLU}},
       {{BlockKind::kConv, 16},
        {BlockKind::kConv, 16, true, {{Op::kFlatten}}},
        {BlockKind::kMlp, 64}},
       {{Op::kReLU}, {Op::kDropout}, {Op::kClassifier}}},
      // kResNet34. The head flattens 12 x 4 x 2 = 96 features: global
      // pooling's 12 cannot separate 35 classes.
      {3, 32,
       {{Op::kConv, 8},
        {Op::kBatchNorm},
        {Op::kReLU},
        {Op::kMaxPool},
        {Op::kConv, 12, 2},
        {Op::kBatchNorm},
        {Op::kReLU}},
       {{BlockKind::kConv, 12},
        {BlockKind::kConv, 12},
        {BlockKind::kConv, 12}},
       {{Op::kReLU}, {Op::kFlatten}, {Op::kClassifier}}},
  };
  const auto i = static_cast<std::size_t>(which);
  NEBULA_CHECK(i < std::size(families));
  return families[i];
}

// ---- Walkers ----------------------------------------------------------------

/// Instantiates a family's layers in table order at width fraction `width`,
/// tracking the activation shape (batch 1) so every layer's input size is
/// the output size of the layer before it.
class Walker {
 public:
  Walker(const FamilySpec& fam, const std::vector<std::int64_t>& sample_shape,
         std::int64_t num_classes, double width)
      : shape_{1}, classes_(num_classes), width_(width) {
    NEBULA_CHECK(sample_shape.size() == fam.input_rank);
    shape_.insert(shape_.end(), sample_shape.begin(), sample_shape.end());
  }

  /// Trunk width a block at the current position maps to and from.
  std::int64_t trunk() const { return shape_[1]; }

  std::vector<LayerPtr> dense(const std::vector<LayerSpec>& specs) {
    std::vector<LayerPtr> layers;
    for (const LayerSpec& s : specs) {
      layers.push_back(make(s));
      shape_ = layers.back()->out_shape(shape_);
    }
    return layers;
  }

 private:
  LayerPtr make(const LayerSpec& s) const {
    const std::int64_t in = shape_[1];
    const std::int64_t out = s.scales ? scaled(s.out, width_) : s.out;
    switch (s.op) {
      case Op::kLinear: return std::make_unique<Linear>(in, out);
      case Op::kConv: return std::make_unique<Conv2d>(in, out, 3, s.stride, 1);
      case Op::kBatchNorm: return std::make_unique<BatchNorm>(in);
      case Op::kReLU: return std::make_unique<ReLU>();
      case Op::kMaxPool: return std::make_unique<MaxPool2d>(2);
      case Op::kGlobalAvgPool: return std::make_unique<GlobalAvgPool>();
      case Op::kFlatten: return std::make_unique<Flatten>();
      case Op::kDropout: return std::make_unique<Dropout>(0.1f);
      case Op::kClassifier: return std::make_unique<Linear>(in, classes_);
    }
    NEBULA_CHECK(false);
    return nullptr;
  }

  std::vector<std::int64_t> shape_;
  std::int64_t classes_;
  double width_;
};

void add_block_layers(Sequential& seq, BlockKind kind, std::int64_t trunk,
                      std::int64_t hidden) {
  if (kind == BlockKind::kMlp) {
    seq.emplace<Linear>(trunk, hidden);
    seq.emplace<ReLU>();
    seq.emplace<Linear>(hidden, trunk);
  } else {
    seq.emplace<Conv2d>(trunk, hidden, 3, 1, 1);
    seq.emplace<ReLU>();
    seq.emplace<Conv2d>(hidden, trunk, 3, 1, 1);
  }
}

/// Residual(block): the residual path keeps gradients flowing to
/// rarely-routed modules.
LayerPtr residual_block(BlockKind kind, std::int64_t trunk,
                        std::int64_t hidden) {
  auto inner = std::make_unique<Sequential>();
  add_block_layers(*inner, kind, trunk, hidden);
  return std::make_unique<Residual>(std::move(inner));
}

/// Builds one module layer: N-1 shrunk modules over the fraction cycle plus
/// one identity (residual) module in the last slot.
///
/// `reference_modules` anchors the granularity: module hidden widths scale
/// with reference_modules / num_modules, so a layer split into more modules
/// has proportionally finer modules (constant total modular capacity — the
/// premise behind the paper's Figure 13(b) granularity trade-off).
std::vector<LayerPtr> build_module_layer(const BlockSpec& block,
                                         std::int64_t trunk,
                                         std::int64_t num_modules,
                                         std::int64_t reference_modules) {
  NEBULA_CHECK(num_modules >= 2);
  const double granularity = static_cast<double>(reference_modules) /
                             static_cast<double>(num_modules);
  std::vector<LayerPtr> mods;
  mods.reserve(static_cast<std::size_t>(num_modules));
  for (std::int64_t i = 0; i + 1 < num_modules; ++i) {
    const double f = kFractions[i % std::size(kFractions)] * granularity;
    mods.push_back(residual_block(block.kind, trunk, scaled(block.hidden, f)));
  }
  mods.push_back(std::make_unique<Identity>());
  return mods;
}

/// A dense part as one layer: absent when empty, bare when a single layer.
LayerPtr chain(std::vector<LayerPtr> layers) {
  if (layers.empty()) return nullptr;
  if (layers.size() == 1) return std::move(layers.front());
  auto seq = std::make_unique<Sequential>();
  for (LayerPtr& layer : layers) seq->add(std::move(layer));
  return seq;
}

}  // namespace

ZooModel make_modular(TaskModel which,
                      const std::vector<std::int64_t>& sample_shape,
                      std::int64_t num_classes, const ZooOptions& opts) {
  const FamilySpec& fam = family(which);
  Walker walk(fam, sample_shape, num_classes, 1.0);
  init::reseed(opts.init_seed);
  const std::int64_t n =
      opts.modules_per_layer ? opts.modules_per_layer : fam.modules;

  // Construction order fixes the init draws: stem, then module layers and
  // bridges interleaved, then head, then the selector.
  ModularModel::Parts parts;
  parts.stem = chain(walk.dense(fam.stem));
  for (std::size_t b = 0; b < fam.blocks.size(); ++b) {
    parts.module_layers.push_back(
        build_module_layer(fam.blocks[b], walk.trunk(), n, fam.modules));
    if (b + 1 < fam.blocks.size()) {
      parts.bridges.push_back(chain(walk.dense(fam.blocks[b].bridge)));
    }
  }
  parts.head = chain(walk.dense(fam.head));

  ZooModel zm;
  zm.model = std::make_unique<ModularModel>(std::move(parts), sample_shape);
  zm.selector = std::make_unique<ModuleSelector>(
      zm.model->flat_input_dim(), kSelectorEmbedDim, zm.model->full_widths());
  return zm;
}

LayerPtr make_plain(TaskModel which,
                    const std::vector<std::int64_t>& sample_shape,
                    std::int64_t num_classes, double width) {
  const FamilySpec& fam = family(which);
  Walker walk(fam, sample_shape, num_classes, width);
  auto m = std::make_unique<Sequential>();
  auto append = [&m](std::vector<LayerPtr> layers) {
    for (LayerPtr& layer : layers) m->add(std::move(layer));
  };
  append(walk.dense(fam.stem));
  for (const BlockSpec& block : fam.blocks) {
    const std::int64_t hidden = scaled(block.hidden, width);
    if (block.plain_residual) {
      m->add(residual_block(block.kind, walk.trunk(), hidden));
    } else {
      add_block_layers(*m, block.kind, walk.trunk(), hidden);
    }
    append(walk.dense(block.bridge));
  }
  append(walk.dense(fam.head));
  return m;
}

}  // namespace nebula
