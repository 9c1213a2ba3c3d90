// Model factories for the paper's four task models, in both modularized
// (Nebula) and plain width-scalable (baseline) forms.
//
// The architectures follow the paper's block patterns — MLP blocks,
// ResNet-style residual conv blocks, VGG-style conv stacks — scaled down so
// hundreds of federated training runs fit a CPU-only box (DESIGN.md §2).
// Each family is one block table (model_zoo.cpp): dense stem layers, a list
// of repeated blocks with the dense bridges between them, and a dense head.
// `make_modular` turns every block into a module layer; `make_plain`
// instantiates every block once at a width fraction. Paper settings
// preserved: MLP has 1 module layer x 16 modules; the ResNet18-style model
// has 4 module layers x 16 modules; the VGG16- and ResNet34-style models
// modularize their last three blocks with 32 modules each (deep layers hold
// most parameters, §6.1).
//
// Every module layer contains width-shrunk clones of its block (hidden sizes
// at fractions of the base width) and one residual (identity) module.
#pragma once

#include <cstdint>
#include <memory>

#include "core/gating.h"
#include "core/modular_model.h"

namespace nebula {

/// A modularized model bundled with its unified selector.
struct ZooModel {
  std::unique_ptr<ModularModel> model;
  std::unique_ptr<ModuleSelector> selector;
};

struct ZooOptions {
  std::int64_t modules_per_layer = 0;  // 0 = paper default for that family
  std::uint64_t init_seed = 0x5eed;
};

/// The paper's four task configurations. Sample shapes: kMlpHar takes
/// {features}; the conv families take {channels, height, width}.
enum class TaskModel {
  kMlpHar,    // 3-layer MLP for HAR-like sensing
  kResNet18,  // ResNet18-style conv model
  kVgg16,     // VGG16-style conv model, conv and FC blocks modularized
  kResNet34,  // ResNet34-style conv model
};

/// The modularized model and its selector. Reseeds the init stream with
/// `opts.init_seed`, so equal options give equal parameters.
ZooModel make_modular(TaskModel which,
                      const std::vector<std::int64_t>& sample_shape,
                      std::int64_t num_classes, const ZooOptions& opts = {});

/// The plain (non-modular) counterpart for baselines, drawing its weights
/// from the current init stream. `width` in (0, 1] scales the hidden and
/// channel dimensions (HeteroFL-style nested widths: a width-r model's
/// parameters embed as the prefix block of the width-1 model's parameters,
/// see baselines/heterofl.h).
LayerPtr make_plain(TaskModel which,
                    const std::vector<std::int64_t>& sample_shape,
                    std::int64_t num_classes, double width = 1.0);

}  // namespace nebula
