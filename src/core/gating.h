// Unified module selector (paper §4.2).
//
// One embedding network feeds L per-layer gate heads, so the activated
// modules for *all* module layers are decided in a single shot from the raw
// input — decoupled from module execution, which is what lets edge devices
// score module importance locally without running the large model.
//
// The selector outputs, per module layer, a probability distribution over
// that layer's modules (softmax over a linear head). Top-k selection, noise
// injection and output combination happen in ModuleLayer; the selector also
// carries the load-balancing auxiliary loss (§4.3) that keeps all modules
// trained, and accepts an extra per-layer logit gradient for the KL guidance
// term used by ability-enhancing fine-tuning.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layers_basic.h"
#include "nn/sequential.h"
#include "obs/routing.h"

namespace nebula {

/// Per-layer gate distributions for a batch.
struct GateResult {
  std::vector<Tensor> probs;   // per layer: (B, N_l), rows sum to 1
  std::vector<Tensor> logits;  // per layer: (B, N_l), pre-softmax
};

class ModuleSelector {
 public:
  /// `input_dim` is the flattened sample dimension; `layer_widths[l]` is the
  /// module count N_l of module layer l. `explore_eps` mixes a uniform
  /// distribution into every gate output (probs = (1-ε)·softmax + ε/N) so a
  /// module can never saturate to exactly zero probability — without this,
  /// an early-collapsed module has vanishing softmax gradient and the
  /// load-balance loss cannot revive it.
  ModuleSelector(std::int64_t input_dim, std::int64_t embed_dim,
                 std::vector<std::int64_t> layer_widths,
                 float explore_eps = 0.02f);

  /// Computes per-layer gate distributions for flattened inputs (B, D).
  GateResult forward(const Tensor& x_flat, bool train);

  /// Backpropagates per-layer gradients. `grad_probs[l]` is dL/d(probs_l)
  /// (may be empty to skip a layer); `grad_logits[l]` is an additional
  /// dL/d(logits_l) applied directly at the logits (for the KL term; may be
  /// an empty vector entirely). Must follow a forward(train=true).
  void backward(const std::vector<Tensor>& grad_probs,
                const std::vector<Tensor>& grad_logits = {});

  std::vector<Param*> params();

  /// Flat parameter state, for transfer/aggregation (the selector travels
  /// with every sub-model so devices can score modules locally).
  std::vector<float> state();
  void set_state(const std::vector<float>& state);
  std::int64_t state_size();

  std::size_t num_layers() const { return heads_.size(); }
  std::int64_t layer_width(std::size_t l) const { return layer_widths_[l]; }
  std::int64_t input_dim() const { return input_dim_; }
  std::int64_t embed_dim() const { return embed_dim_; }

  /// Mean per-module gate probability over a set of samples — the paper's
  /// module importance score Importance(w_i | D_k). Returns one vector per
  /// layer: the column means of gate_table(x_flat). Runs in eval mode, does
  /// not disturb training caches.
  std::vector<std::vector<double>> importance(const Tensor& x_flat);

  /// Gate memo: the eval-mode `probs` of every row of `x_flat` (B, D),
  /// bit-identical to forward(x_flat, false).probs. Each thread keeps one
  /// entry. It is returned only when the input bytes, this selector's
  /// architecture and parameter bytes, and the active GEMM kernel are
  /// exactly those it was computed from (memcmp); otherwise the table is
  /// recomputed and replaces the entry. For frozen, eval-mode callers
  /// (DESIGN.md §12).
  std::shared_ptr<const std::vector<Tensor>> gate_table(const Tensor& x_flat);

  /// True when a forward over `rows_a` rows and one over `rows_b` rows send
  /// every selector GEMM down the same path (gemm_runs_naive), so a row's
  /// gates carry the same bits in both.
  bool gemm_paths_match(std::int64_t rows_a, std::int64_t rows_b) const;

 private:
  std::int64_t input_dim_, embed_dim_;
  std::vector<std::int64_t> layer_widths_;
  float explore_eps_;
  Sequential embed_;
  std::vector<std::unique_ptr<Linear>> heads_;

  // Training caches.
  Tensor cached_embedding_;
  std::vector<Tensor> cached_softmax_;  // raw (pre-mixing) softmax per layer
};

// ---- Load balancing (§4.3) ---------------------------------------------------

/// Squared coefficient of variation of per-module importance
/// imp_i = Σ_b probs[b, i]: N·Σ imp² / (Σ imp)² − 1. Zero iff perfectly
/// balanced. Returns the loss and writes dL/dprobs into `grad` (same shape
/// as probs) if non-null.
float load_balance_loss(const Tensor& probs, Tensor* grad);

// ---- Routing observability ---------------------------------------------------

/// Per-layer routing statistics for one module layer of the selector.
struct SelectorRoutingStats {
  /// Soft view: utilisation = mean gate probability per module — the same
  /// quantity the load-balance loss regularises, summarised as a
  /// distribution.
  obs::RoutingStats soft;
  /// Hard view: utilisation = each module's share of the batch's top-k
  /// routing slots — what actually executes at inference time.
  obs::RoutingStats topk;
};

/// Runs the selector in eval mode over `x_flat` and summarises routing per
/// layer. `top_k` mirrors the ModuleLayer activation count and is clamped to
/// each layer's width. Does not disturb training caches.
std::vector<SelectorRoutingStats> selector_routing_stats(
    ModuleSelector& selector, const Tensor& x_flat, std::int64_t top_k);

}  // namespace nebula
