// Kernel microbenchmarks (google-benchmark): the numerical and algorithmic
// primitives underneath the experiments — GEMM, convolution forward/backward,
// module-layer dispatch, the derivation knapsack, the assignment program,
// and module-wise aggregation.
#include <benchmark/benchmark.h>

#include "core/aggregation.h"
#include "core/model_zoo.h"
#include "core/module_layer.h"
#include "core/train.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/layers_basic.h"
#include "nn/sequential.h"
#include "opt/assignment_lp.h"
#include "opt/knapsack.h"
#include "parallel/thread_pool.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace {

using namespace nebula;

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a[static_cast<std::size_t>(i)] = rng.normal();
    b[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTN(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(10);
  Tensor a({n, n}), b({n, n}), c({n, n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a[static_cast<std::size_t>(i)] = rng.normal();
    b[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    matmul_tn_acc(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(11);
  Tensor a({n, n}), b({n, n}), c({n, n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a[static_cast<std::size_t>(i)] = rng.normal();
    b[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    matmul_nt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(256);

void BM_ConvForward(benchmark::State& state) {
  init::reseed(2);
  Conv2d conv(8, 8, 3, 1, 1);
  Rng rng(3);
  Tensor x({16, 8, 8, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward);

// The raw fused product (gemm_im2col, no layer overhead) on one image: the
// column matrix is never materialised.
void BM_ConvForwardFused(benchmark::State& state) {
  Rng rng(12);
  const Im2colMap map{8, 32, 32, 3, 3, 1, 1};
  Tensor x({map.channels, map.height, map.width});
  Tensor w({16, map.rows()}), y({16, map.cols()});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    w[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    gemm_im2col(Trans::N, 16, w.data(), map.rows(), x.data(), map, y.data(),
                map.cols(), false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 16 * map.rows() *
                          map.cols());
}
BENCHMARK(BM_ConvForwardFused);

// Backward pass alone (gradient permute, dW/db, dcol/col2im).
void BM_ConvBackward(benchmark::State& state) {
  init::reseed(16);
  Conv2d conv(8, 8, 3, 1, 1);
  Rng rng(17);
  Tensor x({16, 8, 8, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  Tensor y = conv.forward(x, true);
  for (auto _ : state) {
    // Backward consumes the forward's cached input; refill it untimed.
    state.PauseTiming();
    conv.forward(x, true);
    conv.zero_grad();
    state.ResumeTiming();
    Tensor dx = conv.backward(y);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_ConvBackward);

void BM_ConvTrainStep(benchmark::State& state) {
  init::reseed(4);
  Conv2d conv(8, 8, 3, 1, 1);
  Rng rng(5);
  Tensor x({16, 8, 8, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    conv.zero_grad();
    Tensor dx = conv.backward(y);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_ConvTrainStep);

// One forward + backward of Conv2d at the ResNet-style models' own conv
// shapes (3x3, pad 1): the ResNet18 stem and stride-2 bridge see the full
// local batch of 16, a module conv sees a routed sub-batch of 4, and the
// speech ResNet34's stem runs on 16x8 maps. Arg indexes the shape.
// Runs on a 1-worker pool: in a round each device leg trains on one worker,
// its conv calls running inline.
void BM_ConvTrainStepResnet(benchmark::State& state) {
  struct Shape {
    std::int64_t in_c, out_c, h, w, stride, batch;
  };
  static const Shape kShapes[] = {
      {3, 8, 8, 8, 1, 16},   // stem, 8x8
      {8, 16, 4, 4, 2, 16},  // bridge, 4x4 -> 2x2
      {8, 4, 4, 4, 1, 4},    // module conv at 4x4
      {16, 16, 2, 2, 1, 4},  // module conv at 2x2
      {1, 8, 16, 8, 1, 16},  // speech stem, 16x8
  };
  const Shape& s = kShapes[state.range(0)];
  ThreadPool serial(1);
  ThreadPool* prev = ThreadPool::set_global(&serial);
  init::reseed(6);
  Conv2d conv(s.in_c, s.out_c, 3, s.stride, 1);
  Rng rng(7);
  Tensor x({s.batch, s.in_c, s.h, s.w});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    conv.zero_grad();
    Tensor dx = conv.backward(y);
    benchmark::DoNotOptimize(dx.data());
  }
  // Three products (forward, dW, dx) of 2·out_c·rows·cols flops each.
  const std::vector<std::int64_t> in_shape{s.batch, s.in_c, s.h, s.w};
  state.SetItemsProcessed(state.iterations() * 3 * s.batch *
                          conv.flops(in_shape));
  ThreadPool::set_global(prev);
}
BENCHMARK(BM_ConvTrainStepResnet)->DenseRange(0, 4);

void BM_ModularForward(benchmark::State& state) {
  ZooOptions opts;
  opts.modules_per_layer = state.range(0);
  auto zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
  Rng rng(6);
  Tensor x({16, 32});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  RoutingOpts ropts;
  ropts.top_k = 2;
  for (auto _ : state) {
    GateResult g = zm.selector->forward(x, false);
    Tensor y = zm.model->forward(x, g, ropts, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ModularForward)->Arg(8)->Arg(16)->Arg(32);

// The HAR MLP's 48->6 head products at batch 16, all under the naive
// threshold, with A half zeros in random places as after a ReLU:
//   0: forward   y(16x6)   = x(16x48) · W(48x6)     NN
//   1: dW        dW(48x6) += x^T · dy(16x6)         TN
//   2: dx        dx(16x48) = dy(16x6) · W^T         NT
// Each iteration takes the next of 32 such A operands, so the zeros sit in
// new places every call, as they do from one mini-batch to the next; a
// dense or repeated operand cannot show the cost of branching on them.
void BM_GemmHeadSparse(benchmark::State& state) {
  struct Shape {
    Trans ta, tb;
    std::int64_t m, n, k;
    const char* label;
  };
  static const Shape shapes[] = {
      {Trans::N, Trans::N, 16, 6, 48, "16x6x48 NN"},
      {Trans::T, Trans::N, 48, 6, 16, "48x6x16 TN"},
      {Trans::N, Trans::T, 16, 48, 6, "16x48x6 NT"},
  };
  const Shape& s = shapes[state.range(0)];
  constexpr std::size_t kOperands = 32;
  Rng rng(14);
  std::vector<std::vector<float>> as(kOperands);
  for (auto& a : as) {
    a.resize(static_cast<std::size_t>(s.m * s.k));
    for (float& v : a) v = rng.uniform() < 0.5f ? 0.0f : rng.normal();
  }
  std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
  std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
  for (float& v : b) v = rng.normal();
  const std::int64_t lda = s.ta == Trans::N ? s.k : s.m;
  const std::int64_t ldb = s.tb == Trans::N ? s.n : s.k;
  std::size_t next = 0;
  for (auto _ : state) {
    gemm(s.ta, s.tb, s.m, s.n, s.k, as[next].data(), lda, b.data(), ldb,
         c.data(), s.n, s.ta == Trans::T);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
    next = (next + 1) % kOperands;
  }
  state.SetLabel(s.label);
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.n * s.k);
}
BENCHMARK(BM_GemmHeadSparse)->DenseRange(0, 2);

// Inference dispatch through one ModuleLayer of residual MLP modules (15
// modules 32->24->32 plus an Identity, batch 16, top-2) on a pool of
// state.range(0) workers.
void BM_ModuleLayerDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ThreadPool* prev = ThreadPool::set_global(&pool);
  init::reseed(14);
  const std::int64_t width = 32, batch = 16, n_modules = 16;
  std::vector<LayerPtr> mods;
  for (std::int64_t i = 0; i < n_modules - 1; ++i) {
    auto seq = std::make_unique<Sequential>();
    seq->emplace<Linear>(width, 24);
    seq->emplace<ReLU>();
    seq->emplace<Linear>(24, width);
    mods.push_back(std::make_unique<Residual>(std::move(seq)));
  }
  mods.push_back(std::make_unique<Identity>());
  std::vector<std::int64_t> ids(n_modules);
  for (std::int64_t i = 0; i < n_modules; ++i) {
    ids[static_cast<std::size_t>(i)] = i;
  }
  ModuleLayer layer(std::move(mods), std::move(ids), n_modules);
  Rng rng(15);
  Tensor x({batch, width});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  Tensor gates({batch, n_modules});
  for (std::int64_t i = 0; i < gates.numel(); ++i) {
    gates[static_cast<std::size_t>(i)] = 0.05f + rng.uniform();
  }
  RoutingOpts ropts;
  ropts.top_k = 2;
  for (auto _ : state) {
    Tensor y = layer.forward(x, gates, ropts, false);
    benchmark::DoNotOptimize(y.data());
  }
  ThreadPool::set_global(prev);
}
BENCHMARK(BM_ModuleLayerDispatch)->Arg(1)->Arg(4);

void BM_Knapsack(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<KnapsackItem> items(n);
  for (auto& it : items) {
    it.value = rng.uniform();
    it.cost = {rng.uniform(0.05f, 0.3f), rng.uniform(0.05f, 0.3f),
               rng.uniform(0.05f, 0.3f)};
  }
  std::array<double, kResourceDims> budgets = {2.0, 2.0, 2.0};
  for (auto _ : state) {
    auto res = solve_knapsack(items, budgets, {0});
    benchmark::DoNotOptimize(res.value);
  }
}
BENCHMARK(BM_Knapsack)->Arg(16)->Arg(64)->Arg(128);

void BM_Assignment(benchmark::State& state) {
  const std::int64_t t = state.range(0), n = state.range(1);
  Rng rng(8);
  AssignmentProblem p;
  p.num_subtasks = t;
  p.num_modules = n;
  p.h.resize(static_cast<std::size_t>(t * n));
  for (auto& v : p.h) v = rng.uniform();
  p.kappa1 = 3;
  p.kappa2 = 4;
  for (auto _ : state) {
    auto res = solve_assignment(p);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_Assignment)->Args({5, 16})->Args({10, 32})->Args({20, 64});

// One har_robust_fleet edge leg's selector-bound work, as NebulaSystem's
// round runs it: importance for derivation, local training with the
// selector frozen, importance again for the upload. A 100-sample local set
// on the HAR MLP with 32 modules per layer, training a sub-model of two of
// them (the workload's legs average 100 samples and 1.4 modules).
// Consecutive iterations alternate between two devices' data, as
// consecutive legs of a round do. Runs on a 1-worker pool, as each leg does.
void BM_EdgeLegHar(benchmark::State& state) {
  ThreadPool serial(1);
  ThreadPool* prev = ThreadPool::set_global(&serial);
  ZooOptions opts;
  opts.modules_per_layer = 32;
  auto zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
  SubmodelSpec spec;
  spec.modules.resize(zm.model->num_module_layers());
  for (auto& layer : spec.modules) layer = {0, 16};
  auto sub = zm.model->derive_submodel(spec);
  Rng rng(12);
  std::vector<Dataset> local(2);
  for (Dataset& d : local) {
    d.num_classes = 6;
    d.sample_shape = {32};
    d.features = Tensor({100, 32});
    for (std::int64_t i = 0; i < d.features.numel(); ++i) {
      d.features[static_cast<std::size_t>(i)] = rng.normal();
    }
    for (int i = 0; i < 100; ++i) {
      d.labels.push_back(static_cast<std::int64_t>(rng.uniform_int(6)));
    }
  }
  TrainConfig cfg;
  cfg.train_selector = false;
  std::size_t leg = 0;
  for (auto _ : state) {
    const Dataset& data = local[leg++ % local.size()];
    auto imp = zm.selector->importance(data.features);
    train_modular(*sub, *zm.selector, data, cfg);
    imp = zm.selector->importance(data.features);
    benchmark::DoNotOptimize(imp.data());
  }
  ThreadPool::set_global(prev);
}
BENCHMARK(BM_EdgeLegHar);

void BM_ModuleWiseAggregation(benchmark::State& state) {
  ZooOptions opts;
  opts.modules_per_layer = 16;
  auto zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
  // Ten updates, each carrying half the modules.
  std::vector<EdgeUpdate> updates;
  Rng rng(9);
  for (int u = 0; u < 10; ++u) {
    SubmodelSpec spec;
    spec.modules.resize(1);
    auto pick = rng.choose(16, 8);
    for (auto id : pick) {
      spec.modules[0].push_back(static_cast<std::int64_t>(id));
    }
    std::sort(spec.modules[0].begin(), spec.modules[0].end());
    auto sub = zm.model->derive_submodel(spec);
    updates.push_back(make_edge_update(
        *sub, {std::vector<double>(16, 1.0 / 16)}, 100));
  }
  for (auto _ : state) {
    aggregate_module_wise_robust(*zm.model, updates);
  }
}
BENCHMARK(BM_ModuleWiseAggregation);

// The server step of har_robust_fleet: coordinate-wise median behind the
// anomaly gate over 15 uploads of the HAR MLP with 32 modules (shared state
// 1878 floats), each carrying two modules and 4 of them sign-flipped. Both
// the gate's scores and the fold take a median per coordinate.
void BM_RobustAggregationHar(benchmark::State& state) {
  ZooOptions opts;
  opts.modules_per_layer = 32;
  auto zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
  RobustAggregationConfig robust;
  robust.kind = RobustAggregatorKind::kMedian;
  robust.anomaly_threshold = 4.0;
  Rng rng(23);
  std::vector<EdgeUpdate> updates;
  for (int u = 0; u < 15; ++u) {
    SubmodelSpec spec;
    spec.modules.resize(1);
    for (auto id : rng.choose(32, 2)) {
      spec.modules[0].push_back(static_cast<std::int64_t>(id));
    }
    std::sort(spec.modules[0].begin(), spec.modules[0].end());
    auto sub = zm.model->derive_submodel(spec);
    EdgeUpdate up = make_edge_update(
        *sub, {std::vector<double>(32, 1.0 / 32)}, 100);
    const float sign = u < 4 ? -1.0f : 1.0f;
    auto perturb = [&](std::vector<float>& s) {
      for (float& x : s) x = sign * (x + 0.01f * rng.normal());
    };
    perturb(up.shared_state);
    for (auto& m : up.module_states[0]) perturb(m);
    updates.push_back(std::move(up));
  }
  std::size_t rejected = 0;
  for (auto _ : state) {
    auto out = aggregate_module_wise_robust(
        *zm.model, updates, AggregationWeighting::kImportance, 1.0f, robust);
    benchmark::DoNotOptimize(out.anomaly_scores.data());
    rejected = out.robust_rejected.size();
  }
  state.counters["rejected"] = static_cast<double>(rejected);
}
BENCHMARK(BM_RobustAggregationHar);

}  // namespace

// Expanded BENCHMARK_MAIN: records which micro-kernel the dispatcher picked
// and the detected CPU features in the benchmark context, so saved results
// (tools/perf_trajectory.py) say what hardware path produced them.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("gemm_kernel", nebula::gemm_kernel_name());
  benchmark::AddCustomContext("cpu_features", nebula::cpu_feature_string());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
