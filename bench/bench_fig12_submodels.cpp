// Figure 12 — Sub-model performance (VGG16-like on CIFAR100-like).
//
// Random sub-models are sampled from the modularized cloud model and
// evaluated; the experiment is run with and without module ability-enhancing
// training, and the derivation algorithm's picks are overlaid. Reproduction
// targets: (i) diverse sub-model sizes and capabilities; (ii) the
// ability-enhanced model dominates at equal size (paper: ~11.5% at 5M
// params); (iii) derivation lands on the Pareto frontier and small
// sub-models already saturate on-device accuracy for local sub-tasks.
#include <algorithm>
#include <cstdio>

#include "common/table.h"
#include "eval/experiments.h"
#include "nn/init.h"

namespace {

using namespace nebula;

struct Point {
  double params_k = 0.0;  // thousands of parameters
  double acc = 0.0;
};

SubmodelSpec random_spec(ModularModel& cloud, Rng& rng) {
  // Module counts in the deployable range (1-6 per layer) so random
  // sub-models span the same sizes the derivation algorithm produces.
  SubmodelSpec spec;
  spec.modules.resize(cloud.num_module_layers());
  for (std::size_t l = 0; l < cloud.num_module_layers(); ++l) {
    const std::int64_t width = cloud.full_widths()[l];
    const std::int64_t count = 1 + static_cast<std::int64_t>(rng.uniform_int(
                                       static_cast<std::uint64_t>(
                                           std::min<std::int64_t>(6, width))));
    auto pick = rng.choose(static_cast<std::size_t>(width),
                           static_cast<std::size_t>(count));
    for (auto id : pick) {
      spec.modules[l].push_back(static_cast<std::int64_t>(id));
    }
    std::sort(spec.modules[l].begin(), spec.modules[l].end());
  }
  return spec;
}

double spec_params_k(ModularModel& cloud, const SubmodelSpec& spec) {
  double p = static_cast<double>(cloud.shared_state_size());
  for (std::size_t l = 0; l < spec.modules.size(); ++l) {
    for (std::int64_t gid : spec.modules[l]) {
      p += static_cast<double>(cloud.module_state_size(l, gid));
    }
  }
  return p / 1000.0;
}

}  // namespace

int main() {
  using namespace nebula;
  BenchScale scale = BenchScale::from_env();
  TaskSpec spec = task_by_name("CIFAR100", "10 classes");
  const std::int64_t kRandomModels = 40;
  const std::int64_t kEvalDevices = 6;

  // Two worlds: with and without ability-enhancing training.
  Table buckets({"Size bucket (k params)", "Acc w/o enhance",
                 "Acc w/ enhance", "Gain"});
  std::vector<Point> pts_plain, pts_enh, pareto;

  for (bool enhance : {false, true}) {
    TaskEnv env = make_task_env(spec, scale, 777);
    ZooOptions zo;
    zo.init_seed = 777;
    auto zm = env.modular(zo);
    NebulaConfig nc;
    nc.enable_ability = enhance;
    nc.pretrain.epochs = scale.pretrain_epochs;
    nc.pretrain.lr = spec.pretrain_lr;
    nc.ability.finetune.lr = spec.pretrain_lr;
    NebulaSystem sys(std::move(zm), *env.population, env.profiles, nc);
    sys.offline(env.proxy);

    // Sample random sub-models; evaluate each on a random device's local
    // sub-task (the paper's per-device sub-model accuracy).
    Rng rng(enhance ? 31 : 32);
    auto& pts = enhance ? pts_enh : pts_plain;
    for (std::int64_t i = 0; i < kRandomModels; ++i) {
      SubmodelSpec sm = random_spec(sys.cloud(), rng);
      auto sub = sys.build_submodel(sm);
      Point p;
      p.params_k = spec_params_k(sys.cloud(), sm);
      // Mean over several devices' local tasks to tame per-device variance.
      for (std::int64_t dev = 0; dev < 3; ++dev) {
        Dataset test = env.population->device_test(dev, scale.test_samples);
        p.acc += evaluate_modular(*sub, sys.selector(), test, 2) / 3.0;
      }
      pts.push_back(p);
    }
    if (enhance) {
      // Derivation Pareto points: derived sub-models at several budgets.
      for (double frac : {0.2, 0.35, 0.5, 0.75, 1.0}) {
        double acc = 0.0, size = 0.0;
        for (std::int64_t k = 0; k < kEvalDevices; ++k) {
          DerivationRequest req;
          req.importance = sys.device_importance(k);
          req.budgets = sys.derivation().budget_fraction(frac);
          auto der = sys.derivation().derive(req);
          auto sub = sys.build_submodel(der.spec);
          Dataset test = env.population->device_test(k, scale.test_samples);
          acc += evaluate_modular(*sub, sys.selector(), test, 2);
          size += spec_params_k(sys.cloud(), der.spec);
        }
        pareto.push_back({size / kEvalDevices, acc / kEvalDevices});
      }
    }
  }

  // Bucket random points by size for the table.
  auto bucket_mean = [](const std::vector<Point>& pts, double lo, double hi) {
    double s = 0.0;
    int n = 0;
    for (const auto& p : pts) {
      if (p.params_k >= lo && p.params_k < hi) {
        s += p.acc;
        ++n;
      }
    }
    return n ? s / n : -1.0;
  };
  double min_k = 1e18, max_k = 0;
  for (const auto& p : pts_plain) {
    min_k = std::min(min_k, p.params_k);
    max_k = std::max(max_k, p.params_k);
  }
  std::printf("Figure 12: random sub-model accuracy vs size "
              "(VGG16-like / CIFAR100-like, %lld random sub-models per "
              "setting, sizes %.0fk-%.0fk params)\n",
              static_cast<long long>(kRandomModels), min_k, max_k);
  const int kBuckets = 5;
  for (int b = 0; b < kBuckets; ++b) {
    const double lo = min_k + (max_k - min_k) * b / kBuckets;
    const double hi = min_k + (max_k - min_k) * (b + 1) / kBuckets + 1e-9;
    const double a0 = bucket_mean(pts_plain, lo, hi);
    const double a1 = bucket_mean(pts_enh, lo, hi);
    std::string gain = (a0 >= 0 && a1 >= 0)
                           ? Table::num((a1 - a0) * 100, 1) + " pts"
                           : "-";
    buckets.add_row({Table::num(lo, 0) + "-" + Table::num(hi, 0),
                     a0 >= 0 ? Table::num(a0 * 100, 1) : "-",
                     a1 >= 0 ? Table::num(a1 * 100, 1) : "-", gain});
  }
  buckets.print();

  std::printf("\nDerived sub-models (importance-based derivation, "
              "ability-enhanced cloud):\n");
  Table der_t({"Budget fraction", "Mean size (k params)", "Mean accuracy"});
  const double fracs[] = {0.2, 0.35, 0.5, 0.75, 1.0};
  for (std::size_t i = 0; i < pareto.size(); ++i) {
    der_t.add_row({Table::num(fracs[i], 2), Table::num(pareto[i].params_k, 1),
                   Table::num(pareto[i].acc * 100, 1)});
  }
  der_t.print();
  std::printf("\nShape check: enhanced >= plain at equal size; derived "
              "points should sit at or above same-size random sub-models "
              "and saturate early (small sub-models suffice for local "
              "sub-tasks).\n");
  return 0;
}
