#include "eval/experiments.h"

#include <cmath>
#include <cstdlib>

#include "nn/init.h"
#include "nn/state.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace nebula {

std::vector<TaskSpec> paper_tasks() {
  std::vector<TaskSpec> tasks;
  {
    TaskSpec t;
    t.task_name = "Sensing";
    t.dataset_name = "HAR";
    t.model_name = "MLP";
    t.partition_name = "1 subject";
    t.model = TaskModel::kMlpHar;
    t.data = har_like_spec();
    t.classes_per_device = 0;  // feature skew by subject
    t.proxy_samples = 1500;
    tasks.push_back(t);
  }
  for (std::int64_t m : {2, 5}) {
    TaskSpec t;
    t.task_name = "Image Classification";
    t.dataset_name = "CIFAR10";
    t.model_name = "ResNet18";
    t.partition_name = std::to_string(m) + " classes";
    t.model = TaskModel::kResNet18;
    t.data = cifar10_like_spec();
    t.classes_per_device = m;
    t.proxy_samples = 1500;
    tasks.push_back(t);
  }
  for (std::int64_t m : {10, 20}) {
    TaskSpec t;
    t.task_name = "Image Classification";
    t.dataset_name = "CIFAR100";
    t.model_name = "VGG16";
    t.partition_name = std::to_string(m) + " classes";
    t.model = TaskModel::kVgg16;
    t.data = cifar100_like_spec();
    t.classes_per_device = m;
    t.proxy_samples = 3000;
    t.pretrain_lr = 0.02f;
    tasks.push_back(t);
  }
  for (std::int64_t m : {5, 10}) {
    TaskSpec t;
    t.task_name = "Speech Recognition";
    t.dataset_name = "Speech";
    t.model_name = "ResNet34";
    t.partition_name = std::to_string(m) + " classes";
    t.model = TaskModel::kResNet34;
    t.data = speech_like_spec();
    t.classes_per_device = m;
    t.proxy_samples = 2000;
    t.pretrain_lr = 0.025f;  // 0.05 intermittently diverges on this model
    tasks.push_back(t);
  }
  return tasks;
}

TaskSpec task_by_name(const std::string& dataset,
                      const std::string& partition) {
  for (const auto& t : paper_tasks()) {
    if (t.dataset_name == dataset && t.partition_name == partition) return t;
  }
  NEBULA_CHECK_MSG(false, "unknown task " << dataset << " / " << partition);
  return {};
}

BenchScale BenchScale::from_env() {
  BenchScale s;
  double factor = 1.0;
  if (const char* env = std::getenv("NEBULA_BENCH_SCALE")) {
    factor = std::atof(env);
    if (factor <= 0.0) factor = 1.0;
  }
  auto scaled = [factor](std::int64_t v) {
    return std::max<std::int64_t>(2, static_cast<std::int64_t>(
                                         std::llround(v * factor)));
  };
  s.devices = scaled(s.devices);
  s.devices_per_round = scaled(s.devices_per_round);
  s.warm_rounds = scaled(s.warm_rounds);
  s.eval_devices = scaled(s.eval_devices);
  return s;
}

LayerPtr TaskEnv::plain(double width) const {
  return make_plain(spec.model, spec.data.sample_shape,
                    spec.data.num_classes, width);
}

ZooModel TaskEnv::modular(const ZooOptions& opts) const {
  return make_modular(spec.model, spec.data.sample_shape,
                      spec.data.num_classes, opts);
}

TaskEnv make_task_env(const TaskSpec& spec, const BenchScale& scale,
                      std::uint64_t seed) {
  TaskEnv env;
  env.spec = spec;
  env.generator = std::make_unique<SyntheticGenerator>(spec.data, seed);
  PartitionConfig pc;
  pc.num_devices = scale.devices;
  pc.classes_per_device = spec.classes_per_device;
  pc.clusters_per_device =
      std::max<std::int64_t>(1, spec.data.clusters_per_class / 2);
  pc.context_switch_prob = 0.5f;
  pc.seed = seed * 31 + 5;
  env.population = std::make_unique<EdgePopulation>(*env.generator, pc);
  ProfileSampler sampler(seed * 17 + 3);
  env.profiles = sampler.sample_fleet(scale.devices);
  env.proxy = env.population->proxy_data_ex(spec.proxy_samples);
  return env;
}

AdaptationResult run_adaptation_comparison(TaskEnv& env,
                                           const BenchScale& scale,
                                           std::uint64_t seed) {
  NEBULA_SPAN("experiment.adaptation");
  EdgePopulation& pop = *env.population;
  TrainConfig pre;
  pre.epochs = scale.pretrain_epochs;
  pre.lr = env.spec.pretrain_lr;
  TrainConfig local10;
  local10.epochs = 10;
  local10.lr = 0.02f;
  local10.seed = seed;
  const std::int64_t eval_n =
      std::min<std::int64_t>(scale.eval_devices, pop.num_devices());
  auto plain_factory = [&env](double w) { return env.plain(w); };

  // ---- Setup & pre-training ---------------------------------------------------
  init::reseed(seed + 11);
  NoAdaptation na(env.plain(), pop);
  na.pretrain(env.proxy.data, pre);
  init::reseed(seed + 12);
  LocalAdaptation la(env.plain(), pop, local10);
  la.pretrain(env.proxy.data, pre);
  init::reseed(seed + 13);
  AdaptiveNetLike an(plain_factory, {0.5, 0.75, 1.0}, pop, env.profiles,
                     local10);
  an.pretrain(env.proxy.data, pre);
  init::reseed(seed + 14);
  FedAvgConfig fc;
  fc.devices_per_round = scale.devices_per_round;
  fc.seed = seed + 24;
  FedAvg fa(env.plain(), pop, fc);
  fa.pretrain(env.proxy.data, pre);
  init::reseed(seed + 15);
  HeteroFLConfig hc;
  hc.devices_per_round = scale.devices_per_round;
  hc.seed = seed + 25;
  HeteroFL hfl(plain_factory, pop, env.profiles, hc);
  hfl.pretrain(env.proxy.data, pre);

  ZooOptions zo;
  zo.init_seed = seed + 16;
  auto zm = env.modular(zo);
  NebulaConfig nc;
  nc.devices_per_round = scale.devices_per_round;
  nc.pretrain.epochs = scale.pretrain_epochs;
  nc.pretrain.lr = env.spec.pretrain_lr;
  nc.ability.finetune.lr = env.spec.pretrain_lr;
  nc.seed = seed + 26;
  NebulaSystem nebula(std::move(zm), pop, env.profiles, nc);
  nebula.offline(env.proxy);

  // ---- Warm-up adaptation ------------------------------------------------------
  // LA/AN adaptation is order-independent across devices (per-(device, call)
  // derived seeds; each device owns its model slot), so it fans out.
  auto adapt_la_an = [&](std::int64_t n_devices) {
    ThreadPool::global().parallel_for(
        0, static_cast<std::size_t>(n_devices),
        [&](std::size_t i) {
          const std::int64_t k = static_cast<std::int64_t>(i);
          la.adapt_device(k);
          an.adapt_device(k);
        },
        /*grain=*/1);
  };
  for (std::int64_t r = 0; r < scale.warm_rounds; ++r) {
    fa.round();
    hfl.round();
    nebula.round();
  }
  adapt_la_an(eval_n);

  // ---- Environment shift + one adaptation step ---------------------------------
  pop.shift_all();
  adapt_la_an(eval_n);
  fa.round();
  hfl.round();
  nebula.round();
  nebula.edge_config().epochs = 8;  // per-device step after the shift
  for (std::int64_t k = 0; k < eval_n; ++k) {
    nebula.adapt_device(k, /*query_cloud=*/true, /*local_train=*/true,
                        /*upload=*/true);
  }

  // ---- Evaluation ---------------------------------------------------------------
  // Test-set draws come from the shared population RNG, so they are hoisted
  // into a serial pass — one test set per device, shared by every method.
  // The remaining per-device evaluations are pure reads and fan out; sums
  // accumulate in index order so the result is worker-count independent.
  std::vector<Dataset> tests;
  tests.reserve(static_cast<std::size_t>(eval_n));
  for (std::int64_t k = 0; k < eval_n; ++k) {
    tests.push_back(pop.device_test(k, scale.test_samples));
  }
  hfl.refresh_eval_models();  // serial: tier construction hits the init RNG
  struct EvalSlot {
    double na = 0.0, la = 0.0, an = 0.0;
    double fa = 0.0, hfl = 0.0, nebula = 0.0;
  };
  std::vector<EvalSlot> eval_slots(tests.size());
  ThreadPool::global().parallel_for(
      0, tests.size(),
      [&](std::size_t i) {
        EvalSlot& s = eval_slots[i];
        const std::int64_t k = static_cast<std::int64_t>(i);
        s.na = na.eval_on(tests[i]);
        s.la = la.eval_on(k, tests[i]);
        s.an = an.eval_on(k, tests[i]);
        s.fa = fa.eval_on(tests[i]);
        s.hfl = hfl.eval_on(k, tests[i]);
        s.nebula = nebula.eval_resident_on(k, tests[i]);
      },
      /*grain=*/1);
  AdaptationResult res;
  for (const EvalSlot& s : eval_slots) {
    res.na += s.na;
    res.la += s.la;
    res.an += s.an;
    res.fa += s.fa;
    res.hfl += s.hfl;
    res.nebula += s.nebula;
  }
  const double inv = 1.0 / static_cast<double>(eval_n);
  res.na *= inv;
  res.la *= inv;
  res.an *= inv;
  res.fa *= inv;
  res.hfl *= inv;
  res.nebula *= inv;
  res.comm_mb_fa = fa.ledger().total_mb();
  res.comm_mb_hfl = hfl.ledger().total_mb();
  res.comm_mb_nebula = nebula.ledger().total_mb();
  return res;
}

bool model_state_finite(ModularModel& model) {
  auto finite = [](const std::vector<float>& v) {
    for (float x : v) {
      if (!std::isfinite(x)) return false;
    }
    return true;
  };
  if (!finite(model.shared_state())) return false;
  for (std::size_t l = 0; l < model.num_module_layers(); ++l) {
    for (std::int64_t gid = 0; gid < model.full_widths()[l]; ++gid) {
      if (!finite(model.module_state(l, gid))) return false;
    }
  }
  return true;
}

ScenarioResult run_scenario(TaskEnv& env, const BenchScale& scale,
                            const ScenarioSpec& scenario, std::uint64_t seed) {
  NEBULA_SPAN("experiment.scenario");
  // Fail before the pretraining, not at the onset round.
  NEBULA_CHECK_MSG(scenario.drift_rate >= 0.0f && scenario.drift_rate <= 1.0f &&
                       scenario.churn_prob >= 0.0f &&
                       scenario.churn_prob <= 1.0f,
                   "scenario drift rate and churn probability must lie in "
                   "[0, 1]");
  EdgePopulation& pop = *env.population;
  TrainConfig pre;
  pre.epochs = scale.pretrain_epochs;
  pre.lr = env.spec.pretrain_lr;

  init::reseed(seed + 41);
  FedAvgConfig fc;
  fc.devices_per_round = scale.devices_per_round;
  fc.seed = seed + 42;
  FedAvg fa(env.plain(), pop, fc);
  fa.pretrain(env.proxy.data, pre);

  ZooOptions zo;
  zo.init_seed = seed + 43;
  NebulaConfig nc;
  nc.devices_per_round = scale.devices_per_round;
  nc.pretrain.epochs = scale.pretrain_epochs;
  nc.pretrain.lr = env.spec.pretrain_lr;
  nc.ability.finetune.lr = env.spec.pretrain_lr;
  nc.seed = seed + 44;
  nc.fault_policy.robust = scenario.robust;
  NebulaSystem sys(env.modular(zo), pop, env.profiles, nc);
  sys.offline(env.proxy);

  // Identical fault schedule for both systems — same seed, same coordinates,
  // same regions; FedAvg just has no defence against it.
  std::vector<std::int64_t> regions;
  for (const DeviceProfile& p : env.profiles) regions.push_back(p.region);
  fa.set_device_regions(std::move(regions));
  FaultInjector fedavg_faults(scenario.faults);
  auto start_scenario = [&] {
    fa.set_fault_injector(&fedavg_faults);
    sys.inject_faults(scenario.faults);
    pop.set_dynamics(scenario.drift_rate, scenario.churn_prob);
  };

  // Frozen probe sets (see ScenarioSpec::monitor_dynamics): drawn before the
  // environment moves, whether or not the recorder is on, so recording never
  // shifts the population stream.
  std::vector<Dataset> probes;
  if (scenario.monitor_dynamics) {
    const std::int64_t probe_n = std::min<std::int64_t>(4, pop.num_devices());
    for (std::int64_t k = 0; k < probe_n; ++k) {
      probes.push_back(pop.device_test(k, scale.test_samples));
    }
  }

  obs::FlightRecorder& rec = obs::recorder();
  const bool recording = rec.enabled();
  if (recording) rec.reset();  // alert rounds index into this run

  if (scenario.onset_round <= 0) start_scenario();
  ScenarioResult res;
  const std::int64_t rounds = 2 * scale.warm_rounds;
  for (std::int64_t r = 0; r < rounds; ++r) {
    if (scenario.onset_round > 0 && r == scenario.onset_round) {
      start_scenario();
    }
    // The environment moves between rounds: mixtures drift, devices churn.
    const std::int64_t churned = pop.environment_step();
    res.churned_devices += churned;
    fa.round();
    RoundReport rep = sys.round();
    res.rounds_aggregated += rep.aggregated ? 1 : 0;
    res.updates_dropped += static_cast<std::int64_t>(rep.dropped.size());
    res.updates_rejected += static_cast<std::int64_t>(rep.rejected.size());
    res.robust_rejected += rep.rejected_robust;
    res.transfer_retries += rep.transfer_retries;
    if (recording && scenario.monitor_dynamics) {
      // Pure evals (no RNG, no ledger traffic): sub-models freshly derived
      // from the current cloud, scored on the frozen probe sets.
      double acc = 0.0;
      for (std::size_t k = 0; k < probes.size(); ++k) {
        acc += sys.eval_derived_on(static_cast<std::int64_t>(k), probes[k]);
      }
      if (!probes.empty()) acc /= static_cast<double>(probes.size());
      res.probe_accuracy.push_back(acc);
      rec.observe_accuracy(rep.round_index, acc);
      // Fleet churn telemetry: the fraction of devices replaced this round.
      // In the synthetic population drift keeps class-conditionals intact,
      // so probe accuracy barely moves (collaborative aggregation absorbs
      // mixture drift — the paper's point); the churn-rate monitor is the
      // signal that timestamps a delayed onset (see EXPERIMENTS.md).
      rec.observe_metric(obs::kMonChurnRate, rep.round_index,
                         static_cast<double>(churned) /
                             static_cast<double>(pop.num_devices()));
    }
    res.round_reports.push_back(std::move(rep));
  }
  if (recording) res.alerts = rec.alerts();

  // Serial test-set draws (population RNG), then pure evals fan out; sums
  // accumulate in index order (see run_adaptation_comparison).
  const std::int64_t eval_n =
      std::min<std::int64_t>(scale.eval_devices, pop.num_devices());
  std::vector<Dataset> tests;
  tests.reserve(static_cast<std::size_t>(eval_n));
  for (std::int64_t k = 0; k < eval_n; ++k) {
    tests.push_back(pop.device_test(k, scale.test_samples));
  }
  std::vector<double> fedavg_acc(tests.size()), nebula_acc(tests.size());
  ThreadPool::global().parallel_for(
      0, tests.size(),
      [&](std::size_t i) {
        fedavg_acc[i] = fa.eval_on(tests[i]);
        nebula_acc[i] =
            sys.eval_derived_on(static_cast<std::int64_t>(i), tests[i]);
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < tests.size(); ++i) {
    res.fedavg_acc += fedavg_acc[i];
    res.nebula_acc += nebula_acc[i];
  }
  const double inv = 1.0 / static_cast<double>(eval_n);
  res.fedavg_acc *= inv;
  res.nebula_acc *= inv;

  res.nebula_finite = model_state_finite(sys.cloud());
  for (float x : get_state(fa.global())) {
    if (!std::isfinite(x)) {
      res.fedavg_finite = false;
      break;
    }
  }
  res.nebula_goodput_mb = sys.ledger().total_mb();
  res.nebula_overhead_mb = sys.ledger().overhead_mb();
  return res;
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double stddev_of(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean_of(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

}  // namespace nebula
