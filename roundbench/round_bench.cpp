// Round benchmark program: one workload per process.
//
//   round_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's edge fleet from the seed, sets up Nebula, FedAvg and
// HeteroFL (repeated, median reported), then runs rounds back to back as a
// closed loop with one coordinator on a one-worker pool, checks every round's
// accounting and prints each end-to-end metric. With --trace 1 it instead
// replays the round layer by layer through public calls and prints the
// per-layer table. Either way the last stdout line is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workload reasons and the layer-to-end-to-end mapping: roundbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aggregation.h"
#include "core/train.h"
#include "eval/experiments.h"
#include "nn/init.h"
#include "nn/sequential.h"
#include "nn/state.h"
#include "obs/recorder.h"
#include "parallel/thread_pool.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm.h"

namespace {

using namespace nebula;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double time_s(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- Host-speed probe ----------------------------------------------------------
//
// Other tenants on the host slow its cores by up to ~60% for seconds at a
// time. A dependent scalar chain keeps its speed through these spells while
// vector arithmetic and memory streams lose it, so they are contention for
// shared cores, not clock changes (README "Steadiness"). The probe below is
// fixed work in this file, with no library code: vector multiply-adds on a
// 96x96 matrix and a strided pass over 4 MiB, about half its time each, read
// with its data in cache. Of the mixes tried (README), this one tracked the
// round times of both workloads best. Every timed call runs between two
// probes, and the timed metrics report its wall time divided by the host's
// slowdown, the probes' mean over kProbeRefS. A change to the library cannot
// move the probe, so it moves these metrics as it moves wall time on a quiet
// host.

/// The probe's time on a quiet host (4-vCPU x86-64 microVM, AVX2): about the
/// 10th percentile of its readings between rounds of either workload.
constexpr double kProbeRefS = 3.5e-4;

class HostProbe {
 public:
  HostProbe() : a_(kN * kN), b_(kN * kN), c_(kN * kN), stream_(kStreamFloats) {
    for (std::size_t i = 0; i < a_.size(); ++i) {
      a_[i] = static_cast<float>(i % 7) * 0.01f;
      b_[i] = static_cast<float>(i % 5) * 0.01f;
    }
    for (std::size_t i = 0; i < stream_.size(); ++i) {
      stream_[i] = static_cast<float>(i % 3);
    }
  }

  /// Host slowdown now: the probe's time over kProbeRefS. A first, untimed
  /// pass brings the probe's data into cache, so the reading does not depend
  /// on how much of it the timed call evicted.
  double slowdown() {
    work();
    samples_.push_back(time_s([&] { work(); }) / kProbeRefS);
    return samples_.back();
  }

  /// Wall time of `f` divided by the mean slowdown just before and after.
  template <typename F>
  double normalized_s(F&& f) {
    const double before = slowdown();
    const double s = time_s(f);
    return s / (0.5 * (before + slowdown()));
  }

  /// Quantile of the slowdown over every probe so far (run context).
  double slowdown_quantile(double q) const { return quantile(samples_, q); }

 private:
  static constexpr std::size_t kN = 96;
  static constexpr std::size_t kStreamFloats = std::size_t{1} << 20;

  void work() {
    for (int rep = 0; rep < 2; ++rep) {
      std::fill(c_.begin(), c_.end(), 0.0f);
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t k = 0; k < kN; ++k) {
          const float a = a_[i * kN + k];
          for (std::size_t j = 0; j < kN; ++j) {
            c_[i * kN + j] += a * b_[k * kN + j];
          }
        }
      }
    }
    float sum = c_[kN + 1];
    for (std::size_t i = 0; i < stream_.size(); i += 16) sum += stream_[i];
    sink_ = sum;
  }

  std::vector<float> a_, b_, c_, stream_;
  std::vector<double> samples_;
  volatile float sink_ = 0.0f;
};

// ---- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  const char* dataset;
  const char* partition;
  std::int64_t devices;            // fleet size
  std::int64_t devices_per_round;
  std::int64_t modules_per_layer;  // 0 = the model family's paper default
  std::int64_t pretrain_epochs;    // Nebula's offline stage
  std::int64_t test_samples;       // per device test set
  double mobile_fraction;  // phones in the fleet; the rest are IoT boards
  bool robust_fleet;  // faults, Byzantine coalition, drift, churn, recorder
};

// Fleets are large so that one run's participants and test sets sample the
// seed's fleet well: round work and simulated latency then vary little from
// seed to seed. Image classification runs on phones only: on the mixed
// phone/IoT fleet the p90 of simulated latency falls in the sparse gap
// between the two device classes and moves with the seed. Every task
// pretrains on its 1500 proxy samples; the ResNet needs 4 offline epochs,
// with fewer its accuracy swings by 20 points between seeds.
constexpr Workload kWorkloads[] = {
    {"cifar_resnet_rounds", "CIFAR10", "2 classes", 400, 4, 0, 4, 64, 1.0,
     false},
    {"har_robust_fleet", "HAR", "1 subject", 400, 25, 32, 8, 128, 0.6, true},
};

/// Rounds behind the deterministic metrics (accuracy, traffic, simulated
/// latency, leg outcomes): at least 10 Nebula rounds lie beyond the p90.
constexpr std::int64_t kFixedRounds = 100;
constexpr std::int64_t kLocalEpochs = 1;  // Nebula, FedAvg and HeteroFL alike
constexpr std::int64_t kWarmRounds = 2;   // part of setup, untimed
constexpr std::int64_t kEvalDevices = 40;  // read-path and accuracy test sets
/// Read-path test sets timed per iteration (divides kEvalDevices): a CIFAR
/// run then completes about 16 passes.
constexpr std::size_t kEvalSetsPerIteration = 2;

// The baselines' accuracy is not reported; one pretraining epoch gives them
// a trained model to time rounds on and keeps setup short.
constexpr std::int64_t kBaselinePretrainEpochs = 1;

// har_robust_fleet's dynamic environment.
constexpr float kDriftRate = 0.2f;
constexpr float kChurnProb = 0.02f;

/// 10% of transfer attempts fail: legs with one retry then form a wide band
/// above the p90 of simulated latency and legs with two retries (about 2%)
/// stay well below it. At 20% the second band holds about 10% of legs and
/// the p90 jumps between the bands from seed to seed (0.52 s or 1.0 s).
FaultConfig robust_fleet_faults(const Workload& w, std::uint64_t seed) {
  FaultConfig fc;
  fc.dropout_prob = 0.1;
  fc.crash_prob = 0.05;
  fc.transfer_failure_prob = 0.1;
  fc.byzantine_fraction = 0.3;
  fc.byzantine_kind = ByzantineKind::kSignFlip;
  fc.num_devices = w.devices;  // exact coalition size
  fc.seed = seed * 7 + 1;
  return fc;
}

/// The paper's weighted mean on clean fleets; coordinate-wise median behind
/// the anomaly gate on the robust fleet.
RobustAggregationConfig robust_policy(const Workload& w) {
  RobustAggregationConfig robust;
  if (w.robust_fleet) {
    robust.kind = RobustAggregatorKind::kMedian;
    robust.anomaly_threshold = 4.0;
  }
  return robust;
}

// ---- Setup -------------------------------------------------------------------

/// One workload's systems. They hold references into `env`, so a Fleet is
/// built in place and never moved.
struct Fleet {
  Workload w;
  TaskEnv env;
  std::unique_ptr<FedAvg> fedavg;      // null in Nebula-only fleets
  std::unique_ptr<HeteroFL> heterofl;  // null in Nebula-only fleets
  std::unique_ptr<FaultInjector> baseline_faults;
  std::unique_ptr<NebulaSystem> nebula;
  // Setup phases, in seconds at the host's quiet speed when set up with a
  // probe.
  double env_build_s = 0.0;
  double pretrain_s = 0.0;  // FedAvg + HeteroFL pretraining
  double offline_s = 0.0;   // NebulaSystem construction + offline()
  double warm_s = 0.0;
};

struct RoundTimes {
  std::vector<double> nebula, fedavg, heterofl;
};

/// Times `f`: divided by the host's slowdown when `probe` is set (timed
/// metrics), plain wall time otherwise (traced ratios and untimed setup).
template <typename F>
double timed_s(HostProbe* probe, F&& f) {
  return probe ? probe->normalized_s(f) : time_s(f);
}

/// One closed-loop iteration: the environment moves (robust fleet only),
/// then FedAvg and HeteroFL (when `baselines` and the fleet has them) and
/// Nebula each run one round. Only the round() calls are timed.
RoundReport play(Fleet& f, RoundTimes* t, bool baselines = true,
                 HostProbe* probe = nullptr) {
  if (f.w.robust_fleet) f.env.population->environment_step();
  if (baselines && f.fedavg) {
    const double s = timed_s(probe, [&] { f.fedavg->round(); });
    if (t) t->fedavg.push_back(s);
  }
  if (baselines && f.heterofl) {
    const double s = timed_s(probe, [&] { f.heterofl->round(); });
    if (t) t->heterofl.push_back(s);
  }
  RoundReport rep;
  const double s = timed_s(probe, [&] { rep = f.nebula->round(); });
  if (t) t->nebula.push_back(s);
  return rep;
}

/// Everything before the first timed round. `baselines` = false builds a
/// Nebula-only fleet; Nebula's state is the same either way (the baselines
/// reseed the init stream and never draw from the population). With a
/// `probe`, each phase's time is divided by the host's slowdown.
std::unique_ptr<Fleet> setup(const Workload& w, std::uint64_t seed,
                             bool baselines, HostProbe* probe = nullptr) {
  auto f = std::make_unique<Fleet>();
  f->w = w;
  const TaskSpec spec = task_by_name(w.dataset, w.partition);
  BenchScale scale;
  scale.devices = w.devices;
  scale.devices_per_round = w.devices_per_round;
  f->env_build_s = timed_s(probe, [&] {
    f->env = make_task_env(spec, scale, seed);
    // Same sampler seed as make_task_env, with the workload's phone share.
    f->env.profiles = ProfileSampler(seed * 17 + 3)
                          .sample_fleet(w.devices, w.mobile_fraction);
  });
  EdgePopulation& pop = *f->env.population;

  if (baselines) {
    f->pretrain_s = timed_s(probe, [&] {
      TrainConfig pre;
      pre.epochs = kBaselinePretrainEpochs;
      pre.lr = spec.pretrain_lr;
      init::reseed(seed + 41);
      FedAvgConfig fc;
      fc.devices_per_round = w.devices_per_round;
      fc.local.epochs = kLocalEpochs;
      fc.seed = seed + 42;
      f->fedavg = std::make_unique<FedAvg>(f->env.plain(), pop, fc);
      f->fedavg->pretrain(f->env.proxy.data, pre);
      init::reseed(seed + 45);
      HeteroFLConfig hc;
      hc.devices_per_round = w.devices_per_round;
      hc.local.epochs = kLocalEpochs;
      hc.seed = seed + 46;
      const TaskEnv* env = &f->env;
      f->heterofl = std::make_unique<HeteroFL>(
          [env](double width) { return env->plain(width); }, pop,
          f->env.profiles, hc);
      f->heterofl->pretrain(f->env.proxy.data, pre);
    });
  }

  f->offline_s = timed_s(probe, [&] {
    ZooOptions zo;
    zo.init_seed = seed + 43;
    zo.modules_per_layer = w.modules_per_layer;
    NebulaConfig nc;
    nc.devices_per_round = w.devices_per_round;
    nc.pretrain.epochs = w.pretrain_epochs;
    nc.pretrain.lr = spec.pretrain_lr;
    nc.ability.finetune.lr = spec.pretrain_lr;
    nc.edge.epochs = kLocalEpochs;
    nc.seed = seed + 44;
    nc.fault_policy.robust = robust_policy(w);
    if (w.robust_fleet) nc.fault_policy.probation_clean_rounds = 2;
    f->nebula = std::make_unique<NebulaSystem>(f->env.modular(zo), pop,
                                               f->env.profiles, nc);
    f->nebula->offline(f->env.proxy);
  });

  if (w.robust_fleet) {
    FaultConfig fc = robust_fleet_faults(w, seed);
    f->nebula->inject_faults(fc);
    if (baselines) {
      // The baselines face the same churn, dropouts and link failures but
      // not the coalition: undefended, they diverge under it, and a diverged
      // model's round time measures float exceptions, not the round path.
      fc.byzantine_fraction = 0.0;
      f->baseline_faults = std::make_unique<FaultInjector>(fc);
      f->fedavg->set_fault_injector(f->baseline_faults.get());
      f->heterofl->set_fault_injector(f->baseline_faults.get());
    }
    pop.set_dynamics(kDriftRate, kChurnProb);
  }
  obs::recorder().reset();
  obs::recorder().set_enabled(w.robust_fleet);

  f->warm_s = timed_s(probe, [&] {
    for (std::int64_t r = 0; r < kWarmRounds; ++r) play(*f, nullptr);
  });
  return f;
}

// ---- Round accounting ----------------------------------------------------------

/// Leg outcomes and traffic summed over the fixed rounds.
struct LegStats {
  std::int64_t rounds = 0, participants = 0, completed = 0, dropped = 0;
  std::int64_t rejected_structural = 0, rejected_norm = 0, rejected_robust = 0;
  std::int64_t probation = 0, retries = 0;
  std::int64_t goodput_bytes = 0, overhead_bytes = 0, attempted_bytes = 0;
  std::vector<double> device_wall_s;

  void add(const RoundReport& r) {
    ++rounds;
    participants += static_cast<std::int64_t>(r.participants.size());
    completed += static_cast<std::int64_t>(r.completed.size());
    dropped += static_cast<std::int64_t>(r.dropped.size());
    rejected_structural += r.rejected_structural;
    rejected_norm += r.rejected_norm;
    rejected_robust += r.rejected_robust;
    probation += static_cast<std::int64_t>(r.probation.size());
    retries += r.transfer_retries;
    goodput_bytes += r.goodput_bytes;
    overhead_bytes += r.overhead_bytes;
    attempted_bytes += r.attempted_bytes;
    device_wall_s.insert(device_wall_s.end(), r.device_wall_s.begin(),
                         r.device_wall_s.end());
  }
  double share(std::int64_t n) const {
    return participants > 0 ? static_cast<double>(n) / participants : 0.0;
  }
};

/// Empty when every leg of the round is accounted for, else what broke.
/// Traffic conservation (attempted = goodput + overhead) is checked by
/// NebulaSystem::round() itself, which throws when it breaks; the benchmark
/// counts a throwing round as failed.
std::string check_round(const RoundReport& r) {
  std::ostringstream why;
  std::size_t discarded_stragglers = 0;
  for (double weight : r.staleness_weights) {
    if (weight == 0.0) ++discarded_stragglers;
  }
  const std::size_t accounted = r.completed.size() + r.dropped.size() +
                                r.rejected.size() + r.probation.size() +
                                discarded_stragglers;
  if (accounted != r.participants.size()) {
    why << "round " << r.round_index << ": " << accounted
        << " legs accounted for " << r.participants.size()
        << " participants";
  }
  return why.str();
}

bool layer_finite(Layer& layer) {
  for (float x : get_state(layer)) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// Fixed evaluation set: the first devices' current tasks (serial draws
/// from the population stream).
std::vector<Dataset> draw_tests(Fleet& f) {
  std::vector<Dataset> tests;
  for (std::int64_t k = 0; k < kEvalDevices; ++k) {
    tests.push_back(f.env.population->device_test(k, f.w.test_samples));
  }
  return tests;
}

/// One read-path pass: derive + forward for every test set. Returns mean
/// accuracy; `samples` counts evaluated samples.
double eval_pass(Fleet& f, const std::vector<Dataset>& tests,
                 std::int64_t* samples) {
  double acc = 0.0;
  *samples = 0;
  for (std::size_t k = 0; k < tests.size(); ++k) {
    acc += f.nebula->eval_derived_on(static_cast<std::int64_t>(k), tests[k]);
    *samples += tests[k].size();
  }
  return acc / static_cast<double>(tests.size());
}

/// Accuracy a run must clearly beat: halfway from chance to perfect. Chance
/// is guessing among the classes of a device's test set: its label-skew
/// classes, or all classes under feature skew.
double accuracy_floor(const Fleet& f) {
  const std::int64_t c = f.env.spec.classes_per_device > 0
                             ? f.env.spec.classes_per_device
                             : f.env.spec.data.num_classes;
  return 0.5 * (1.0 + 1.0 / static_cast<double>(c));
}

// ---- Output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  std::string json() const {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", items_[i].value);
      out << (i ? ", " : "") << "\"" << items_[i].name
          << "\": {\"value\": " << num << ", \"unit\": \"" << items_[i].unit
          << "\"}";
    }
    out << "}";
    return out.str();
  }
  void print_table() const {
    for (const Metric& m : items_) {
      std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  std::vector<Metric> items_;
};

/// Host state from /proc, so an outlier run can be traced to the host.
struct HostSample {
  double load1 = -1.0;
  long long steal = 0, total = 0;
};

HostSample sample_host() {
  HostSample h;
  std::ifstream load("/proc/loadavg");
  if (load) load >> h.load1;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  if (stat >> cpu && cpu == "cpu") {
    long long v[8] = {};
    for (long long& x : v) stat >> x;
    for (long long x : v) h.total += x;
    h.steal = v[7];
  }
  return h;
}

void print_context(const Workload& w, std::uint64_t seed, int trace,
                   const HostSample& a, const HostSample& b,
                   double slowdown) {
  const long long dt = b.total - a.total;
  const double steal = dt > 0 ? static_cast<double>(b.steal - a.steal) / dt
                              : 0.0;
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"pool\": %zu, \"nproc\": %u, \"gemm_kernel\": \"%s\", "
      "\"cpu_features\": \"%s\", \"load1_start\": %.2f, \"load1_end\": "
      "%.2f, \"steal_share\": %.4f, \"host_slowdown\": %.3f}}\n",
      w.name, static_cast<unsigned long long>(seed), trace,
      ThreadPool::global().size(), std::thread::hardware_concurrency(),
      gemm_kernel_name(), cpu_feature_string().c_str(), a.load1, b.load1,
      steal, slowdown);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;

  void fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
};

// ---- End-to-end run ----------------------------------------------------------------

constexpr int kSetups = 3;

void run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                    HostProbe& probe, Outcome& out) {
  // setup_s sums the setup phases; the glue between them (fault injector,
  // dynamics knobs, recorder reset) takes microseconds.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> f;
  for (int i = 0; i < kSetups; ++i) {
    f.reset();
    f = setup(w, seed, /*baselines=*/true, &probe);
    setup_s.push_back(f->env_build_s + f->pretrain_s + f->offline_s +
                      f->warm_s);
  }

  RoundTimes times;
  LegStats legs;
  std::int64_t train_samples = 0;  // participants' local samples, fixed rounds
  double accuracy = 0.0;
  // The read path is timed a few test sets per iteration, spread over the
  // whole run; its throughput pools every complete pass over the sets. Every
  // mode draws these sets right after setup, so the population stream, and
  // with it every deterministic metric, is the same in all modes.
  const std::vector<Dataset> read_tests = draw_tests(*f);
  std::int64_t eval_passes = 0, eval_samples = 0;
  double eval_s = 0.0;
  double pass_s = 0.0;
  std::int64_t pass_samples = 0;
  const auto t0 = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    if (i == kFixedRounds) {
      std::int64_t samples = 0;
      accuracy = eval_pass(*f, draw_tests(*f), &samples);
    }
    if (i >= kFixedRounds && seconds_since(t0) >= seconds) break;
    // The baselines only need a steady median, so they run every other
    // iteration; Nebula runs every iteration for its p90.
    const bool baselines = i % 2 == 0;
    out.attempted += baselines ? 3 : 1;
    RoundReport rep;
    try {
      rep = play(*f, &times, baselines, &probe);
    } catch (const std::exception& e) {
      ++out.failed;
      out.fail(std::string("round threw: ") + e.what());
      return;
    }
    const std::string why = check_round(rep);
    if (!why.empty()) {
      ++out.failed;
      out.fail(why);
    }
    if (i < kFixedRounds) {
      legs.add(rep);
      for (std::int64_t k : rep.participants) {
        train_samples += f->env.population->local_data(k).size();
      }
    }
    const std::size_t k =
        static_cast<std::size_t>(i) * kEvalSetsPerIteration % read_tests.size();
    pass_s += probe.normalized_s([&] {
      for (std::size_t j = k; j < k + kEvalSetsPerIteration; ++j) {
        f->nebula->eval_derived_on(static_cast<std::int64_t>(j), read_tests[j]);
      }
    });
    for (std::size_t j = k; j < k + kEvalSetsPerIteration; ++j) {
      pass_samples += read_tests[j].size();
    }
    if (k + kEvalSetsPerIteration == read_tests.size()) {
      ++eval_passes;
      eval_samples += pass_samples;
      eval_s += pass_s;
      pass_s = 0.0;
      pass_samples = 0;
    }
  }

  if (!w.robust_fleet) {
    if (!model_state_finite(f->nebula->cloud())) {
      out.fail("Nebula cloud model is not finite");
    }
    if (!layer_finite(f->fedavg->global())) {
      out.fail("FedAvg global model is not finite");
    }
    if (!layer_finite(f->heterofl->global())) {
      out.fail("HeteroFL global model is not finite");
    }
  }
  if (!(accuracy > accuracy_floor(*f))) {
    out.fail("nebula_accuracy " + std::to_string(accuracy) +
             " is not above " + std::to_string(accuracy_floor(*f)));
  }

  Metrics& m = out.metrics;
  m.add("setup_s", median(setup_s), "s");
  m.add("nebula_round_s_p50", median(times.nebula), "s");
  m.add("nebula_round_s_p90", quantile(times.nebula, 0.9), "s");
  m.add("fedavg_round_s_p50", median(times.fedavg), "s");
  m.add("heterofl_round_s_p50", median(times.heterofl), "s");
  m.add("eval_samples_per_s", static_cast<double>(eval_samples) / eval_s,
        "1/s");
  m.add("nebula_accuracy", accuracy, "ratio");
  m.add("comm_mb_per_round",
        static_cast<double>(legs.goodput_bytes) / (1024.0 * 1024.0) /
            static_cast<double>(legs.rounds),
        "MB");
  m.add("sim_device_s_p90", quantile(legs.device_wall_s, 0.9), "s");
  m.add("ok_leg_share", legs.share(legs.completed), "ratio");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf(
      "timed rounds: %zu Nebula, %zu per baseline (%lld fixed, %.1f local "
      "samples per Nebula round); eval passes: %zu; last setup: env %.3f s, "
      "baselines %.3f s, offline %.3f s, warm %.3f s; times are wall times "
      "over the host slowdown, p10 %.3f, median %.3f\n",
      times.nebula.size(), times.fedavg.size(),
      static_cast<long long>(kFixedRounds),
      static_cast<double>(train_samples) / static_cast<double>(kFixedRounds),
      static_cast<std::size_t>(eval_passes), f->env_build_s, f->pretrain_s, f->offline_s,
      f->warm_s, probe.slowdown_quantile(0.1), probe.slowdown_quantile(0.5));
}

// ---- Traced run: per-layer attribution from public calls -----------------------

/// Median per-call time of `f`, in batches long enough to dwarf the clock.
template <typename F>
double per_call_s(F&& f, int samples = 9) {
  int reps = 1;
  while (time_s([&] {
           for (int i = 0; i < reps; ++i) f();
         }) < 2e-4 &&
         reps < (1 << 16)) {
    reps *= 2;
  }
  std::vector<double> per;
  for (int s = 0; s < samples; ++s) {
    per.push_back(time_s([&] {
                    for (int i = 0; i < reps; ++i) f();
                  }) /
                  reps);
  }
  return median(per);
}

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.uniform() * 2.0f - 1.0f;
  }
  return t;
}

Tensor ones(std::vector<std::int64_t> shape) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t.data()[i] = 1.0f;
  return t;
}

struct FwdBwd {
  double fwd_s = 0.0, bwd_s = 0.0;
};

/// Forward time, and backward time as (forward + backward) - forward:
/// layers may drop their caches in backward, so each backward is timed
/// behind its own forward.
template <typename F, typename B>
FwdBwd fwd_bwd(F&& fwd, B&& bwd) {
  FwdBwd t;
  t.fwd_s = per_call_s(fwd);
  t.bwd_s = std::max(0.0, per_call_s([&] {
                              fwd();
                              bwd();
                            }) - t.fwd_s);
  return t;
}

/// Walks a plain model's leaves at a training batch, timing forward and
/// backward per leaf and summing by layer type. Containers recurse.
void walk_plain(Layer& layer, std::vector<std::int64_t>& shape, Rng& rng,
                std::map<std::string, FwdBwd>& by_type,
                std::map<std::string, double>& gemm_s,
                std::map<std::string, double>& im2col_s) {
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    for (std::size_t i = 0; i < seq->size(); ++i) {
      walk_plain((*seq)[i], shape, rng, by_type, gemm_s, im2col_s);
    }
    return;
  }
  if (auto* res = dynamic_cast<Residual*>(&layer)) {
    std::vector<std::int64_t> inner_shape = shape;
    walk_plain(res->inner(), inner_shape, rng, by_type, gemm_s, im2col_s);
    return;
  }
  const Tensor x = random_tensor(shape, rng);
  const std::vector<std::int64_t> out = layer.out_shape(shape);
  const Tensor g = ones(out);
  const FwdBwd fb = fwd_bwd([&] { layer.forward(x, true); },
                            [&] { layer.backward(g); });
  FwdBwd& t = by_type[layer.name()];
  t.fwd_s += fb.fwd_s;
  t.bwd_s += fb.bwd_s;
  if (layer.name() == "Linear") {
    std::ostringstream key;
    key << shape[0] << "x" << out[1] << "x" << shape[1];
    gemm_s[key.str()] += fb.fwd_s + fb.bwd_s;
  } else if (layer.name() == "Conv2d") {
    const std::int64_t rows =
        layer.params().front()->value.shape()[1];  // in_c * kh * kw
    std::ostringstream key;
    key << out[1] << "x" << out[2] * out[3] << "x" << rows;
    im2col_s[key.str()] += fb.fwd_s + fb.bwd_s;
  }
  shape = out;
}

/// GFLOP/s of one plain GEMM C(m,n) = A(m,k) B(k,n).
double gemm_gflops(std::int64_t m, std::int64_t n, std::int64_t k, Rng& rng) {
  const Tensor a = random_tensor({m, k}, rng), b = random_tensor({k, n}, rng);
  Tensor c({m, n});
  const double s = per_call_s([&] {
    gemm(Trans::N, Trans::N, m, n, k, a.data(), k, b.data(), n, c.data(), n,
         false);
  });
  return 2.0 * static_cast<double>(m * n * k) / s / 1e9;
}

/// GFLOP/s of the fused im2col conv-forward product for a 3x3, pad-1 conv
/// producing m channels on a (channels, h, w) image.
double im2col_gflops(std::int64_t m, std::int64_t channels, std::int64_t hw,
                     std::int64_t stride, Rng& rng) {
  const Im2colMap map{channels, hw, hw, 3, 3, stride, 1};
  const Tensor a = random_tensor({m, map.rows()}, rng);
  const Tensor img = random_tensor({channels, hw, hw}, rng);
  Tensor c({m, map.cols()});
  const double s = per_call_s([&] {
    gemm_im2col(Trans::N, m, a.data(), map.rows(), img.data(), map, c.data(),
                map.cols(), false);
  });
  return 2.0 * static_cast<double>(m * map.cols() * map.rows()) / s / 1e9;
}

/// Layer types always reported (0 where a workload has none), so every
/// workload emits the same per-layer names.
const char* const kLayerTypes[] = {"Linear",        "ReLU",      "Conv2d",
                                   "BatchNorm",     "MaxPool2d", "GlobalAvgPool",
                                   "ModuleLayer",   "ModuleSelector"};

/// GEMM shapes measured on every workload: the largest-share Linear and
/// conv shapes of the three workloads' models at batch 16 (the walk prints
/// the live ranking).
struct GemmShape {
  std::int64_t m, n, k;
};
const GemmShape kGemmShapes[] = {{16, 48, 32}, {16, 32, 48}, {16, 6, 48}};
struct ConvShape {
  std::int64_t m, channels, hw, stride;  // 3x3, pad 1
};
const ConvShape kConvShapes[] = {
    {8, 3, 8, 1}, {8, 8, 4, 1}, {16, 8, 4, 2}, {16, 16, 2, 1}};

/// Nebula's accuracy after the fixed rounds on a Nebula-only fleet — the
/// same value the end-to-end run reports at this seed.
double accuracy_after_rounds(const Workload& w, std::uint64_t seed) {
  std::unique_ptr<Fleet> f = setup(w, seed, /*baselines=*/false);
  draw_tests(*f);  // the read-path sets, as in every mode
  for (std::int64_t i = 0; i < kFixedRounds; ++i) play(*f, nullptr);
  std::int64_t samples = 0;
  return eval_pass(*f, draw_tests(*f), &samples);
}

/// Per-leg spans of one replayed round (legs summed), plus aggregation.
struct Replay {
  double importance = 0, derive = 0, build = 0, train = 0, pack = 0;
  double validate = 0, aggregate = 0, wall = 0, flops = 0;
  std::int64_t legs = 0;

  double spans() const {
    return importance + derive + build + train + pack + validate + aggregate;
  }
};

/// Replays one round's device legs through public calls, in the order
/// NebulaSystem::round() runs them, then aggregates into a clone of the
/// cloud. Devices the fault injector drops in `round_idx` are skipped, as
/// the round skips them. Leaves the system's state untouched.
Replay replay_round(Fleet& f, const std::vector<std::int64_t>& devices,
                    std::int64_t round_idx, std::uint64_t seed) {
  NebulaSystem& sys = *f.nebula;
  const NebulaConfig defaults;
  Replay r;
  std::vector<EdgeUpdate> updates;
  const auto t0 = Clock::now();
  for (std::int64_t k : devices) {
    if (sys.faults() && sys.faults()->device_fate(round_idx, k).dropped) {
      continue;
    }
    ++r.legs;
    const Dataset& local = f.env.population->local_data(k);
    std::vector<std::vector<double>> imp;
    r.importance += time_s([&] { imp = sys.device_importance(k); });
    DerivationResult der;
    r.derive += time_s([&] {
      DerivationRequest req;
      req.importance = imp;
      req.budgets =
          sys.derivation().budget_fraction(sys.budget_fraction_for(k));
      der = sys.derivation().derive(req);
    });
    std::unique_ptr<ModularModel> sub;
    r.build += time_s([&] { sub = sys.build_submodel(der.spec); });
    TrainConfig cfg = sys.edge_config();
    cfg.seed = seed + static_cast<std::uint64_t>(k);
    r.train += time_s(
        [&] { train_modular(*sub, sys.selector(), local, cfg); });
    r.flops += 3.0 * static_cast<double>(sub->forward_flops(defaults.top_k)) *
               static_cast<double>(local.size()) *
               static_cast<double>(cfg.epochs);
    r.importance += time_s([&] { imp = sys.device_importance(k); });
    EdgeUpdate up;
    r.pack += time_s(
        [&] { up = make_edge_update(*sub, std::move(imp), local.size()); });
    UpdateVerdict verdict = UpdateVerdict::kOk;
    r.validate += time_s([&] {
      verdict = validate_update(sys.cloud(), up,
                                defaults.fault_policy.norm_bound_rms);
    });
    if (verdict == UpdateVerdict::kOk) updates.push_back(std::move(up));
  }
  const double legs_wall = seconds_since(t0);
  std::unique_ptr<ModularModel> cloud = sys.cloud().clone();
  r.aggregate = time_s([&] {
    aggregate_module_wise_robust(*cloud, updates, defaults.weighting,
                                 /*server_mix=*/1.0f, robust_policy(f.w));
  });
  r.wall = legs_wall + r.aggregate;
  return r;
}

/// Replayed rounds per traced run, and the band the replayed round's wall
/// time over the measured round() must lie in: 0.99 to 1.09 in the traced
/// runs of both workloads, widened for host noise between a round and its
/// replay.
constexpr int kReplays = 9;
constexpr double kReplayVsRound[2] = {0.8, 1.2};

void run_trace(const Workload& w, std::uint64_t seed, Outcome& out) {
  Metrics& m = out.metrics;
  ThreadPool& serial = ThreadPool::global();
  std::unique_ptr<Fleet> f = setup(w, seed, /*baselines=*/true);
  NebulaSystem& sys = *f->nebula;
  EdgePopulation& pop = *f->env.population;
  m.add("data.env_build_s", f->env_build_s, "s");
  m.add("core.offline_s", f->offline_s, "s");
  m.add("baselines.pretrain_s", f->pretrain_s, "s");

  // The fixed rounds, Nebula only: the baselines never touch its state, so
  // accuracy and leg outcomes match the end-to-end run at this seed.
  LegStats legs;
  auto nebula_round = [&](RoundTimes* t) {
    ++out.attempted;
    const RoundReport rep = play(*f, t, /*baselines=*/false);
    const std::string why = check_round(rep);
    if (!why.empty()) {
      ++out.failed;
      out.fail(why);
    }
    return rep;
  };
  const std::vector<Dataset> read_tests = draw_tests(*f);  // as in every mode
  for (std::int64_t i = 0; i < kFixedRounds; ++i) {
    legs.add(nebula_round(nullptr));
  }
  std::int64_t samples = 0;
  const double accuracy = eval_pass(*f, draw_tests(*f), &samples);
  std::vector<double> pass_s;
  for (int pass = 0; pass < 3; ++pass) {
    pass_s.push_back(time_s([&] { eval_pass(*f, read_tests, &samples); }));
  }
  if (!(accuracy > accuracy_floor(*f))) {
    out.fail("nebula_accuracy " + std::to_string(accuracy) +
             " is not above " + std::to_string(accuracy_floor(*f)));
  }
  m.add("core.eval_s_per_sample",
        median(pass_s) / static_cast<double>(samples), "s");

  m.add("sim.wasted_byte_share",
        static_cast<double>(legs.overhead_bytes) /
            static_cast<double>(legs.attempted_bytes),
        "ratio");
  m.add("sim.retries_per_leg", legs.share(legs.retries), "ratio");
  m.add("sim.failed_share.dropped", legs.share(legs.dropped), "ratio");
  m.add("sim.failed_share.structural", legs.share(legs.rejected_structural),
        "ratio");
  m.add("sim.failed_share.norm", legs.share(legs.rejected_norm), "ratio");
  m.add("sim.failed_share.robust", legs.share(legs.rejected_robust), "ratio");
  m.add("sim.failed_share.probation", legs.share(legs.probation), "ratio");

  // ---- core: replay the legs of real rounds right after each one runs.
  std::vector<Replay> replays;
  std::vector<double> coverage, vs_round;
  std::vector<std::int64_t> devices;  // the last replayed participants
  for (int i = 0; i < kReplays; ++i) {
    RoundTimes t;
    const RoundReport rep = nebula_round(&t);
    devices = rep.participants;
    replays.push_back(replay_round(*f, devices, rep.round_index, seed));
    coverage.push_back(replays.back().spans() / replays.back().wall);
    vs_round.push_back(replays.back().wall / t.nebula.front());
  }
  // Per leg, summed over the replays (legs differ in data size).
  auto per_leg = [&](double Replay::*field) {
    double s = 0.0;
    std::int64_t legs = 0;
    for (const Replay& r : replays) {
      s += r.*field;
      legs += r.legs;
    }
    return s / static_cast<double>(std::max<std::int64_t>(1, legs));
  };
  // Shares of the replayed rounds' wall time, summed over the replays.
  auto share = [&](std::initializer_list<double Replay::*> fields) {
    double s = 0.0, wall = 0.0;
    for (const Replay& r : replays) {
      for (double Replay::*field : fields) s += r.*field;
      wall += r.wall;
    }
    return s / wall;
  };
  double flops = 0.0, train_s = 0.0, aggregate_s = 0.0;
  for (const Replay& r : replays) {
    flops += r.flops;
    train_s += r.train;
    aggregate_s += r.aggregate;
  }
  m.add("core.importance_s", per_leg(&Replay::importance), "s");
  m.add("core.derive_s", per_leg(&Replay::derive), "s");
  m.add("core.build_submodel_s", per_leg(&Replay::build), "s");
  m.add("core.train_s", per_leg(&Replay::train), "s");
  m.add("core.train_gflops", flops / train_s / 1e9, "GFLOP/s");
  m.add("core.pack_s", per_leg(&Replay::pack), "s");
  m.add("core.validate_s", per_leg(&Replay::validate), "s");
  m.add("core.aggregate_s", aggregate_s / static_cast<double>(replays.size()),
        "s");
  m.add("core.train_share", share({&Replay::train}), "ratio");
  m.add("core.importance_derive_share",
        share({&Replay::importance, &Replay::derive}), "ratio");
  m.add("core.validate_aggregate_share",
        share({&Replay::validate, &Replay::aggregate}), "ratio");
  const double replay_coverage = median(coverage);
  const double replay_vs_round = median(vs_round);
  m.add("core.replay_coverage", replay_coverage, "ratio");
  m.add("core.replay_vs_round", replay_vs_round, "ratio");
  // Closure: the child spans account for the replayed round, and the
  // replayed round for the measured round(). The replay leaves out only
  // simulated work (transfers, retries, corruption, Byzantine rewriting)
  // and the serial merge, so its wall time must stay near the round's.
  if (replay_coverage < 0.95 || replay_coverage > 1.0001) {
    out.fail("replay coverage " + std::to_string(replay_coverage) +
             " is not near 1");
  }
  if (replay_vs_round < kReplayVsRound[0] ||
      replay_vs_round > kReplayVsRound[1]) {
    out.fail("replayed round over round() " + std::to_string(replay_vs_round) +
             " is outside [" + std::to_string(kReplayVsRound[0]) + ", " +
             std::to_string(kReplayVsRound[1]) + "]");
  }

  // ---- baselines: one local-training leg each, per device.
  {
    double fedavg_s = 0.0, heterofl_s = 0.0;
    for (std::int64_t k : devices) {
      TrainConfig local = FedAvgConfig{}.local;
      local.epochs = kLocalEpochs;
      local.seed = seed + static_cast<std::uint64_t>(k);
      const Dataset& data = pop.local_data(k);
      LayerPtr global = f->fedavg->global().clone();
      fedavg_s += time_s([&] { train_plain(*global, data, local); });
      // A fresh model at the device's width tier costs what the extracted
      // tier costs.
      LayerPtr tier = f->env.plain(f->heterofl->device_width(k));
      heterofl_s += time_s([&] { train_plain(*tier, data, local); });
    }
    const double n = static_cast<double>(devices.size());
    m.add("baselines.fedavg_train_s", fedavg_s / n, "s");
    m.add("baselines.heterofl_train_s", heterofl_s / n, "s");
  }

  // ---- parallel: round time by pool size, and an empty region.
  {
    ThreadPool pool2(2), pool4(4);
    RoundTimes t1, t2, t4;
    for (int i = 0; i < 6; ++i) {
      for (auto [pool, times] : {std::pair{&serial, &t1},
                                 std::pair{&pool2, &t2},
                                 std::pair{&pool4, &t4}}) {
        ThreadPool::set_global(pool);
        nebula_round(times);
      }
    }
    ThreadPool::set_global(&serial);
    m.add("parallel.speedup_w2", median(t1.nebula) / median(t2.nebula),
          "ratio");
    m.add("parallel.speedup_w4", median(t1.nebula) / median(t4.nebula),
          "ratio");
    m.add("parallel.region_us",
          per_call_s([&] { pool4.parallel_for(0, 4, [](std::size_t) {}); }) *
              1e6,
          "us");
  }

  // ---- obs: recorder on against off, alternating rounds.
  {
    RoundTimes on, off;
    for (int i = 0; i < 8; ++i) {
      obs::recorder().set_enabled(true);
      nebula_round(&on);
      obs::recorder().set_enabled(false);
      nebula_round(&off);
    }
    obs::recorder().set_enabled(w.robust_fleet);
    m.add("obs.recorder_ratio", median(on.nebula) / median(off.nebula),
          "ratio");
  }

  // ---- nn: forward/backward by layer type at the edge training batch.
  Rng rng(seed * 29 + 3);
  const std::int64_t batch = sys.edge_config().batch_size;
  std::map<std::string, FwdBwd> by_type;
  std::map<std::string, double> gemm_s, im2col_s;
  {
    LayerPtr plain = f->env.plain();
    std::vector<std::int64_t> shape = {batch};
    for (std::int64_t d : f->env.sample_shape()) shape.push_back(d);
    walk_plain(*plain, shape, rng, by_type, gemm_s, im2col_s);

    // Module layers of a device's sub-model, routed by a fresh selector (the
    // system's selector keeps no gradients from this).
    ZooOptions zo;
    zo.modules_per_layer = w.modules_per_layer;
    ZooModel zoo = f->env.modular(zo);
    std::unique_ptr<ModularModel> sub =
        zoo.model->derive_submodel(sys.derive(devices.front()).spec);
    const Tensor raw = random_tensor({batch, zoo.model->flat_input_dim()}, rng);
    const GateResult gates = zoo.selector->forward(raw, false);
    RoutingOpts routing;
    routing.top_k = NebulaConfig{}.top_k;
    for (std::size_t l = 0; l < sub->num_module_layers(); ++l) {
      ModuleLayer& layer = sub->module_layer(l);
      std::vector<std::int64_t> in = sub->layer_input_shape(l);
      in[0] = batch;
      const Tensor x = random_tensor(in, rng);
      const Tensor g = ones(layer.out_shape(in));
      const FwdBwd fb =
          fwd_bwd([&] { layer.forward(x, gates.probs[l], routing, true); },
                  [&] { layer.backward(g); });
      by_type["ModuleLayer"].fwd_s += fb.fwd_s;
      by_type["ModuleLayer"].bwd_s += fb.bwd_s;
    }
    std::vector<Tensor> grad_probs;
    for (const Tensor& p : gates.probs) grad_probs.push_back(ones(p.shape()));
    by_type["ModuleSelector"] =
        fwd_bwd([&] { zoo.selector->forward(raw, true); },
                [&] { zoo.selector->backward(grad_probs); });
  }
  double layer_total = 0.0;
  for (const auto& [name, t] : by_type) layer_total += t.fwd_s + t.bwd_s;
  for (const char* type : kLayerTypes) {
    const FwdBwd t = by_type.count(type) ? by_type[type] : FwdBwd{};
    const std::string prefix = std::string("nn.") + type;
    m.add(prefix + ".fwd_s", t.fwd_s, "s");
    m.add(prefix + ".bwd_s", t.bwd_s, "s");
    m.add(prefix + ".share", (t.fwd_s + t.bwd_s) / layer_total, "ratio");
  }
  std::printf("layer walk (batch %lld):\n", static_cast<long long>(batch));
  for (const auto& [name, t] : by_type) {
    std::printf("  %-16s fwd %10.3g s  bwd %10.3g s  share %.3f\n",
                name.c_str(), t.fwd_s, t.bwd_s,
                (t.fwd_s + t.bwd_s) / layer_total);
  }
  for (const auto& [key, s] : gemm_s) {
    std::printf("  gemm %-14s %.3f of walk\n", key.c_str(), s / layer_total);
  }
  for (const auto& [key, s] : im2col_s) {
    std::printf("  im2col %-12s %.3f of walk\n", key.c_str(), s / layer_total);
  }

  // ---- tensor: kernel throughput at the workloads' GEMM shapes.
  for (const GemmShape& g : kGemmShapes) {
    std::ostringstream key;
    key << g.m << "x" << g.n << "x" << g.k;
    m.add("tensor.gemm_gflops." + key.str(), gemm_gflops(g.m, g.n, g.k, rng),
          "GFLOP/s");
  }
  for (const ConvShape& c : kConvShapes) {
    const std::int64_t out_hw = (c.hw + 2 - 3) / c.stride + 1;
    std::ostringstream key;
    key << c.m << "x" << out_hw * out_hw << "x" << c.channels * 9;
    m.add("tensor.gemm_im2col_gflops." + key.str(),
          im2col_gflops(c.m, c.channels, c.hw, c.stride, rng), "GFLOP/s");
  }
  m.add("tensor.gemm_gflops.256", gemm_gflops(256, 256, 256, rng),
        "GFLOP/s");
  m.add("tensor.train_flops_per_round",
        flops / static_cast<double>(replays.size()), "count");

  // ---- seed spread of the deterministic accuracy.
  std::vector<double> accs = {accuracy};
  for (std::uint64_t s = 1; s < 5; ++s) {
    accs.push_back(accuracy_after_rounds(w, seed + s));
  }
  m.add("seeds.count", static_cast<double>(accs.size()), "count");
  m.add("seeds.nebula_accuracy_mean", mean_of(accs), "ratio");
  m.add("seeds.nebula_accuracy_min", *std::min_element(accs.begin(), accs.end()),
        "ratio");
  m.add("seeds.nebula_accuracy_max", *std::max_element(accs.begin(), accs.end()),
        "ratio");
  std::printf("nebula_accuracy by seed:");
  for (std::size_t i = 0; i < accs.size(); ++i) {
    std::printf(" %llu:%.4f", static_cast<unsigned long long>(seed + i),
                accs[i]);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  // Rounds are bit-identical at every pool size (DESIGN.md §11); one worker
  // does the same work without scheduler noise.
  ThreadPool serial(1);
  ThreadPool::set_global(&serial);

  const HostSample host0 = sample_host();
  HostProbe probe;
  Outcome out;
  try {
    if (trace) {
      run_trace(*w, seed, out);
    } else {
      run_end_to_end(*w, seed, seconds, probe, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    ThreadPool::set_global(nullptr);
    return 1;
  }
  // One more reading, so the traced run (which times nothing through the
  // probe) records the host's slowdown too.
  probe.slowdown();
  print_context(*w, seed, trace, host0, sample_host(),
                probe.slowdown_quantile(0.5));
  out.metrics.print_table();
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      out.correct ? "true" : "false", static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), out.metrics.json().c_str());
  std::fflush(stdout);
  ThreadPool::set_global(nullptr);
  return out.correct ? 0 : 1;
}
