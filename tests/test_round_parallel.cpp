// Serial-vs-parallel equivalence: a round executed on a 1-thread pool and on
// a multi-worker pool must produce bit-identical reports, ledgers and model
// states (per-(round, device) seed streams + index-ordered slot merges).
//
// This suite lives in its own binary (ctest label `parallel`) so it can swap
// the global thread pool freely and be run under a TSan build:
//   cmake -B build-tsan -S . -DNEBULA_TSAN=ON && cmake --build build-tsan
//   ctest --test-dir build-tsan -L parallel
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/fedavg.h"
#include "baselines/heterofl.h"
#include "core/model_zoo.h"
#include "core/nebula.h"
#include "core/train.h"
#include "nn/init.h"
#include "nn/state.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "parallel/thread_pool.h"
#include "sim/faults.h"

namespace nebula {
namespace {

constexpr std::size_t kSerialWorkers = 1;
constexpr std::size_t kParallelWorkers = 4;

// Runs `fn` with the global pool replaced by a pool of `workers` threads.
template <typename Fn>
void with_pool(std::size_t workers, Fn&& fn) {
  ThreadPool pool(workers);
  ThreadPool* prev = ThreadPool::set_global(&pool);
  fn();
  ThreadPool::set_global(prev);
}

// Bitwise float-vector equality: corrupted uploads legitimately put NaNs in
// baseline model states, and NaN != NaN would fail EXPECT_EQ on states that
// are in fact bit-identical.
void expect_states_bitwise_equal(const std::vector<float>& a,
                                 const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// Mirrors the SmallWorld fixture of test_nebula_system.cpp: a 10-device
// HAR-like fleet of MLP models.
struct World {
  std::unique_ptr<SyntheticGenerator> gen;
  std::unique_ptr<EdgePopulation> pop;
  std::vector<DeviceProfile> profiles;
  SyntheticData proxy;

  explicit World(std::uint64_t seed = 88) {
    auto spec = har_like_spec();
    gen = std::make_unique<SyntheticGenerator>(spec, seed);
    PartitionConfig pc;
    pc.num_devices = 10;
    pc.classes_per_device = 0;
    pc.clusters_per_device = 2;
    pc.seed = seed + 1;
    pop = std::make_unique<EdgePopulation>(*gen, pc);
    ProfileSampler sampler(seed + 2);
    profiles = sampler.sample_fleet(10);
    proxy = pop->proxy_data_ex(800);
  }

  NebulaSystem make_system(NebulaConfig cfg = {}) {
    ZooOptions opts;
    opts.modules_per_layer = 6;
    opts.init_seed = 909;
    cfg.devices_per_round = 4;
    cfg.pretrain.epochs = 4;
    return NebulaSystem(make_modular(TaskModel::kMlpHar, {32}, 6, opts), *pop,
                        profiles, cfg);
  }
};

// Conv counterpart: a 6-device CIFAR-like fleet whose ResNet18-style models
// drive Conv2d/BatchNorm backward through ThreadPool::reduce_ordered on
// every on-device step. Sized small (8x8 images, 3 modules per layer, short
// epochs, 40-80 samples per device) so sweeping pool sizes {2, 4, 7} stays
// affordable under TSan.
struct ConvWorld {
  std::unique_ptr<SyntheticGenerator> gen;
  std::unique_ptr<EdgePopulation> pop;
  std::vector<DeviceProfile> profiles;
  SyntheticData proxy;

  explicit ConvWorld(std::uint64_t seed = 66) {
    auto spec = cifar10_like_spec();
    gen = std::make_unique<SyntheticGenerator>(spec, seed);
    PartitionConfig pc;
    pc.num_devices = 6;
    pc.classes_per_device = 2;
    pc.min_samples = 40;
    pc.max_samples = 80;
    pc.seed = seed + 1;
    pop = std::make_unique<EdgePopulation>(*gen, pc);
    ProfileSampler sampler(seed + 2);
    profiles = sampler.sample_fleet(6);
    proxy = pop->proxy_data_ex(300);
  }

  NebulaSystem make_system(NebulaConfig cfg = {}) {
    ZooOptions opts;
    opts.modules_per_layer = 3;
    opts.init_seed = 911;
    cfg.devices_per_round = 3;
    cfg.pretrain.epochs = 2;
    cfg.ability.finetune.epochs = 1;
    cfg.edge.epochs = 1;
    return NebulaSystem(
        make_modular(TaskModel::kResNet18, {3, 8, 8}, 10, opts), *pop,
        profiles, cfg);
  }
};

std::vector<float> cloud_snapshot(NebulaSystem& sys) {
  std::vector<float> snap = sys.cloud().shared_state();
  for (std::size_t l = 0; l < sys.cloud().num_module_layers(); ++l) {
    for (std::int64_t gid = 0; gid < sys.cloud().full_widths()[l]; ++gid) {
      const auto s = sys.cloud().module_state(l, gid);
      snap.insert(snap.end(), s.begin(), s.end());
    }
  }
  return snap;
}

// Exact equality on every deterministic RoundReport field. host_phases is
// measured host time and is deliberately excluded.
void expect_reports_identical(const RoundReport& a, const RoundReport& b) {
  EXPECT_EQ(a.round_index, b.round_index);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.straggled, b.straggled);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.probation, b.probation);
  EXPECT_EQ(a.rejected_structural, b.rejected_structural);
  EXPECT_EQ(a.rejected_norm, b.rejected_norm);
  EXPECT_EQ(a.rejected_robust, b.rejected_robust);
  EXPECT_EQ(a.robust_scores, b.robust_scores);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_EQ(a.staleness_weights, b.staleness_weights);
  EXPECT_EQ(a.device_wall_s, b.device_wall_s);
  EXPECT_EQ(a.device_train_s, b.device_train_s);
  EXPECT_EQ(a.device_comm_s, b.device_comm_s);
  EXPECT_EQ(a.goodput_bytes, b.goodput_bytes);
  EXPECT_EQ(a.overhead_bytes, b.overhead_bytes);
  EXPECT_EQ(a.attempted_bytes, b.attempted_bytes);
  EXPECT_EQ(a.routing_entropy, b.routing_entropy);
  EXPECT_EQ(a.routing_imbalance, b.routing_imbalance);
  EXPECT_EQ(a.wall_time_s, b.wall_time_s);
  EXPECT_EQ(a.aggregated, b.aggregated);
}

void expect_ledgers_identical(const CommLedger& a, const CommLedger& b) {
  EXPECT_EQ(a.download_bytes(), b.download_bytes());
  EXPECT_EQ(a.upload_bytes(), b.upload_bytes());
  EXPECT_EQ(a.overhead_bytes(), b.overhead_bytes());
  EXPECT_EQ(a.download_attempts(), b.download_attempts());
  EXPECT_EQ(a.upload_attempts(), b.upload_attempts());
  EXPECT_EQ(a.failed_attempts(), b.failed_attempts());
}

// Builds one system per pool size, runs `rounds` rounds on a serial pool and
// each multi-worker pool respectively, and asserts bit-identical outcomes.
// Templated over the world fixture so the MLP and conv fleets share the
// harness.
template <typename WorldT>
void expect_serial_parallel_identical_for(
    NebulaConfig cfg, const FaultConfig* faults, int rounds,
    const std::vector<std::size_t>& parallel_sizes) {
  // The whole equivalence suite runs with the flight recorder on: recording
  // must be bit-identity-neutral (DESIGN.md §14), so turning it on here both
  // pins that contract and exercises the feed path under every pool size.
  obs::recorder().set_enabled(true);
  obs::recorder().reset();
  WorldT ws;
  auto serial = ws.make_system(cfg);
  if (faults != nullptr) serial.inject_faults(*faults);
  // Offline runs under the (shared) default pool for every system.
  serial.offline(ws.proxy);
  std::vector<RoundReport> sr;
  with_pool(kSerialWorkers, [&] {
    for (int r = 0; r < rounds; ++r) sr.push_back(serial.round());
  });
  const std::vector<float> serial_snap = cloud_snapshot(serial);

  for (const std::size_t workers : parallel_sizes) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    WorldT wp;
    auto parallel = wp.make_system(cfg);
    if (faults != nullptr) parallel.inject_faults(*faults);
    parallel.offline(wp.proxy);
    std::vector<RoundReport> pr;
    with_pool(workers, [&] {
      for (int r = 0; r < rounds; ++r) pr.push_back(parallel.round());
    });

    ASSERT_EQ(sr.size(), pr.size());
    for (std::size_t r = 0; r < sr.size(); ++r) {
      SCOPED_TRACE("round " + std::to_string(r));
      expect_reports_identical(sr[r], pr[r]);
    }
    expect_ledgers_identical(serial.ledger(), parallel.ledger());
    expect_states_bitwise_equal(serial_snap, cloud_snapshot(parallel));
  }
}

void expect_serial_parallel_identical(NebulaConfig cfg,
                                      const FaultConfig* faults,
                                      int rounds = 3) {
  expect_serial_parallel_identical_for<World>(cfg, faults, rounds,
                                              {kParallelWorkers});
}

TEST(ParallelRound, ZeroFaultRoundsAreBitIdentical) {
  expect_serial_parallel_identical(NebulaConfig{}, nullptr);
}

TEST(ParallelRound, FaultyRoundsAreBitIdentical) {
  // Drops, corrupted uploads, flaky links and slow devices all at once: the
  // fault paths (retry accounting, quarantine, per-device ledger deltas)
  // must merge identically for any worker count.
  NebulaConfig cfg;
  cfg.fault_policy.max_transfer_attempts = 4;
  FaultConfig fc;
  fc.dropout_prob = 0.25;
  fc.corruption_prob = 0.3;
  fc.transfer_failure_prob = 0.3;
  fc.straggler_prob = 0.3;
  fc.seed = 4242;
  expect_serial_parallel_identical(cfg, &fc, /*rounds=*/4);
}

TEST(ParallelRound, StragglerDownWeightingIsBitIdentical) {
  // Everyone misses the deadline and is kept with a staleness weight — the
  // down-weighted aggregation path must also be order-stable.
  NebulaConfig cfg;
  cfg.fault_policy.round_deadline_s = 1e-9;
  cfg.fault_policy.staleness_factor = 0.25f;
  expect_serial_parallel_identical(cfg, nullptr);
}

TEST(ParallelRound, RobustAggregatorRoundsAreBitIdentical) {
  // The full robustness stack at once — trimmed-mean folding, the anomaly
  // gate, probation bookkeeping, a 30% sign-flip coalition, regional
  // outages, clock skew and ordinary dropout — must still merge identically
  // for any worker count (anomaly scores and probation counters are only
  // touched in the serial merge).
  NebulaConfig cfg;
  cfg.fault_policy.robust.kind = RobustAggregatorKind::kTrimmedMean;
  cfg.fault_policy.robust.anomaly_threshold = 4.0;
  cfg.fault_policy.probation_clean_rounds = 2;
  FaultConfig fc;
  fc.byzantine_fraction = 0.3;
  fc.byzantine_kind = ByzantineKind::kSignFlip;
  fc.num_devices = 10;
  fc.dropout_prob = 0.1;
  fc.regional_outage_prob = 0.1;
  fc.clock_skew_s = 0.5;
  fc.seed = 6006;
  expect_serial_parallel_identical(cfg, &fc, /*rounds=*/4);
}

TEST(ParallelRound, FedAvgRoundsAreBitIdentical) {
  obs::recorder().set_enabled(true);
  obs::recorder().reset();
  World w1, w2;
  FedAvgConfig cfg;
  cfg.devices_per_round = 4;
  TrainConfig pre;
  pre.epochs = 3;
  FaultConfig fc;
  fc.dropout_prob = 0.25;
  fc.corruption_prob = 0.25;
  fc.seed = 77;
  FaultInjector inj_a(fc), inj_b(fc);

  init::reseed(501);
  FedAvg serial(make_plain(TaskModel::kMlpHar, {32}, 6, 1.0), *w1.pop, cfg);
  serial.pretrain(w1.proxy.data, pre);
  serial.set_fault_injector(&inj_a);
  init::reseed(501);
  FedAvg parallel(make_plain(TaskModel::kMlpHar, {32}, 6, 1.0), *w2.pop, cfg);
  parallel.pretrain(w2.proxy.data, pre);
  parallel.set_fault_injector(&inj_b);

  std::vector<std::vector<std::int64_t>> sp, pp;
  with_pool(kSerialWorkers, [&] {
    for (int r = 0; r < 3; ++r) sp.push_back(serial.round());
  });
  with_pool(kParallelWorkers, [&] {
    for (int r = 0; r < 3; ++r) pp.push_back(parallel.round());
  });
  EXPECT_EQ(sp, pp);
  expect_states_bitwise_equal(get_state(serial.global()),
                              get_state(parallel.global()));
  expect_ledgers_identical(serial.ledger(), parallel.ledger());
}

TEST(ParallelRound, HeteroFLRoundsAreBitIdentical) {
  obs::recorder().set_enabled(true);
  obs::recorder().reset();
  World w1, w2;
  HeteroFLConfig cfg;
  cfg.devices_per_round = 4;
  TrainConfig pre;
  pre.epochs = 2;
  auto factory = [](double w) {
    return make_plain(TaskModel::kMlpHar, {32}, 6, w);
  };

  init::reseed(502);
  HeteroFL serial(factory, *w1.pop, w1.profiles, cfg);
  serial.pretrain(w1.proxy.data, pre);
  init::reseed(502);
  HeteroFL parallel(factory, *w2.pop, w2.profiles, cfg);
  parallel.pretrain(w2.proxy.data, pre);

  std::vector<std::vector<std::int64_t>> sp, pp;
  with_pool(kSerialWorkers, [&] {
    for (int r = 0; r < 3; ++r) sp.push_back(serial.round());
  });
  with_pool(kParallelWorkers, [&] {
    for (int r = 0; r < 3; ++r) pp.push_back(parallel.round());
  });
  EXPECT_EQ(sp, pp);
  expect_states_bitwise_equal(get_state(serial.global()),
                              get_state(parallel.global()));
  expect_ledgers_identical(serial.ledger(), parallel.ledger());
}

// ---- Conv models ---------------------------------------------------------
//
// ResNet18-style fleets across pool sizes {1, 2, 4, 7}: Conv2d::backward's
// dW/db reduction and BatchNorm::backward's batch-axis sums now go through
// ThreadPool::reduce_ordered, so conv rounds are covered by the same
// bit-identity contract as the MLP rounds above (DESIGN.md §11 — this suite
// used to exclude conv models).

const std::vector<std::size_t> kConvPoolSizes = {2, 4, 7};

TEST(ParallelRoundConv, NebulaRobustFaultyRoundsAreBitIdentical) {
  // The full stack at once — trimmed-mean folding, the anomaly gate,
  // probation bookkeeping, a sign-flip coalition, dropouts and corrupted
  // uploads — on a conv fleet, bit-identical for every pool size.
  NebulaConfig cfg;
  cfg.fault_policy.robust.kind = RobustAggregatorKind::kTrimmedMean;
  cfg.fault_policy.robust.anomaly_threshold = 4.0;
  cfg.fault_policy.probation_clean_rounds = 2;
  FaultConfig fc;
  fc.byzantine_fraction = 0.34;  // 2 of 6 devices
  fc.byzantine_kind = ByzantineKind::kSignFlip;
  fc.num_devices = 6;
  fc.dropout_prob = 0.15;
  fc.corruption_prob = 0.15;
  fc.seed = 909;
  expect_serial_parallel_identical_for<ConvWorld>(cfg, &fc, /*rounds=*/2,
                                                  kConvPoolSizes);
}

TEST(ParallelRoundConv, FedAvgRoundsAreBitIdentical) {
  obs::recorder().set_enabled(true);
  obs::recorder().reset();
  FedAvgConfig cfg;
  cfg.devices_per_round = 3;
  TrainConfig pre;
  pre.epochs = 2;
  FaultConfig fc;
  fc.dropout_prob = 0.2;
  fc.corruption_prob = 0.2;
  fc.seed = 78;

  auto run = [&](std::size_t workers) {
    ConvWorld w;
    FaultInjector inj(fc);
    init::reseed(503);
    FedAvg sys(make_plain(TaskModel::kResNet18, {3, 8, 8}, 10, 1.0), *w.pop,
               cfg);
    sys.pretrain(w.proxy.data, pre);
    sys.set_fault_injector(&inj);
    std::vector<std::vector<std::int64_t>> parts;
    with_pool(workers, [&] {
      for (int r = 0; r < 2; ++r) parts.push_back(sys.round());
    });
    return std::make_tuple(
        std::move(parts), get_state(sys.global()),
        std::make_tuple(sys.ledger().download_bytes(),
                        sys.ledger().upload_bytes(),
                        sys.ledger().overhead_bytes(),
                        sys.ledger().download_attempts(),
                        sys.ledger().upload_attempts(),
                        sys.ledger().failed_attempts()));
  };

  const auto serial = run(kSerialWorkers);
  for (const std::size_t workers : kConvPoolSizes) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    const auto parallel = run(workers);
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel));
    expect_states_bitwise_equal(std::get<1>(serial), std::get<1>(parallel));
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
  }
}

TEST(ParallelRoundConv, HeteroFLRoundsAreBitIdentical) {
  obs::recorder().set_enabled(true);
  obs::recorder().reset();
  HeteroFLConfig cfg;
  cfg.devices_per_round = 3;
  TrainConfig pre;
  pre.epochs = 2;
  FaultConfig fc;
  fc.dropout_prob = 0.2;
  fc.seed = 79;
  auto factory = [](double w) {
    return make_plain(TaskModel::kResNet18, {3, 8, 8}, 10, w);
  };

  auto run = [&](std::size_t workers) {
    ConvWorld w;
    FaultInjector inj(fc);
    init::reseed(504);
    HeteroFL sys(factory, *w.pop, w.profiles, cfg);
    sys.pretrain(w.proxy.data, pre);
    sys.set_fault_injector(&inj);
    std::vector<std::vector<std::int64_t>> parts;
    with_pool(workers, [&] {
      for (int r = 0; r < 2; ++r) parts.push_back(sys.round());
    });
    return std::make_pair(std::move(parts), get_state(sys.global()));
  };

  const auto serial = run(kSerialWorkers);
  for (const std::size_t workers : kConvPoolSizes) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    const auto parallel = run(workers);
    EXPECT_EQ(serial.first, parallel.first);
    expect_states_bitwise_equal(serial.second, parallel.second);
  }
}

TEST(ParallelRound, TrainSeedsDoNotCollideAcrossProtocolFamilies) {
  // The per-(round, device) stream families must stay disjoint: identical
  // coordinates under different salts must not yield the same seed.
  const std::uint64_t base = 123;
  std::vector<std::uint64_t> salts = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                                      0x07, 0x10, 0x11, 0x12, 0x13, 0x14,
                                      0x15};
  for (std::size_t i = 0; i < salts.size(); ++i) {
    for (std::size_t j = i + 1; j < salts.size(); ++j) {
      EXPECT_NE(derive_stream_seed(base, 0, 0, salts[i]),
                derive_stream_seed(base, 0, 0, salts[j]));
    }
  }
  // And within one family, distinct coordinates give distinct seeds.
  EXPECT_NE(derive_stream_seed(base, 0, 1, 0x10),
            derive_stream_seed(base, 1, 0, 0x10));
}

// ---- Exception contract of pool regions (DESIGN.md §8) ----------------------

const std::vector<std::size_t> kExceptionPoolSizes = {1, 2, 4, 7};

using Deadline = std::chrono::steady_clock::time_point;

Deadline ten_seconds_from_now() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(10);
}

// Bounded spin until `counter` reaches `target`: a barrier on arrivals, not a
// sleep. The deadline only keeps a broken pool from hanging the suite.
void wait_for(const std::atomic<std::size_t>& counter, std::size_t target,
              Deadline deadline = ten_seconds_from_now()) {
  while (counter.load() < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

// One region of pool.size() one-item chunks whose participants each hold
// their chunk until all have arrived, so every participant (caller included)
// runs exactly one chunk. Calls body(item) after the barrier and returns the
// worker index that ran each item.
template <typename F>
std::vector<std::size_t> run_one_chunk_each(ThreadPool& pool, const F& body) {
  std::atomic<std::size_t> arrived{0};
  const Deadline deadline = ten_seconds_from_now();
  std::vector<std::size_t> ran_on(pool.size(), pool.size());
  pool.parallel_for(0, pool.size(), [&](std::size_t i) {
    arrived.fetch_add(1);
    wait_for(arrived, pool.size(), deadline);
    ran_on[i] = ThreadPool::current_worker_index();
    body(i);
  });
  return ran_on;
}

// The message of the exception `region` rethrows, or "no throw".
template <typename F>
std::string rethrown_what(const F& region) {
  try {
    region();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no throw";
}

void expect_region_reaches_every_participant(ThreadPool& pool) {
  std::vector<std::size_t> ran_on =
      run_one_chunk_each(pool, [](std::size_t) {});
  std::sort(ran_on.begin(), ran_on.end());
  std::vector<std::size_t> all(pool.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_EQ(ran_on, all);
}

TEST(PoolExceptions, ThrowOnWorkerOrCallerIsRethrownOnCaller) {
  for (const std::size_t workers : kExceptionPoolSizes) {
    ThreadPool pool(workers);
    // Index 0 is the calling thread; the last index is a worker thread
    // whenever the pool has one.
    for (const std::size_t thrower : {std::size_t{0}, workers - 1}) {
      SCOPED_TRACE("pool size " + std::to_string(workers) + ", thrower " +
                   std::to_string(thrower));
      EXPECT_EQ(rethrown_what([&] {
                  run_one_chunk_each(pool, [&](std::size_t) {
                    if (ThreadPool::current_worker_index() == thrower) {
                      throw std::runtime_error("thrown on " +
                                               std::to_string(thrower));
                    }
                  });
                }),
                "thrown on " + std::to_string(thrower));
      EXPECT_EQ(ThreadPool::current_worker_index(), 0u);
      expect_region_reaches_every_participant(pool);
    }
  }
}

TEST(PoolExceptions, LowestThrowingIterationIsRethrownForEveryPoolSize) {
  for (const std::size_t workers : kExceptionPoolSizes) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    ThreadPool pool(workers);
    EXPECT_EQ(rethrown_what([&] {
                pool.parallel_for(0, 100, [](std::size_t i) {
                  if (i == 13 || i == 57 || i == 90) {
                    throw std::runtime_error(std::to_string(i));
                  }
                });
              }),
              "13");
    if (workers < 3) continue;
    // Items 1..n-1 throw concurrently, one per participant. The lowest one
    // wins whether it throws last or first.
    std::atomic<std::size_t> others_thrown{0};
    EXPECT_EQ(rethrown_what([&] {
                run_one_chunk_each(pool, [&](std::size_t i) {
                  if (i == 0) return;
                  if (i == 1) wait_for(others_thrown, workers - 2);
                  if (i > 1) others_thrown.fetch_add(1);
                  throw std::runtime_error(std::to_string(i));
                });
              }),
              "1");
    std::atomic<std::size_t> lowest_thrown{0};
    EXPECT_EQ(rethrown_what([&] {
                run_one_chunk_each(pool, [&](std::size_t i) {
                  if (i == 0) return;
                  if (i == 1) {
                    lowest_thrown.store(1);
                  } else {
                    wait_for(lowest_thrown, 1);
                  }
                  throw std::runtime_error(std::to_string(i));
                });
              }),
              "1");
    expect_region_reaches_every_participant(pool);
  }
}

TEST(PoolExceptions, ThrowingReduceBodySkipsMergeAndLeavesArenaUsable) {
  for (const std::size_t workers : kExceptionPoolSizes) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    ThreadPool pool(workers);
    bool merged = false;
    EXPECT_EQ(rethrown_what([&] {
                pool.reduce_ordered(
                    0, 64, 4,
                    [](std::size_t lo, std::size_t hi, float* acc) {
                      if (lo <= 40 && 40 < hi) {
                        throw std::runtime_error("reduce body");
                      }
                      acc[0] += static_cast<float>(hi - lo);
                    },
                    [&](const float*) { merged = true; });
              }),
              "reduce body");
    EXPECT_FALSE(merged);
    // The arena lease was released on unwind: the next reduction on the
    // same pool starts from zeroed slots and sums exactly.
    float total = -1.0f;
    pool.reduce_ordered(
        0, 64, 4,
        [](std::size_t lo, std::size_t hi, float* acc) {
          for (std::size_t i = lo; i < hi; ++i) acc[i % 4] += 1.0f;
        },
        [&](const float* sum) { total = sum[0] + sum[1] + sum[2] + sum[3]; });
    EXPECT_EQ(total, 64.0f);
    expect_region_reaches_every_participant(pool);
  }
}

TEST(PoolExceptions, NestedInlineThrowPropagatesThroughOuterRegion) {
  for (const std::size_t workers : kExceptionPoolSizes) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    ThreadPool pool(workers);
    EXPECT_EQ(rethrown_what([&] {
                pool.parallel_for(0, 8, [&](std::size_t i) {
                  pool.parallel_for(0, 4, [&](std::size_t j) {
                    if (i == 5 && j == 2) {
                      throw std::runtime_error("nested 5/2");
                    }
                  });
                });
              }),
              "nested 5/2");
    expect_region_reaches_every_participant(pool);
  }
}

// -----------------------------------------------------------------------------

std::int64_t selector_forwards() {
  return obs::counter("selector.forwards").value();
}

TEST(GateMemo, ThreadsSharingOneSelectorKeepTheirOwnTables) {
  ZooOptions opts;
  opts.modules_per_layer = 32;
  opts.init_seed = 515;
  ZooModel zm = make_modular(TaskModel::kMlpHar, {32}, 6, opts);
  ModuleSelector& sel = *zm.selector;
  Rng rng(77);
  std::vector<Tensor> inputs;
  std::vector<std::vector<Tensor>> want;
  for (std::int64_t t = 0; t < 2; ++t) {
    Tensor x({40 + t, sel.input_dim()});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[static_cast<std::size_t>(i)] = rng.normal();
    }
    want.push_back(sel.forward(x, /*train=*/false).probs);
    inputs.push_back(std::move(x));
  }
  std::vector<int> mismatches(2, 0);
  std::atomic<std::size_t> calls{0};
  const std::int64_t before = selector_forwards();
  with_pool(2, [&] {
    // Each participant of a two-thread region works on its own input, the
    // two in lockstep: a memo shared between them would miss every step.
    run_one_chunk_each(ThreadPool::global(), [&](std::size_t t) {
      for (std::size_t iter = 0; iter < 20; ++iter) {
        calls.fetch_add(1);
        wait_for(calls, 2 * (iter + 1));
        const auto table = sel.gate_table(inputs[t]);
        for (std::size_t l = 0; l < table->size(); ++l) {
          const Tensor& got = (*table)[l];
          if (got.numel() != want[t][l].numel() ||
              std::memcmp(got.data(), want[t][l].data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)) != 0) {
            ++mismatches[t];
          }
        }
      }
    });
  });
  EXPECT_EQ(mismatches, std::vector<int>(2, 0));
  // One entry per thread: each thread computes its table once, however the
  // two interleave.
  EXPECT_EQ(selector_forwards() - before, 2);
}

// Selector forwards `fn` runs on a fresh thread, whose gate memo is empty.
template <typename Fn>
std::int64_t forwards_on_fresh_thread(Fn&& fn) {
  std::int64_t delta = 0;
  std::thread t([&] {
    const std::int64_t before = selector_forwards();
    fn();
    delta = selector_forwards() - before;
  });
  t.join();
  return delta;
}

// The traced round benchmark replays a round's legs through public calls
// and requires the replay's time to close on the round's, so the round must
// not skip selector work that the replay cannot: one fault-free round and
// the replay of its legs (device_importance, train_modular,
// device_importance) run the same number of selector forwards.
TEST(GateMemo, RoundAndPublicCallReplayRunTheSameSelectorForwards) {
  World w;
  ZooOptions opts;
  opts.modules_per_layer = 32;  // batch-16 selector GEMMs run blocked
  opts.init_seed = 909;
  NebulaConfig cfg;
  cfg.devices_per_round = 4;
  cfg.pretrain.epochs = 1;
  NebulaSystem sys(make_modular(TaskModel::kMlpHar, {32}, 6, opts), *w.pop,
                   w.profiles, cfg);
  sys.offline(w.proxy);
  RoundReport rep;
  std::int64_t round_forwards = 0, replay_forwards = 0;
  with_pool(kSerialWorkers, [&] {
    round_forwards = forwards_on_fresh_thread([&] { rep = sys.round(); });
    replay_forwards = forwards_on_fresh_thread([&] {
      for (std::int64_t k : rep.participants) {
        DerivationRequest req;
        req.importance = sys.device_importance(k);
        req.budgets =
            sys.derivation().budget_fraction(sys.budget_fraction_for(k));
        auto sub = sys.build_submodel(sys.derivation().derive(req).spec);
        train_modular(*sub, sys.selector(), w.pop->local_data(k),
                      sys.edge_config());
        sys.device_importance(k);
      }
    });
  });
  ASSERT_EQ(rep.completed.size(), rep.participants.size());
  EXPECT_GT(round_forwards, 0);
  EXPECT_EQ(replay_forwards, round_forwards);
}

}  // namespace
}  // namespace nebula
