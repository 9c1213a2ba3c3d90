// Regression pin for traffic accounting: across faulty rounds, every byte a
// transfer attempt put on the wire lands in exactly one CommLedger column —
// goodput + overhead == total attempted bytes. The round protocol asserts
// this internally per round (two independent accumulation paths); these
// tests pin it end-to-end across whole runs, via the public report fields.
#include <gtest/gtest.h>

#include "core/nebula.h"
#include "sim/faults.h"

namespace nebula {
namespace {

struct SmallWorld {
  std::unique_ptr<SyntheticGenerator> gen;
  std::unique_ptr<EdgePopulation> pop;
  std::vector<DeviceProfile> profiles;
  SyntheticData proxy;

  explicit SmallWorld(std::uint64_t seed = 170) {
    auto spec = har_like_spec();
    gen = std::make_unique<SyntheticGenerator>(spec, seed);
    PartitionConfig pc;
    pc.num_devices = 10;
    pc.clusters_per_device = 2;
    pc.seed = seed + 1;
    pop = std::make_unique<EdgePopulation>(*gen, pc);
    ProfileSampler sampler(seed + 2);
    profiles = sampler.sample_fleet(10);
    proxy = pop->proxy_data_ex(600);
  }

  NebulaSystem make_system(NebulaConfig cfg = {}) {
    ZooOptions opts;
    opts.modules_per_layer = 6;
    opts.init_seed = 911;
    cfg.devices_per_round = 4;
    cfg.pretrain.epochs = 2;
    return NebulaSystem(make_modular(TaskModel::kMlpHar, {32}, 6, opts), *pop,
                        profiles, cfg);
  }
};

TEST(LedgerConservation, FaultyRoundsConserveAttemptedBytes) {
  SmallWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);

  FaultConfig fc;
  fc.dropout_prob = 0.15;
  fc.transfer_failure_prob = 0.3;  // force retries and abandoned transfers
  fc.degraded_link_prob = 0.2;
  fc.seed = 1234;
  sys.inject_faults(fc);

  std::int64_t attempted = 0, goodput = 0, overhead = 0, retries = 0;
  for (int r = 0; r < 4; ++r) {
    const RoundReport rep = sys.round();
    // Per-round conservation via the two independent accumulation paths.
    EXPECT_EQ(rep.attempted_bytes, rep.goodput_bytes + rep.overhead_bytes)
        << "round " << rep.round_index;
    attempted += rep.attempted_bytes;
    goodput += rep.goodput_bytes;
    overhead += rep.overhead_bytes;
    retries += rep.transfer_retries;
  }

  // The rounds were the only traffic, so the per-round deltas must tile the
  // ledger totals exactly.
  const CommLedger& ledger = sys.ledger();
  EXPECT_EQ(goodput, ledger.total_bytes());
  EXPECT_EQ(overhead, ledger.overhead_bytes());
  EXPECT_EQ(attempted, ledger.attempted_bytes());
  EXPECT_EQ(ledger.attempted_bytes(),
            ledger.total_bytes() + ledger.overhead_bytes());

  // At 30% per-attempt failure across 4 rounds something must have failed;
  // the schedule is seeded, so this is a deterministic pin, not a flake.
  EXPECT_GT(retries, 0);
  EXPECT_GT(overhead, 0);
}

TEST(LedgerConservation, CleanRoundsHaveZeroOverhead) {
  SmallWorld world;
  auto sys = world.make_system();
  sys.offline(world.proxy);

  std::int64_t attempted = 0;
  for (int r = 0; r < 2; ++r) {
    const RoundReport rep = sys.round();
    EXPECT_EQ(rep.overhead_bytes, 0);
    EXPECT_EQ(rep.attempted_bytes, rep.goodput_bytes);
    EXPECT_EQ(rep.transfer_retries, 0);
    attempted += rep.attempted_bytes;
  }
  EXPECT_EQ(sys.ledger().overhead_bytes(), 0);
  EXPECT_EQ(sys.ledger().attempted_bytes(), attempted);
  EXPECT_GT(attempted, 0);
}

}  // namespace
}  // namespace nebula
