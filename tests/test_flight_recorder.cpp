// Flight-recorder suite (ctest label `obs`): time-series ring + digests,
// per-device timelines, health monitors, the inspection endpoint, and the
// two contracts the rest of the repo leans on —
//   * recording neutrality: enabling the recorder changes no simulation
//     output (reports, cloud state, RNG streams);
//   * onset detection: the monitors timestamp a delayed byzantine attack /
//     environment shift at (or within a round of) the injected onset.
//
// Lives in its own binary so it can toggle the process-wide recorder and
// spawn endpoint threads freely; runs under TSan via
//   cmake -B build-tsan -S . -DNEBULA_TSAN=ON && ctest --test-dir build-tsan -L obs
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "core/model_zoo.h"
#include "core/nebula.h"
#include "eval/experiments.h"
#include "nn/init.h"
#include "obs/endpoint.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/faults.h"

namespace nebula {
namespace {

using obs::Alert;
using obs::FlightRecorder;
using obs::HealthMonitor;
using obs::MonitorConfig;
using obs::QuantileDigest;
using obs::RoundSample;
using obs::TimelineKind;
using obs::TimelineStore;
using obs::TimeSeriesRing;

// Every test that touches the process-wide recorder goes through this guard:
// fresh state on entry, disabled on exit, so tests stay order-independent.
struct RecorderGuard {
  RecorderGuard() {
    obs::recorder().set_enabled(true);
    obs::recorder().reset();
  }
  ~RecorderGuard() {
    obs::recorder().reset();
    obs::recorder().set_enabled(false);
  }
};

// ---- quantiles --------------------------------------------------------------

TEST(QuantileFromCounts, InterpolatesWithinBuckets) {
  // Buckets (0,1], (1,2], (2,4], overflow. 10 samples uniform in (0,1].
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<std::int64_t> counts = {10, 0, 0, 0};
  EXPECT_NEAR(obs::quantile_from_counts(bounds, counts, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(obs::quantile_from_counts(bounds, counts, 1.0), 1.0, 1e-12);
  // First bucket interpolates from `lo`, not 0, when given.
  EXPECT_NEAR(obs::quantile_from_counts(bounds, counts, 0.5, 0.5), 0.75,
              1e-12);
}

TEST(QuantileFromCounts, OverflowClampsToLastBound) {
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<std::int64_t> counts = {0, 0, 5};  // all in overflow
  EXPECT_EQ(obs::quantile_from_counts(bounds, counts, 0.99), 2.0);
}

TEST(QuantileFromCounts, EmptyReturnsZero) {
  EXPECT_EQ(obs::quantile_from_counts({1.0}, {0, 0}, 0.5), 0.0);
}

TEST(QuantileDigest, TracksDistributionWithinBucketError) {
  QuantileDigest d(/*lo=*/1e-3, /*factor=*/1.3, /*n=*/40);
  for (int i = 1; i <= 1000; ++i) d.observe(i * 1e-3);  // 1ms..1s uniform
  EXPECT_EQ(d.count(), 1000);
  EXPECT_NEAR(d.sum(), 500.5, 1e-6);
  EXPECT_NEAR(d.min(), 1e-3, 1e-9);
  EXPECT_NEAR(d.max(), 1.0, 1e-9);
  // Log-spaced buckets with factor 1.3: relative error <= 30%.
  EXPECT_NEAR(d.quantile(0.5), 0.5, 0.5 * 0.3);
  EXPECT_NEAR(d.quantile(0.95), 0.95, 0.95 * 0.3);
  d.reset();
  EXPECT_EQ(d.count(), 0);
  EXPECT_EQ(d.quantile(0.5), 0.0);
}

TEST(QuantileDigest, IgnoresNonFinite) {
  QuantileDigest d;
  d.observe(std::numeric_limits<double>::quiet_NaN());
  d.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(d.count(), 0);
}

TEST(HistogramQuantiles, MatchCountsAndAppearInJson) {
  auto& h = obs::histogram("obs_test.latency", {0.1, 1.0, 10.0});
  for (int i = 0; i < 90; ++i) h.observe(0.05);  // first bucket
  for (int i = 0; i < 10; ++i) h.observe(5.0);   // third bucket
  // p50 lands mid-first-bucket, p95 inside (1, 10].
  EXPECT_NEAR(h.quantile(0.5), 0.1 * 50.0 / 90.0, 1e-9);
  EXPECT_GT(h.quantile(0.95), 1.0);
  EXPECT_LE(h.quantile(0.95), 10.0);
  std::ostringstream os;
  obs::MetricsRegistry::instance().write_json(os);
  EXPECT_NE(os.str().find("\"quantiles\""), std::string::npos);
  EXPECT_NE(os.str().find("\"p99\""), std::string::npos);
}

// ---- time-series ring -------------------------------------------------------

TEST(TimeSeriesRing, EvictsOldestAtCapacity) {
  TimeSeriesRing ring(4);
  for (int r = 0; r < 10; ++r) {
    RoundSample s;
    s.round = r;
    s.participants = r + 1;
    ring.push(s);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_pushed(), 10);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().round, 6);
  EXPECT_EQ(snap.back().round, 9);
}

TEST(TimeSeriesRing, AnnotatesAccuracyOnRetainedRound) {
  TimeSeriesRing ring(8);
  for (int r = 0; r < 3; ++r) {
    RoundSample s;
    s.round = r;
    ring.push(s);
  }
  ring.annotate_accuracy(1, 0.9);
  const auto snap = ring.snapshot();
  EXPECT_EQ(snap[0].accuracy, -1.0);
  EXPECT_EQ(snap[1].accuracy, 0.9);
  // Evicted/unknown rounds are ignored, not an error.
  ring.annotate_accuracy(99, 0.5);
}

// ---- timeline store ---------------------------------------------------------

TEST(TimelineStore, RingBoundsPerDeviceAndCountsDrops) {
  TimelineStore store(/*per_device_cap=*/4);
  for (int i = 0; i < 6; ++i) {
    store.record(i, /*device=*/7, TimelineKind::kSelected);
  }
  store.record(0, /*device=*/3, TimelineKind::kChurned, "population");
  EXPECT_EQ(store.total_recorded(), 7);
  EXPECT_EQ(store.dropped(), 2);
  const auto evs = store.events_for(7);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().round, 2);  // oldest two evicted
  EXPECT_EQ(store.devices(), (std::vector<int>{3, 7}));
  EXPECT_TRUE(store.events_for(99).empty());
}

TEST(TimelineStore, JsonlIsOneValidLinePerEventInSeqOrder) {
  TimelineStore store;
  store.record(0, 1, TimelineKind::kSelected);
  store.record(0, 2, TimelineKind::kRejected, "nebula", 0.0, "norm_explosion");
  store.record(1, 1, TimelineKind::kCompleted);
  std::ostringstream os;
  store.write_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  int n = 0;
  std::int64_t last_seq = -1;
  while (std::getline(is, line)) {
    EXPECT_NE(line.find("\"type\":\"timeline\""), std::string::npos) << line;
    const auto pos = line.find("\"seq\":");
    ASSERT_NE(pos, std::string::npos);
    const std::int64_t seq = std::atoll(line.c_str() + pos + 6);
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
    ++n;
  }
  EXPECT_EQ(n, 3);
  std::ostringstream idx;
  store.write_index_json(idx);
  EXPECT_NE(idx.str().find("\"total_recorded\":3"), std::string::npos);
}

// ---- health monitors --------------------------------------------------------

TEST(HealthMonitor, SpikeFiresOnStepChangeAfterWarmup) {
  MonitorConfig cfg;
  cfg.warmup = 3;
  cfg.spike_min_dev = 0.1;
  HealthMonitor mon("sig", cfg);
  for (int r = 0; r < 6; ++r) {
    EXPECT_FALSE(mon.update(r, 0.0).has_value()) << "round " << r;
  }
  const auto alert = mon.update(6, 0.5);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->monitor, "sig");
  EXPECT_EQ(alert->reason, "spike");
  EXPECT_EQ(alert->round, 6);
  EXPECT_NEAR(alert->value, 0.5, 1e-12);
  EXPECT_NEAR(alert->baseline, 0.0, 1e-9);
}

TEST(HealthMonitor, WarmupBlocksEarlyAlerts) {
  MonitorConfig cfg;
  cfg.warmup = 5;
  HealthMonitor mon("sig", cfg);
  EXPECT_FALSE(mon.update(0, 0.0).has_value());
  // A huge step at round 2 is still inside the warmup window.
  EXPECT_FALSE(mon.update(1, 0.0).has_value());
  EXPECT_FALSE(mon.update(2, 100.0).has_value());
}

TEST(HealthMonitor, CooldownSuppressesRepeatFiring) {
  MonitorConfig cfg;
  cfg.warmup = 3;
  cfg.cooldown = 5;
  cfg.spike_min_dev = 0.1;
  HealthMonitor mon("sig", cfg);
  for (int r = 0; r < 5; ++r) mon.update(r, 0.0);
  ASSERT_TRUE(mon.update(5, 1.0).has_value());
  // Sustained anomaly inside the cooldown window stays quiet.
  for (int r = 6; r <= 10; ++r) {
    EXPECT_FALSE(mon.update(r, 1.0).has_value()) << "round " << r;
  }
}

TEST(HealthMonitor, PageHinkleyCatchesSlowDownwardDrift) {
  MonitorConfig cfg;
  cfg.warmup = 3;
  cfg.detect_up = false;
  cfg.detect_down = true;
  cfg.spike_min_dev = 10.0;  // spike path effectively off
  cfg.ph_delta = 0.001;
  cfg.ph_lambda = 0.05;
  HealthMonitor mon("acc", cfg);
  bool fired = false;
  double v = 0.95;
  for (int r = 0; r < 40 && !fired; ++r) {
    if (r >= 10) v -= 0.005;  // slow ramp no single step of which spikes
    const auto alert = mon.update(r, v);
    if (alert.has_value()) {
      fired = true;
      EXPECT_EQ(alert->reason, "drift_down");
      EXPECT_GT(alert->round, 10);
    }
  }
  EXPECT_TRUE(fired);
}

TEST(HealthMonitor, ResetRearmsFromScratch) {
  MonitorConfig cfg;
  cfg.warmup = 2;
  HealthMonitor mon("sig", cfg);
  for (int r = 0; r < 4; ++r) mon.update(r, 0.0);
  mon.reset();
  EXPECT_EQ(mon.samples(), 0);
  // Back inside warmup: the same step that would have fired stays quiet.
  EXPECT_FALSE(mon.update(0, 5.0).has_value());
}

// ---- recorder ---------------------------------------------------------------

RoundSample quiet_sample(std::int64_t round) {
  RoundSample s;
  s.round = round;
  s.participants = 4;
  s.completed = 4;
  s.routing_entropy = 0.9;
  s.rejection_rate = 0.0;
  s.aggregated = true;
  s.wall_time_s = 0.5;
  return s;
}

TEST(FlightRecorderTest, ObserveRoundFeedsRingDigestsAndMonitors) {
  RecorderGuard guard;
  FlightRecorder& rec = obs::recorder();
  for (int r = 0; r < 6; ++r) {
    rec.observe_round(quiet_sample(r), {0.1, 0.2}, {0.01, 0.02}, {},
                      {0.5, 1.0});
  }
  EXPECT_EQ(rec.timeseries().size(), 6u);
  EXPECT_GT(rec.digest_quantile("train", 0.5), 0.0);
  EXPECT_GT(rec.digest_quantile("comm", 0.5), 0.0);
  EXPECT_GT(rec.digest_quantile("staleness", 0.99), 0.0);
  EXPECT_EQ(rec.digest_quantile("robust_score", 0.5), 0.0);  // never fed
  EXPECT_TRUE(rec.alerts().empty());

  // A rejection-rate step change after the quiet baseline raises an alert.
  RoundSample bad = quiet_sample(6);
  bad.rejected = 2;
  bad.completed = 2;
  bad.rejection_rate = 0.5;
  rec.observe_round(bad, {0.1}, {0.01}, {}, {});
  const auto alerts = rec.alerts_for(obs::kMonRejectionRate);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].round, 6);
  EXPECT_EQ(alerts[0].reason, "spike");
}

TEST(FlightRecorderTest, DisabledFeedsAreNoOps) {
  RecorderGuard guard;
  FlightRecorder& rec = obs::recorder();
  rec.set_enabled(false);
  rec.observe_round(quiet_sample(0), {0.1}, {0.01}, {}, {});
  rec.record_device_event(0, 1, TimelineKind::kSelected);
  rec.observe_accuracy(0, 0.9);
  rec.observe_metric("custom", 0, 1.0);
  rec.set_enabled(true);
  EXPECT_EQ(rec.timeseries().size(), 0u);
  EXPECT_EQ(rec.timeline().total_recorded(), 0);
  EXPECT_TRUE(rec.alerts().empty());
}

TEST(FlightRecorderTest, ObserveMetricCreatesMonitorOnFirstUse) {
  RecorderGuard guard;
  FlightRecorder& rec = obs::recorder();
  for (int r = 0; r < 6; ++r) rec.observe_metric("queue_depth", r, 0.0);
  rec.observe_metric("queue_depth", 6, 3.0);
  const auto alerts = rec.alerts_for("queue_depth");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].round, 6);
}

TEST(FlightRecorderTest, ResetClearsStateButKeepsEnablement) {
  RecorderGuard guard;
  FlightRecorder& rec = obs::recorder();
  rec.observe_round(quiet_sample(0), {0.1}, {0.01}, {}, {});
  rec.record_device_event(0, 1, TimelineKind::kSelected);
  rec.reset();
  EXPECT_TRUE(rec.enabled());
  EXPECT_EQ(rec.timeseries().size(), 0u);
  EXPECT_EQ(rec.timeline().total_recorded(), 0);
  EXPECT_EQ(rec.digest_quantile("train", 0.5), 0.0);
}

TEST(FlightRecorderTest, WriteJsonlEmitsTimelineThenAlerts) {
  RecorderGuard guard;
  FlightRecorder& rec = obs::recorder();
  rec.record_device_event(0, 1, TimelineKind::kSelected);
  for (int r = 0; r < 6; ++r) rec.observe_metric("sig", r, 0.0);
  rec.observe_metric("sig", 6, 2.0);
  std::ostringstream os;
  rec.write_jsonl(os);
  const std::string out = os.str();
  const auto tl = out.find("\"type\":\"timeline\"");
  const auto al = out.find("\"type\":\"alert\"");
  ASSERT_NE(tl, std::string::npos);
  ASSERT_NE(al, std::string::npos);
  EXPECT_LT(tl, al);
  EXPECT_NE(out.find("\"reason\":\"spike\""), std::string::npos);
}

// ---- recording neutrality ---------------------------------------------------

// Mirrors the SmallWorld fixture (test_round_parallel.cpp): a 10-device
// HAR-like MLP fleet, deterministic under any pool size.
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

void expect_reports_identical(const RoundReport& a, const RoundReport& b) {
  EXPECT_EQ(a.round_index, b.round_index);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.robust_scores, b.robust_scores);
  EXPECT_EQ(a.staleness_weights, b.staleness_weights);
  EXPECT_EQ(a.device_wall_s, b.device_wall_s);
  EXPECT_EQ(a.device_train_s, b.device_train_s);
  EXPECT_EQ(a.device_comm_s, b.device_comm_s);
  EXPECT_EQ(a.goodput_bytes, b.goodput_bytes);
  EXPECT_EQ(a.routing_entropy, b.routing_entropy);
  EXPECT_EQ(a.wall_time_s, b.wall_time_s);
  EXPECT_EQ(a.aggregated, b.aggregated);
}

TEST(RecordingNeutrality, EnablingTheRecorderChangesNoSimulationOutput) {
  // Same seeds, same fault schedule; run A records, run B does not. Every
  // deterministic output must match bit for bit (DESIGN.md §14).
  FaultConfig fc;
  fc.dropout_prob = 0.2;
  fc.transfer_failure_prob = 0.2;
  fc.corruption_prob = 0.15;
  fc.seed = 41;
  FaultInjector inj_a(fc), inj_b(fc);

  obs::recorder().set_enabled(true);
  obs::recorder().reset();
  World w1;
  init::reseed(700);
  NebulaSystem on = w1.make_system();
  on.offline(w1.proxy);
  on.inject_faults(fc);
  std::vector<RoundReport> on_reports;
  for (int r = 0; r < 4; ++r) on_reports.push_back(on.round());
  // Recording actually happened.
  EXPECT_EQ(obs::recorder().timeseries().size(), 4u);
  EXPECT_GT(obs::recorder().timeline().total_recorded(), 0);
  const std::vector<float> on_cloud = cloud_snapshot(on);

  obs::recorder().set_enabled(false);
  obs::recorder().reset();
  World w2;
  init::reseed(700);
  NebulaSystem off = w2.make_system();
  off.offline(w2.proxy);
  off.inject_faults(fc);
  std::vector<RoundReport> off_reports;
  for (int r = 0; r < 4; ++r) off_reports.push_back(off.round());
  EXPECT_EQ(obs::recorder().timeseries().size(), 0u);
  const std::vector<float> off_cloud = cloud_snapshot(off);

  for (int r = 0; r < 4; ++r) {
    expect_reports_identical(on_reports[r], off_reports[r]);
  }
  ASSERT_EQ(on_cloud.size(), off_cloud.size());
  EXPECT_EQ(std::memcmp(on_cloud.data(), off_cloud.data(),
                        on_cloud.size() * sizeof(float)),
            0);
}

TEST(RecorderIntegration, RoundFeedPopulatesTimelineAndSummaryPercentiles) {
  RecorderGuard guard;
  World w;
  init::reseed(701);
  NebulaSystem sys = w.make_system();
  sys.offline(w.proxy);
  FaultConfig fc;
  fc.dropout_prob = 0.3;
  fc.transfer_failure_prob = 0.2;
  fc.seed = 43;
  sys.inject_faults(fc);
  RoundReport rep;
  for (int r = 0; r < 3; ++r) rep = sys.round();
  // The summary satellite: per-device latency percentiles inline.
  EXPECT_NE(rep.summary().find("dev p50"), std::string::npos);

  FlightRecorder& rec = obs::recorder();
  EXPECT_EQ(rec.timeseries().size(), 3u);
  EXPECT_GT(rec.timeline().total_recorded(), 0);
  // Every participant of the last round has a selected event retained.
  for (std::int64_t dev : rep.participants) {
    const auto evs = rec.timeline().events_for(static_cast<int>(dev));
    bool selected = false;
    for (const auto& e : evs) {
      selected = selected || (e.kind == TimelineKind::kSelected &&
                              e.round == rep.round_index);
    }
    EXPECT_TRUE(selected) << "device " << dev;
  }
  EXPECT_GT(rec.digest_quantile("train", 0.95), 0.0);
}

// ---- endpoint ---------------------------------------------------------------

TEST(Endpoint, RoutesServeJsonWithoutSockets) {
  RecorderGuard guard;
  FlightRecorder& rec = obs::recorder();
  rec.observe_round(quiet_sample(0), {0.1}, {0.01}, {}, {});
  rec.record_device_event(0, 3, TimelineKind::kSelected);

  auto metrics = obs::ObsEndpoint::handle_request("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\"schema\":1"), std::string::npos);

  auto series = obs::ObsEndpoint::handle_request("/timeseries");
  EXPECT_EQ(series.status, 200);
  EXPECT_NE(series.body.find("\"samples\""), std::string::npos);

  auto health = obs::ObsEndpoint::handle_request("/health");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"monitors\""), std::string::npos);
  EXPECT_NE(health.body.find("\"digests\""), std::string::npos);

  auto devices = obs::ObsEndpoint::handle_request("/devices");
  EXPECT_EQ(devices.status, 200);
  EXPECT_NE(devices.body.find("\"devices\""), std::string::npos);

  auto device = obs::ObsEndpoint::handle_request("/devices/3");
  EXPECT_EQ(device.status, 200);
  EXPECT_NE(device.body.find("\"selected\""), std::string::npos);

  EXPECT_EQ(obs::ObsEndpoint::handle_request("/devices/zzz").status, 404);
  auto missing = obs::ObsEndpoint::handle_request("/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("\"error\""), std::string::npos);
}

TEST(Endpoint, ServesHealthOverALiveSocket) {
  RecorderGuard guard;
  FlightRecorder& rec = obs::recorder();
  rec.observe_round(quiet_sample(0), {0.1}, {0.01}, {}, {});
  const int port = rec.start_endpoint(0);
  ASSERT_GT(port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char req[] = "GET /health HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, req, sizeof(req) - 1, 0),
            static_cast<ssize_t>(sizeof(req) - 1));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  rec.stop_endpoint();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"monitors\""), std::string::npos);
}

TEST(Endpoint, ConcurrentSnapshotsWhileRoundFeedWrites) {
  // The exact interleaving the TSan obs run pins: endpoint-style readers
  // racing the serial round feed. Readers go through handle_request (the
  // full lock paths) while the main thread keeps feeding.
  RecorderGuard guard;
  FlightRecorder& rec = obs::recorder();
  std::atomic<int> readers_done{0};
  std::atomic<int> reads{0};
  // Fixed read count per thread (not run-until-stop): under a loaded
  // machine the writer could otherwise finish before a reader ever runs,
  // leaving the race window unexercised.
  auto reader = [&readers_done, &reads] {
    const char* paths[] = {"/timeseries", "/devices", "/health", "/metrics",
                           "/devices/1"};
    for (int i = 0; i < 250; ++i) {
      auto resp = obs::ObsEndpoint::handle_request(paths[i % 5]);
      if (resp.status == 200) reads.fetch_add(1, std::memory_order_relaxed);
    }
    readers_done.fetch_add(1, std::memory_order_relaxed);
  };
  std::thread t1(reader), t2(reader);
  std::int64_t rounds_fed = 0;
  while (rounds_fed < 400 ||
         readers_done.load(std::memory_order_relaxed) < 2) {
    const std::int64_t r = rounds_fed++;
    rec.observe_round(quiet_sample(r), {0.1, 0.2}, {0.01, 0.02}, {1.0, 1.1},
                      {0.5});
    for (int d = 0; d < 4; ++d) {
      rec.record_device_event(r, d, TimelineKind::kSelected);
    }
    rec.observe_accuracy(r, 0.9);
  }
  t1.join();
  t2.join();
  EXPECT_EQ(reads.load(), 500);
  EXPECT_EQ(rec.timeline().total_recorded(), rounds_fed * 4);
}

// ---- tracer cap -------------------------------------------------------------

TEST(TracerCap, BoundsPerThreadBufferAndCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::size_t default_cap = tracer.thread_buffer_cap();
  const std::size_t dropped_before = tracer.dropped();
  const std::int64_t counter_before = obs::counter("trace.dropped").value();
  tracer.clear();
  tracer.set_thread_buffer_cap(8);
  for (int i = 0; i < 20; ++i) {
    tracer.emit("obs_test.span", static_cast<std::uint64_t>(i),
                static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(tracer.snapshot().size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  EXPECT_EQ(obs::counter("trace.dropped").value(), counter_before + 12);
  tracer.set_thread_buffer_cap(default_cap);
  tracer.clear();
  (void)dropped_before;
}

// ---- onset detection through the experiment harness -------------------------

BenchScale tiny_scale() {
  BenchScale s;
  s.devices = 12;
  s.devices_per_round = 6;
  s.warm_rounds = 5;  // 10 rounds per run: 5 clean, onset at 5
  s.eval_devices = 2;
  s.test_samples = 32;
  s.pretrain_epochs = 2;
  return s;
}

TEST(OnsetDetection, ByzantineAttackAlertsAtInjectedOnsetRound) {
  RecorderGuard guard;
  const BenchScale scale = tiny_scale();
  TaskSpec spec = task_by_name("HAR", "1 subject");
  TaskEnv env = make_task_env(spec, scale, /*seed=*/5100);
  ScenarioSpec scenario;
  scenario.faults.byzantine_fraction = 0.5;
  scenario.faults.byzantine_kind = ByzantineKind::kSignFlip;
  scenario.faults.num_devices = scale.devices;
  scenario.faults.seed = 5200;
  scenario.robust.kind = RobustAggregatorKind::kTrimmedMean;
  scenario.robust.anomaly_threshold = 4.0;
  const std::int64_t onset = scale.warm_rounds;
  scenario.onset_round = onset;
  ScenarioResult r = run_scenario(env, scale, scenario, /*seed=*/5300);
  ASSERT_FALSE(r.alerts.empty());
  bool at_onset = false;
  for (const Alert& a : r.alerts) {
    EXPECT_GE(a.round, onset) << a.monitor;  // no false alarm on clean rounds
    at_onset = at_onset ||
               (a.round <= onset + 1 && (a.monitor == obs::kMonRejectionRate ||
                                         a.monitor == obs::kMonRobustScore));
  }
  EXPECT_TRUE(at_onset)
      << "no rejection/robust alert within one round of the onset";
}

TEST(OnsetDetection, EnvironmentShiftAlertsAtInjectedOnsetRound) {
  RecorderGuard guard;
  const BenchScale scale = tiny_scale();
  TaskSpec spec = task_by_name("HAR", "1 subject");
  TaskEnv env = make_task_env(spec, scale, /*seed=*/5400);
  const std::int64_t onset = scale.warm_rounds;
  ScenarioSpec scenario;
  scenario.drift_rate = 1.0f;
  scenario.churn_prob = 0.6f;
  scenario.onset_round = onset;
  scenario.monitor_dynamics = true;
  ScenarioResult r = run_scenario(env, scale, scenario, /*seed=*/5500);
  EXPECT_EQ(r.probe_accuracy.size(),
            static_cast<std::size_t>(2 * scale.warm_rounds));
  const auto churn_alerts = r.alerts;
  ASSERT_FALSE(churn_alerts.empty());
  bool at_onset = false;
  for (const Alert& a : churn_alerts) {
    EXPECT_GE(a.round, onset) << a.monitor;
    at_onset = at_onset ||
               (a.monitor == obs::kMonChurnRate && a.round <= onset + 1);
  }
  EXPECT_TRUE(at_onset) << "churn-rate monitor missed the onset";
}

// ---- run_scenario and the recorder ------------------------------------------

TEST(ScenarioRecording, ResultIsIdenticalWithRecorderOnAndOff) {
  // A fault scenario without population dynamics does no recording-
  // dependent work, so the recorder changes nothing in its result.
  const BenchScale scale = tiny_scale();
  TaskSpec spec = task_by_name("HAR", "1 subject");
  ScenarioSpec scenario;
  scenario.faults.dropout_prob = 0.3;
  scenario.faults.straggler_prob = 0.1;
  scenario.faults.transfer_failure_prob = 0.05;
  scenario.faults.seed = 5600;
  auto run = [&](bool recording) {
    obs::recorder().set_enabled(recording);
    TaskEnv env = make_task_env(spec, scale, /*seed=*/5700);
    ScenarioResult r = run_scenario(env, scale, scenario, /*seed=*/5800);
    obs::recorder().reset();
    obs::recorder().set_enabled(false);
    return r;
  };
  const ScenarioResult off = run(false);
  const ScenarioResult on = run(true);
  EXPECT_EQ(off.nebula_acc, on.nebula_acc);
  EXPECT_EQ(off.fedavg_acc, on.fedavg_acc);
  EXPECT_EQ(off.nebula_finite, on.nebula_finite);
  EXPECT_EQ(off.fedavg_finite, on.fedavg_finite);
  EXPECT_EQ(off.rounds_aggregated, on.rounds_aggregated);
  EXPECT_EQ(off.updates_dropped, on.updates_dropped);
  EXPECT_EQ(off.updates_rejected, on.updates_rejected);
  EXPECT_EQ(off.robust_rejected, on.robust_rejected);
  EXPECT_EQ(off.transfer_retries, on.transfer_retries);
  EXPECT_EQ(off.churned_devices, on.churned_devices);
  EXPECT_EQ(off.nebula_goodput_mb, on.nebula_goodput_mb);
  EXPECT_EQ(off.nebula_overhead_mb, on.nebula_overhead_mb);
  EXPECT_TRUE(off.probe_accuracy.empty() && on.probe_accuracy.empty());
  ASSERT_EQ(off.round_reports.size(), on.round_reports.size());
  for (std::size_t r = 0; r < off.round_reports.size(); ++r) {
    EXPECT_EQ(off.round_reports[r].summary(), on.round_reports[r].summary());
    EXPECT_EQ(off.round_reports[r].participants,
              on.round_reports[r].participants);
    EXPECT_EQ(off.round_reports[r].goodput_bytes,
              on.round_reports[r].goodput_bytes);
  }
}

TEST(ScenarioRecording, FedAvgLegsSkipDevicesWhoseRegionIsDown) {
  // Both systems must face the same outage schedule: a FedAvg device whose
  // region is down in round r never completes a leg in round r.
  RecorderGuard guard;
  const BenchScale scale = tiny_scale();
  TaskSpec spec = task_by_name("HAR", "1 subject");
  TaskEnv env = make_task_env(spec, scale, /*seed=*/5900);
  assign_regions(env.profiles, 3);
  ScenarioSpec scenario;
  scenario.faults.regional_outage_prob = 0.4;
  scenario.faults.seed = 6000;
  run_scenario(env, scale, scenario, /*seed=*/6100);

  const FaultInjector faults(scenario.faults);
  std::int64_t completed = 0, down_selected = 0;
  for (const obs::TimelineEvent& ev :
       obs::recorder().timeline().all_events()) {
    if (std::string(ev.source) != "fedavg") continue;
    const bool down = faults.regional_outage(
        ev.round, env.profiles[static_cast<std::size_t>(ev.device)].region);
    if (ev.kind == TimelineKind::kSelected && down) ++down_selected;
    if (ev.kind == TimelineKind::kCompleted) {
      ++completed;
      EXPECT_FALSE(down) << "device " << ev.device << " completed round "
                         << ev.round << " while its region was down";
    }
  }
  EXPECT_GT(completed, 0);
  EXPECT_GT(down_selected, 0) << "no outage hit a selected device";
}

}  // namespace
}  // namespace nebula
