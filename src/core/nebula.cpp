#include "core/nebula.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "nn/serialize.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/routing.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace nebula {

namespace {

// Salts for the per-(round, device) training-seed streams, disjoint from the
// FaultInjector salts (0x01-0x03 + transfer/attempt offsets) so the two
// families of streams never collide even under a shared base seed.
constexpr std::uint64_t kEdgeTrainSalt = 0x10;
constexpr std::uint64_t kAdaptTrainSalt = 0x11;

// One JSONL object per round, written only when a sink is attached
// (NEBULA_EVENTS=rounds.jsonl or a test capture sink).
void emit_round_event(const RoundReport& rep) {
  obs::EventLog& log = obs::EventLog::instance();
  if (!log.enabled()) return;
  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("round");
  w.key("round").value(rep.round_index);
  w.key("participants").int_array(rep.participants);
  w.key("completed").int_array(rep.completed);
  w.key("dropped").int_array(rep.dropped);
  w.key("straggled").int_array(rep.straggled);
  w.key("rejected").int_array(rep.rejected);
  w.key("probation").int_array(rep.probation);
  w.key("rejected_structural").value(rep.rejected_structural);
  w.key("rejected_norm").value(rep.rejected_norm);
  w.key("rejected_robust").value(rep.rejected_robust);
  w.key("robust_scores").number_array(rep.robust_scores);
  w.key("staleness_weights").number_array(rep.staleness_weights);
  w.key("device_wall_s").number_array(rep.device_wall_s);
  w.key("device_train_s").number_array(rep.device_train_s);
  w.key("device_comm_s").number_array(rep.device_comm_s);
  w.key("transfer_retries").value(rep.transfer_retries);
  w.key("goodput_bytes").value(rep.goodput_bytes);
  w.key("overhead_bytes").value(rep.overhead_bytes);
  w.key("attempted_bytes").value(rep.attempted_bytes);
  w.key("routing_entropy").value(rep.routing_entropy);
  w.key("routing_imbalance").value(rep.routing_imbalance);
  w.key("phases").begin_object();
  w.key("derive_s").value(rep.host_phases.derive_s);
  w.key("train_s").value(rep.host_phases.train_s);
  w.key("validate_s").value(rep.host_phases.validate_s);
  w.key("aggregate_s").value(rep.host_phases.aggregate_s);
  w.key("total_s").value(rep.host_phases.total_s);
  w.end_object();
  w.key("wall_time_s").value(rep.wall_time_s);
  w.key("aggregated").value(rep.aggregated);
  w.end_object();
  log.emit(w.str());
}

void emit_quarantine_event(std::int64_t round_idx, std::int64_t device,
                           UpdateVerdict verdict) {
  obs::EventLog& log = obs::EventLog::instance();
  if (!log.enabled()) return;
  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("quarantine");
  w.key("round").value(round_idx);
  w.key("device").value(device);
  w.key("verdict").value(update_verdict_name(verdict));
  w.end_object();
  log.emit(w.str());
}

/// Exact percentile of a small sample (nearest-rank with interpolation);
/// round reports hold at most devices_per_round values, so sorting a copy
/// beats carrying digest state in every report.
double sample_quantile(std::vector<double> vs, double q) {
  if (vs.empty()) return 0.0;
  std::sort(vs.begin(), vs.end());
  const double pos = q * static_cast<double>(vs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, vs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return vs[lo] + (vs[hi] - vs[lo]) * frac;
}

}  // namespace

std::string RoundReport::summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "round %lld: %zu/%zu completed (%zu dropped, %zu straggled, "
      "%zu rejected, %lld retries) wall %.2fs (dev p50 %.2f p95 %.2f) "
      "entropy %.2f %s",
      static_cast<long long>(round_index), completed.size(),
      participants.size(), dropped.size(), straggled.size(), rejected.size(),
      static_cast<long long>(transfer_retries), wall_time_s,
      sample_quantile(device_wall_s, 0.5), sample_quantile(device_wall_s, 0.95),
      routing_entropy, aggregated ? "aggregated" : "no-quorum");
  return buf;
}

NebulaSystem::NebulaSystem(ZooModel cloud, EdgePopulation& pop,
                           std::vector<DeviceProfile> profiles,
                           NebulaConfig cfg)
    : cloud_(std::move(cloud.model)),
      selector_(std::move(cloud.selector)),
      pop_(pop),
      profiles_(std::move(profiles)),
      cfg_(cfg),
      rng_(cfg.seed) {
  NEBULA_CHECK(cloud_ != nullptr && selector_ != nullptr);
  NEBULA_CHECK_MSG(static_cast<std::int64_t>(profiles_.size()) ==
                       pop_.num_devices(),
                   "need one device profile per population device");
  derivation_ = std::make_unique<SubmodelDerivation>(cloud_->module_costs(),
                                                     cloud_->shared_cost());
  edge_states_.resize(profiles_.size());
  selector_cached_.assign(profiles_.size(), 0);
  adapt_counts_.assign(profiles_.size(), 0);
  probation_clean_.assign(profiles_.size(), -1);
  for (const auto& p : profiles_) {
    cap_max_ = std::max(cap_max_, p.mem_capacity_mb);
  }
  cfg_.pretrain.top_k = cfg_.top_k;
  cfg_.ability.finetune.top_k = cfg_.top_k;
  cfg_.edge.top_k = cfg_.top_k;
}

std::vector<std::int64_t> NebulaSystem::proxy_subtasks(
    const SyntheticData& proxy) const {
  std::vector<std::int64_t> sub(proxy.data.labels.size());
  for (std::size_t i = 0; i < sub.size(); ++i) {
    sub[i] = pop_.subtask_of(proxy.data.labels[i], proxy.subjects[i]);
  }
  return sub;
}

std::optional<AbilityResult> NebulaSystem::offline(const SyntheticData& proxy) {
  NEBULA_SPAN("nebula.offline");
  obs::WallTimer timer;
  {
    NEBULA_SPAN("offline.pretrain");
    train_modular(*cloud_, *selector_, proxy.data, cfg_.pretrain);
  }
  obs::gauge("offline.pretrain_s").set(timer.elapsed_s());
  if (!cfg_.enable_ability) return std::nullopt;
  NEBULA_SPAN("offline.ability");
  obs::WallTimer ability_timer;
  const auto subtasks = proxy_subtasks(proxy);
  auto result = enhance_ability(*cloud_, *selector_, proxy.data, subtasks,
                                pop_.num_contexts(), cfg_.ability);
  obs::gauge("offline.ability_s").set(ability_timer.elapsed_s());
  return result;
}

std::vector<std::vector<double>> NebulaSystem::device_importance(
    std::int64_t k) {
  return selector_->importance(pop_.local_data(k).features);
}

double NebulaSystem::budget_fraction_for(std::int64_t k) const {
  const auto& p = profiles_.at(static_cast<std::size_t>(k));
  const double rel = p.mem_capacity_mb / cap_max_;
  return cfg_.budget_lo + (cfg_.budget_hi - cfg_.budget_lo) * rel;
}

DerivationResult NebulaSystem::derive(std::int64_t k) {
  return derive_with(device_importance(k), k);
}

DerivationResult NebulaSystem::derive_with(
    const std::vector<std::vector<double>>& importance, std::int64_t k) {
  DerivationRequest req;
  req.importance = importance;
  req.budgets = derivation_->budget_fraction(budget_fraction_for(k));
  return derivation_->derive(req);
}

std::int64_t NebulaSystem::download_bytes(const SubmodelSpec& spec,
                                          std::int64_t device) const {
  std::int64_t floats = 0;
  for (std::size_t l = 0; l < spec.modules.size(); ++l) {
    for (std::int64_t gid : spec.modules[l]) {
      floats += cloud_->module_state_size(l, gid);
    }
  }
  floats += cloud_->shared_state_size();
  if (!selector_cached_.at(static_cast<std::size_t>(device))) {
    floats += selector_->state_size();
  }
  return floats * static_cast<std::int64_t>(sizeof(float));
}

void NebulaSystem::inject_faults(const FaultConfig& cfg) {
  faults_ = std::make_unique<FaultInjector>(cfg);
}

EdgeUpdate NebulaSystem::train_and_pack(std::int64_t k,
                                        ModularModel& submodel,
                                        std::uint64_t seed) {
  TrainConfig edge_cfg = cfg_.edge;
  edge_cfg.seed = seed;
  train_modular(submodel, *selector_, pop_.local_data(k), edge_cfg);
  return make_edge_update(submodel, device_importance(k),
                          pop_.local_data(k).size());
}

bool NebulaSystem::faulted_transfer(std::int64_t round_idx, std::int64_t k,
                                    std::int64_t transfer_idx,
                                    std::int64_t bytes,
                                    const DeviceFate& fate,
                                    DeviceRoundSlot& slot) {
  const FaultPolicy& policy = cfg_.fault_policy;
  const int attempts = std::max(1, policy.max_transfer_attempts);
  for (int a = 0; a < attempts; ++a) {
    // Counted per attempt, independently of the ledger's goodput/waste
    // split — round() checks the two paths agree.
    slot.attempted_bytes += bytes;
    const double xfer_s =
        CostModel::transfer_time_s(bytes, profile(k), fate.bandwidth_factor);
    slot.wall_s += xfer_s;
    slot.comm_s += xfer_s;
    const bool fails =
        faults_ && faults_->transfer_attempt_fails(round_idx, k, transfer_idx,
                                                   a);
    if (!fails) return true;
    // The bytes burnt in flight are overhead, never goodput.
    if (transfer_idx == 0) {
      slot.ledger.record_failed_download(bytes);
    } else {
      slot.ledger.record_failed_upload(bytes);
    }
    if (a + 1 < attempts) {
      ++slot.transfer_retries;
      const double backoff_s =
          std::min(policy.backoff_cap_s,
                   policy.backoff_base_s * static_cast<double>(1 << a));
      slot.wall_s += backoff_s;
      slot.comm_s += backoff_s;
    }
  }
  return false;
}

void NebulaSystem::apply_corruption(EdgeUpdate& up, CorruptionKind kind,
                                    Rng& rng) const {
  switch (kind) {
    case CorruptionKind::kNone:
      return;
    case CorruptionKind::kNaN:
    case CorruptionKind::kZero:
      FaultInjector::corrupt_payload(up.shared_state, kind, rng);
      for (auto& layer : up.module_states) {
        for (auto& m : layer) FaultInjector::corrupt_payload(m, kind, rng);
      }
      return;
    case CorruptionKind::kTruncate: {
      // One payload arrives short; prefer a parameterised module state.
      std::vector<std::vector<float>*> candidates;
      for (auto& layer : up.module_states) {
        for (auto& m : layer) {
          if (!m.empty()) candidates.push_back(&m);
        }
      }
      if (candidates.empty()) candidates.push_back(&up.shared_state);
      auto* victim = candidates[static_cast<std::size_t>(
          rng.uniform_int(candidates.size()))];
      FaultInjector::corrupt_payload(*victim, kind, rng);
      return;
    }
  }
}

void NebulaSystem::apply_byzantine(EdgeUpdate& up,
                                   std::int64_t round_idx) const {
  const FaultConfig& fc = faults_->config();
  for (std::size_t l = 0; l < up.spec.modules.size(); ++l) {
    for (std::size_t j = 0; j < up.spec.modules[l].size(); ++j) {
      // Coordinate identifies the payload (layer, global id) so colluders
      // rewriting the same module derive the same key.
      const std::int64_t coord =
          static_cast<std::int64_t>(l) * 0x10000 + up.spec.modules[l][j];
      apply_byzantine_payload(up.module_states[l][j], fc,
                              faults_->collusion_key(round_idx, coord));
    }
  }
  apply_byzantine_payload(up.shared_state, fc,
                          faults_->collusion_key(round_idx, /*coord=*/-1));
}

void NebulaSystem::run_round_device(std::int64_t round_idx,
                                    DeviceRoundSlot& slot) {
  const FaultPolicy& policy = cfg_.fault_policy;
  const std::int64_t k = slot.device;
  const DeviceFate fate =
      faults_ ? faults_->device_fate(round_idx, k) : DeviceFate{};
  if (fate.dropped) {  // never checked in
    slot.outcome = DeviceRoundSlot::Outcome::kDropped;
    return;
  }
  if (faults_ && faults_->regional_outage(round_idx, profile(k).region)) {
    slot.outcome = DeviceRoundSlot::Outcome::kDropped;  // region down
    return;
  }

  obs::WallTimer derive_timer;
  DerivationResult der;
  {
    NEBULA_SPAN("round.derive");
    const auto importance = device_importance(k);
    der = derive_with(importance, k);
    // Soft routing view over this participant's importance scores,
    // averaged per layer; accumulated into the round report.
    for (const auto& layer : importance) {
      const obs::RoutingStats rs = obs::routing_stats(layer);
      slot.entropy_sum += rs.normalized_entropy;
      slot.imbalance_sum += rs.imbalance;
      ++slot.routing_samples;
    }
  }
  slot.phases.derive_s += derive_timer.elapsed_s();
  const std::int64_t dl_bytes = download_bytes(der.spec, k);
  if (!faulted_transfer(round_idx, k, /*transfer_idx=*/0, dl_bytes, fate,
                        slot)) {
    slot.outcome = DeviceRoundSlot::Outcome::kDropped;  // dead link
    return;
  }
  slot.ledger.record_download(dl_bytes);
  mark_selector_cached(k);

  obs::WallTimer train_timer;
  auto submodel = cloud_->derive_submodel(der.spec);
  EdgeUpdate up;
  {
    NEBULA_SPAN("round.train");
    up = train_and_pack(
        k, *submodel,
        derive_stream_seed(cfg_.seed, round_idx, k, kEdgeTrainSalt));
  }
  slot.phases.train_s += train_timer.elapsed_s();
  const double train_flops =
      3.0 * static_cast<double>(submodel->forward_flops(cfg_.top_k)) *
      static_cast<double>(pop_.local_data(k).size()) *
      static_cast<double>(cfg_.edge.epochs);
  const double compute_s = CostModel::compute_time_s(train_flops, profile(k),
                                                     fate.latency_multiplier);
  slot.wall_s += compute_s;
  slot.train_s += compute_s;
  // The device holds its refreshed resident sub-model from here on —
  // local training happened whatever the uplink does next.
  auto& state = edge_states_[static_cast<std::size_t>(k)];
  state.spec = der.spec;
  state.model = std::move(submodel);

  if (fate.crashes_before_upload) {
    slot.outcome = DeviceRoundSlot::Outcome::kDropped;
    return;
  }
  // A Byzantine device trains honestly (its resident model stays useful to
  // it) but rewrites the upload; channel corruption may still hit on top.
  if (faults_ && faults_->is_byzantine(k)) {
    apply_byzantine(up, round_idx);
  }
  if (fate.corruption != CorruptionKind::kNone) {
    Rng crng = faults_->payload_rng(round_idx, k);
    apply_corruption(up, fate.corruption, crng);
  }
  if (!faulted_transfer(round_idx, k, /*transfer_idx=*/1, up.payload_bytes(),
                        fate, slot)) {
    slot.outcome = DeviceRoundSlot::Outcome::kDropped;  // upload lost
    return;
  }
  slot.ledger.record_upload(up.payload_bytes());

  // The server judges the deadline on what the device *reports*: a skewed
  // clock can make an on-time device look late (or a late one on time). The
  // true wall time still drives the round-duration estimate.
  const double reported_s =
      slot.wall_s + (faults_ ? faults_->clock_skew(round_idx, k) : 0.0);
  if (policy.round_deadline_s > 0.0 && reported_s > policy.round_deadline_s) {
    slot.straggled = true;
    if (policy.staleness_factor <= 0.0f) {
      // Discarded update: the report's contract records weight 0 (not the
      // configured factor, which may be negative).
      slot.staleness_weight = 0.0;
      slot.outcome = DeviceRoundSlot::Outcome::kCut;
      return;
    }
    // Down-weight the stale update instead of discarding it.
    slot.staleness_weight = static_cast<double>(policy.staleness_factor);
    for (auto& layer : up.importance) {
      for (auto& v : layer) v *= policy.staleness_factor;
    }
    up.num_samples = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::llround(static_cast<double>(up.num_samples) *
                            policy.staleness_factor)));
  }

  obs::WallTimer validate_timer;
  {
    NEBULA_SPAN("round.validate");
    slot.verdict = validate_update(*cloud_, up, policy.norm_bound_rms);
  }
  slot.phases.validate_s += validate_timer.elapsed_s();
  if (slot.verdict != UpdateVerdict::kOk) {
    slot.outcome = DeviceRoundSlot::Outcome::kRejected;  // quarantined
    return;
  }
  slot.update = std::move(up);
  slot.outcome = DeviceRoundSlot::Outcome::kCompleted;
}

RoundReport NebulaSystem::round() {
  NEBULA_SPAN("nebula.round");
  const std::int64_t round_idx = round_index_++;
  const FaultPolicy& policy = cfg_.fault_policy;
  RoundReport rep;
  rep.round_index = round_idx;
  obs::WallTimer round_timer;
  // Ledger snapshot; the report carries this round's deltas.
  const std::int64_t goodput0 = ledger_.total_bytes();
  const std::int64_t overhead0 = ledger_.overhead_bytes();
  const std::int64_t n = pop_.num_devices();
  const std::int64_t m = std::min(cfg_.devices_per_round, n);
  auto pick = rng_.choose(static_cast<std::size_t>(n),
                          static_cast<std::size_t>(m));

  // The per-device leg is embarrassingly parallel: fates and training seeds
  // are derived per (round, device), and each device touches only its own
  // slot plus its own entries of edge_states_ / selector_cached_. A throwing
  // leg surfaces here from parallel_for, before anything is merged.
  std::vector<DeviceRoundSlot> slots(pick.size());
  for (std::size_t i = 0; i < pick.size(); ++i) {
    slots[i].device = static_cast<std::int64_t>(pick[i]);
  }
  ThreadPool::global().parallel_for(
      0, slots.size(),
      [&](std::size_t i) { run_round_device(round_idx, slots[i]); },
      /*grain=*/1);

  // Ordered merge: bit-identical whatever the worker count, because every
  // slot was computed by the same per-device code path and is folded in
  // participant order here (float accumulation order included).
  std::vector<EdgeUpdate> updates;
  std::vector<std::int64_t> update_devices;  // parallel to `updates`
  double round_wall_s = 0.0;
  bool straggler_cut = false;
  double entropy_sum = 0.0, imbalance_sum = 0.0;
  std::int64_t routing_samples = 0;
  const bool probation_on = policy.probation_clean_rounds > 0;
  // Flight recorder feed happens entirely in this serial merge: recording
  // draws no randomness and never reorders the fold, so enabling it is
  // bit-identity-neutral (pinned by test_flight_recorder.cpp).
  obs::FlightRecorder& rec = obs::recorder();
  const bool recording = rec.enabled();
  using obs::TimelineKind;
  for (auto& slot : slots) {
    const std::int64_t k = slot.device;
    const int dev = static_cast<int>(k);
    rep.participants.push_back(k);
    rep.device_wall_s.push_back(slot.wall_s);
    rep.device_train_s.push_back(slot.train_s);
    rep.device_comm_s.push_back(slot.comm_s);
    if (recording) {
      rec.record_device_event(round_idx, dev, TimelineKind::kSelected);
      if (slot.transfer_retries > 0) {
        rec.record_device_event(round_idx, dev, TimelineKind::kRetried,
                                "nebula",
                                static_cast<double>(slot.transfer_retries));
      }
      if (slot.straggled) {
        rec.record_device_event(round_idx, dev, TimelineKind::kStraggled,
                                "nebula", slot.staleness_weight);
      }
    }
    rep.transfer_retries += slot.transfer_retries;
    rep.attempted_bytes += slot.attempted_bytes;
    ledger_.merge(slot.ledger);
    rep.host_phases.derive_s += slot.phases.derive_s;
    rep.host_phases.train_s += slot.phases.train_s;
    rep.host_phases.validate_s += slot.phases.validate_s;
    entropy_sum += slot.entropy_sum;
    imbalance_sum += slot.imbalance_sum;
    routing_samples += slot.routing_samples;
    if (slot.straggled) {
      rep.straggled.push_back(k);
      rep.staleness_weights.push_back(slot.staleness_weight);
    }
    switch (slot.outcome) {
      case DeviceRoundSlot::Outcome::kDropped:
        rep.dropped.push_back(k);
        if (recording) {
          rec.record_device_event(round_idx, dev, TimelineKind::kDropped);
        }
        break;
      case DeviceRoundSlot::Outcome::kCut:
        straggler_cut = true;  // server closed the round without it
        break;
      case DeviceRoundSlot::Outcome::kRejected:
        rep.rejected.push_back(k);  // quarantined, never touches the cloud
        if (verdict_is_structural(slot.verdict)) {
          ++rep.rejected_structural;
        } else {
          ++rep.rejected_norm;
        }
        emit_quarantine_event(round_idx, k, slot.verdict);
        if (recording) {
          rec.record_device_event(round_idx, dev, TimelineKind::kRejected,
                                  "nebula", 0.0,
                                  update_verdict_name(slot.verdict));
        }
        // A fresh offense (re)starts the clean-round count from zero.
        if (probation_on) {
          probation_clean_[static_cast<std::size_t>(k)] = 0;
          if (recording) {
            rec.record_device_event(round_idx, dev,
                                    TimelineKind::kQuarantined);
          }
        }
        break;
      case DeviceRoundSlot::Outcome::kCompleted:
        round_wall_s = std::max(round_wall_s, slot.wall_s);
        if (probation_on && is_quarantined(k)) {
          // Clean round while quarantined: credit it, withhold the update.
          rep.probation.push_back(k);
          auto& clean = probation_clean_[static_cast<std::size_t>(k)];
          const bool readmitted = ++clean >= policy.probation_clean_rounds;
          if (recording) {
            rec.record_device_event(round_idx, dev, TimelineKind::kProbation,
                                    "nebula", static_cast<double>(clean));
            if (readmitted) {
              rec.record_device_event(round_idx, dev,
                                      TimelineKind::kReadmitted);
            }
          }
          if (readmitted) {
            clean = -1;  // readmitted from the next round on
          }
        } else {
          updates.push_back(std::move(slot.update));
          update_devices.push_back(k);
        }
        break;
    }
  }
  rep.wall_time_s = straggler_cut
                        ? std::max(round_wall_s, policy.round_deadline_s)
                        : round_wall_s;
  if (static_cast<std::int64_t>(updates.size()) >=
          std::max<std::int64_t>(1, policy.min_quorum)) {
    obs::WallTimer aggregate_timer;
    AggregationOutcome out;
    {
      NEBULA_SPAN("round.aggregate");
      out = aggregate_module_wise_robust(*cloud_, updates, cfg_.weighting,
                                         /*server_mix=*/1.0f, policy.robust);
    }
    rep.host_phases.aggregate_s += aggregate_timer.elapsed_s();
    // Every update here already passed validate_update in its device leg.
    NEBULA_CHECK_MSG(out.invalid.empty(),
                     "validated update re-rejected at aggregation");
    rep.aggregated = out.applied;
    std::vector<char> robust_rejected(updates.size(), 0);
    for (std::size_t idx : out.robust_rejected) {
      robust_rejected[idx] = 1;
      const std::int64_t k = update_devices[idx];
      rep.rejected.push_back(k);
      ++rep.rejected_robust;
      emit_quarantine_event(round_idx, k, UpdateVerdict::kRobustOutlier);
      if (recording) {
        rec.record_device_event(
            round_idx, static_cast<int>(k), TimelineKind::kRejected, "nebula",
            0.0, update_verdict_name(UpdateVerdict::kRobustOutlier));
      }
      if (probation_on) {
        probation_clean_[static_cast<std::size_t>(k)] = 0;
        if (recording) {
          rec.record_device_event(round_idx, static_cast<int>(k),
                                  TimelineKind::kQuarantined);
        }
      }
    }
    for (std::size_t i = 0; i < update_devices.size(); ++i) {
      if (!robust_rejected[i]) rep.completed.push_back(update_devices[i]);
    }
    if (policy.robust.active()) rep.robust_scores = out.anomaly_scores;
  } else {
    // Below quorum nothing was aggregated (or robust-scored); the devices
    // that delivered clean updates still count as completed.
    rep.completed = update_devices;
  }
  if (recording) {
    // Completion is only known after the robust gate, so these land after
    // the per-slot events — still deterministic (participant order).
    for (std::int64_t k : rep.completed) {
      rec.record_device_event(round_idx, static_cast<int>(k),
                              TimelineKind::kCompleted);
    }
  }
  rep.goodput_bytes = ledger_.total_bytes() - goodput0;
  rep.overhead_bytes = ledger_.overhead_bytes() - overhead0;
  // Conservation: every byte any attempt put on the wire landed in exactly
  // one of the ledger's goodput or overhead columns.
  NEBULA_CHECK_MSG(
      rep.attempted_bytes == rep.goodput_bytes + rep.overhead_bytes,
      "round " << round_idx << " traffic accounting leak: attempted "
               << rep.attempted_bytes << " != goodput " << rep.goodput_bytes
               << " + overhead " << rep.overhead_bytes);
  if (routing_samples > 0) {
    rep.routing_entropy = entropy_sum / static_cast<double>(routing_samples);
    rep.routing_imbalance =
        imbalance_sum / static_cast<double>(routing_samples);
  }
  rep.host_phases.total_s = round_timer.elapsed_s();

  static obs::Counter& m_rounds = obs::counter("round.count");
  static obs::Counter& m_completed = obs::counter("round.completed");
  static obs::Counter& m_dropped = obs::counter("round.dropped");
  static obs::Counter& m_rejected = obs::counter("round.rejected");
  static obs::Counter& m_probation = obs::counter("round.probation");
  static obs::Counter& m_retries = obs::counter("round.transfer_retries");
  m_rounds.add(1);
  m_completed.add(static_cast<std::int64_t>(rep.completed.size()));
  m_dropped.add(static_cast<std::int64_t>(rep.dropped.size()));
  m_rejected.add(static_cast<std::int64_t>(rep.rejected.size()));
  m_probation.add(static_cast<std::int64_t>(rep.probation.size()));
  m_retries.add(rep.transfer_retries);
  if (!rep.robust_scores.empty()) {
    double score_max = 0.0;
    for (double s : rep.robust_scores) score_max = std::max(score_max, s);
    obs::gauge("round.robust_score_max").set(score_max);
  }
  static obs::Gauge& m_entropy = obs::gauge("round.routing_entropy");
  static obs::Gauge& m_imbalance = obs::gauge("round.routing_imbalance");
  m_entropy.set(rep.routing_entropy);
  m_imbalance.set(rep.routing_imbalance);
  if (recording) {
    obs::RoundSample s;
    s.round = rep.round_index;
    s.participants = static_cast<std::int64_t>(rep.participants.size());
    s.completed = static_cast<std::int64_t>(rep.completed.size());
    s.dropped = static_cast<std::int64_t>(rep.dropped.size());
    s.straggled = static_cast<std::int64_t>(rep.straggled.size());
    s.rejected = static_cast<std::int64_t>(rep.rejected.size());
    s.probation = static_cast<std::int64_t>(rep.probation.size());
    s.rejected_robust = rep.rejected_robust;
    s.transfer_retries = rep.transfer_retries;
    s.goodput_bytes = rep.goodput_bytes;
    s.overhead_bytes = rep.overhead_bytes;
    s.routing_entropy = rep.routing_entropy;
    s.routing_imbalance = rep.routing_imbalance;
    s.wall_time_s = rep.wall_time_s;
    s.host_total_s = rep.host_phases.total_s;
    if (!rep.robust_scores.empty()) {
      double mean = 0.0, mx = 0.0;
      for (double v : rep.robust_scores) {
        mean += v;
        mx = std::max(mx, v);
      }
      s.robust_score_mean =
          mean / static_cast<double>(rep.robust_scores.size());
      s.robust_score_max = mx;
    }
    if (!rep.participants.empty()) {
      s.rejection_rate = static_cast<double>(rep.rejected.size()) /
                         static_cast<double>(rep.participants.size());
    }
    s.aggregated = rep.aggregated;
    rec.observe_round(s, rep.device_train_s, rep.device_comm_s,
                      rep.robust_scores, rep.staleness_weights);
  }
  emit_round_event(rep);
  return rep;
}

void NebulaSystem::adapt_device(std::int64_t k, bool query_cloud,
                                bool local_train, bool upload) {
  auto& state = edge_states_.at(static_cast<std::size_t>(k));
  if (query_cloud || !state.model) {
    DerivationResult der = derive(k);
    ledger_.record_download(download_bytes(der.spec, k));
    mark_selector_cached(k);
    state.spec = der.spec;
    state.model = cloud_->derive_submodel(der.spec);
  }
  if (!local_train) return;
  // Per-(call, device) derived stream instead of a draw from the shared
  // rng_: device A's adaptation history never shifts device B's seeds.
  const std::uint64_t seed = derive_stream_seed(
      cfg_.seed, adapt_counts_[static_cast<std::size_t>(k)]++, k,
      kAdaptTrainSalt);
  if (!upload) {
    TrainConfig edge_cfg = cfg_.edge;
    edge_cfg.seed = seed;
    train_modular(*state.model, *selector_, pop_.local_data(k), edge_cfg);
    return;
  }
  EdgeUpdate up = train_and_pack(k, *state.model, seed);
  ledger_.record_upload(up.payload_bytes());
  // Deliberately online_mix (< 1), unlike round(): a single device's update
  // aggregated at weight 1 would overwrite fleet knowledge (DESIGN.md §5).
  aggregate_module_wise_robust(*cloud_, {up}, cfg_.weighting, cfg_.online_mix);
}

float NebulaSystem::eval_device(std::int64_t k, std::int64_t test_n) {
  auto& state = edge_states_.at(static_cast<std::size_t>(k));
  if (!state.model) adapt_device(k, /*query_cloud=*/true, false, false);
  Dataset test = pop_.device_test(k, test_n);
  return eval_resident_on(k, test);
}

float NebulaSystem::eval_derived(std::int64_t k, std::int64_t test_n) {
  Dataset test = pop_.device_test(k, test_n);
  return eval_derived_on(k, test);
}

float NebulaSystem::eval_resident_on(std::int64_t k, const Dataset& test) {
  auto& state = edge_states_.at(static_cast<std::size_t>(k));
  NEBULA_CHECK_MSG(state.model != nullptr,
                   "device " << k << " holds no resident sub-model");
  return evaluate_modular(*state.model, *selector_, test, cfg_.top_k);
}

float NebulaSystem::eval_derived_on(std::int64_t k, const Dataset& test) {
  DerivationResult der = derive(k);
  auto submodel = cloud_->derive_submodel(der.spec);
  return evaluate_modular(*submodel, *selector_, test, cfg_.top_k);
}

void NebulaSystem::save_cloud(const std::string& path) {
  // Layout: shared state | per-layer per-global-id module states | selector.
  std::vector<float> blob = cloud_->shared_state();
  for (std::size_t l = 0; l < cloud_->num_module_layers(); ++l) {
    for (std::int64_t gid = 0; gid < cloud_->full_widths()[l]; ++gid) {
      auto s = cloud_->module_state(l, gid);
      blob.insert(blob.end(), s.begin(), s.end());
    }
  }
  auto sel = selector_->state();
  blob.insert(blob.end(), sel.begin(), sel.end());
  save_state_file(path, blob);
}

void NebulaSystem::load_cloud(const std::string& path) {
  const std::vector<float> blob = load_state_file(path);
  // Reject wrong-sized checkpoints (truncated files, trailing data, state
  // from a different architecture) before mutating anything, so a failed
  // load never leaves the cloud model half-restored.
  std::int64_t floats = cloud_->shared_state_size() + selector_->state_size();
  for (std::size_t l = 0; l < cloud_->num_module_layers(); ++l) {
    for (std::int64_t gid = 0; gid < cloud_->full_widths()[l]; ++gid) {
      floats += cloud_->module_state_size(l, gid);
    }
  }
  const std::size_t expected = static_cast<std::size_t>(floats);
  NEBULA_CHECK_MSG(blob.size() == expected,
                   "checkpoint " << path << " holds " << blob.size()
                                 << " floats, expected " << expected);
  std::size_t off = 0;
  auto take = [&](std::size_t n) {
    NEBULA_CHECK_MSG(off + n <= blob.size(), "checkpoint too small");
    std::vector<float> part(blob.begin() + static_cast<std::ptrdiff_t>(off),
                            blob.begin() +
                                static_cast<std::ptrdiff_t>(off + n));
    off += n;
    return part;
  };
  cloud_->set_shared_state(
      take(static_cast<std::size_t>(cloud_->shared_state_size())));
  for (std::size_t l = 0; l < cloud_->num_module_layers(); ++l) {
    for (std::int64_t gid = 0; gid < cloud_->full_widths()[l]; ++gid) {
      cloud_->set_module_state(
          l, gid,
          take(static_cast<std::size_t>(cloud_->module_state_size(l, gid))));
    }
  }
  selector_->set_state(take(static_cast<std::size_t>(selector_->state_size())));
  NEBULA_CHECK_MSG(off == blob.size(), "checkpoint has trailing data");
}

const SubmodelSpec* NebulaSystem::resident_spec(std::int64_t k) const {
  const auto& state = edge_states_.at(static_cast<std::size_t>(k));
  return state.model ? &state.spec : nullptr;
}

}  // namespace nebula
