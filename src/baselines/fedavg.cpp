#include "baselines/fedavg.h"

#include "nn/state.h"
#include "obs/recorder.h"
#include "parallel/thread_pool.h"

namespace nebula {

namespace {
// Salt for per-(round, device) local-training seed streams (see
// derive_stream_seed); disjoint from the FaultInjector and Nebula salts.
constexpr std::uint64_t kFedAvgTrainSalt = 0x12;
}  // namespace

FedAvg::FedAvg(LayerPtr global_model, EdgePopulation& pop, FedAvgConfig cfg)
    : global_(std::move(global_model)), pop_(pop), cfg_(cfg),
      rng_(cfg.seed) {
  NEBULA_CHECK(global_ != nullptr);
}

void FedAvg::pretrain(const Dataset& proxy, const TrainConfig& cfg) {
  train_plain(*global_, proxy, cfg);
}

std::vector<std::int64_t> FedAvg::round() {
  const std::int64_t round_idx = round_index_++;
  const std::int64_t n = pop_.num_devices();
  const std::int64_t m = std::min(cfg_.devices_per_round, n);
  auto pick = rng_.choose(static_cast<std::size_t>(n),
                          static_cast<std::size_t>(m));

  const std::vector<float> global_state = get_state(*global_);
  const std::int64_t bytes = state_bytes(*global_);

  // Per-device training is independent: seeds and fates are derived per
  // (round, device), every device trains a private clone and writes only its
  // own slot. Slots merge in participant order after the barrier, so the
  // averaged model and ledger are bit-identical to serial execution.
  struct Slot {
    bool uploaded = false;
    std::vector<float> state;
    double weight = 0.0;
    CommLedger ledger;
  };
  std::vector<Slot> slots(pick.size());
  ThreadPool::global().parallel_for(
      0, pick.size(),
      [&](std::size_t i) {
        Slot& slot = slots[i];
        const std::int64_t k = static_cast<std::int64_t>(pick[i]);
        const DeviceFate fate =
            faults_ ? faults_->device_fate(round_idx, k) : DeviceFate{};
        if (fate.dropped) return;
        const std::int64_t region =
            static_cast<std::size_t>(k) < regions_.size()
                ? regions_[static_cast<std::size_t>(k)]
                : 0;
        if (faults_ && faults_->regional_outage(round_idx, region)) return;
        slot.ledger.record_download(bytes);
        auto local = global_->clone();
        TrainConfig cfg = cfg_.local;
        cfg.seed =
            derive_stream_seed(cfg_.seed, round_idx, k, kFedAvgTrainSalt);
        train_plain(*local, pop_.local_data(k), cfg);
        if (fate.crashes_before_upload) return;
        slot.ledger.record_upload(bytes);
        slot.state = get_state(*local);
        if (faults_) {
          faults_->damage_flat_upload(slot.state, round_idx, k, fate);
        }
        slot.weight = static_cast<double>(pop_.local_data(k).size());
        slot.uploaded = true;
      },
      /*grain=*/1);

  std::vector<std::int64_t> participants;
  std::vector<const Slot*> survivors;
  // Timeline feed for the comparator baseline (serial merge, like round()).
  obs::FlightRecorder& rec = obs::recorder();
  const bool recording = rec.enabled();
  for (std::size_t i = 0; i < pick.size(); ++i) {
    participants.push_back(static_cast<std::int64_t>(pick[i]));
    ledger_.merge(slots[i].ledger);
    if (slots[i].uploaded) survivors.push_back(&slots[i]);
    if (recording) {
      const int dev = static_cast<int>(pick[i]);
      rec.record_device_event(round_idx, dev, obs::TimelineKind::kSelected,
                              "fedavg");
      rec.record_device_event(round_idx, dev,
                              slots[i].uploaded
                                  ? obs::TimelineKind::kCompleted
                                  : obs::TimelineKind::kDropped,
                              "fedavg");
    }
  }
  if (survivors.empty()) return participants;

  double wsum = 0.0;
  for (const Slot* s : survivors) wsum += s->weight;
  std::vector<float> merged(global_state.size(), 0.0f);
  for (const Slot* s : survivors) {
    const float w = static_cast<float>(s->weight / wsum);
    for (std::size_t e = 0; e < merged.size(); ++e) {
      merged[e] += w * s->state[e];
    }
  }
  set_state(*global_, merged);
  return participants;
}

float FedAvg::eval_device(std::int64_t k, std::int64_t test_n) {
  Dataset test = pop_.device_test(k, test_n);
  return evaluate_plain(*global_, test);
}

}  // namespace nebula
