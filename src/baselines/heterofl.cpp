#include "baselines/heterofl.h"

#include <algorithm>

#include "nn/state.h"
#include "obs/recorder.h"
#include "parallel/thread_pool.h"

namespace nebula {

namespace {
// Salt for per-(round, device) local-training seed streams (see
// derive_stream_seed); disjoint from the other stream families.
constexpr std::uint64_t kHeteroFLTrainSalt = 0x13;
}  // namespace

HeteroFL::HeteroFL(std::function<LayerPtr(double)> factory,
                   EdgePopulation& pop,
                   const std::vector<DeviceProfile>& profiles,
                   HeteroFLConfig cfg)
    : factory_(std::move(factory)), pop_(pop), cfg_(std::move(cfg)),
      rng_(cfg_.seed) {
  NEBULA_CHECK(!cfg_.widths.empty());
  std::vector<double> widths = cfg_.widths;
  std::sort(widths.begin(), widths.end());
  cfg_.widths = widths;
  global_ = factory_(widths.back());
  NEBULA_CHECK(global_ != nullptr);
  NEBULA_CHECK(static_cast<std::int64_t>(profiles.size()) ==
               pop_.num_devices());

  // Capacity quantiles map devices onto width tiers evenly.
  device_tier_ = assign_tiers_by_capacity(profiles, widths.size());
  device_width_.reserve(profiles.size());
  regions_.reserve(profiles.size());
  for (std::size_t k = 0; k < profiles.size(); ++k) {
    device_width_.push_back(widths[device_tier_[k]]);
    regions_.push_back(profiles[k].region);
  }
}

void HeteroFL::pretrain(const Dataset& proxy, const TrainConfig& cfg) {
  // Nested pre-training: cycle the width tiers on the proxy data and fold
  // each trained tier back into the global model, so every prefix block is a
  // functional model (training only the full model would leave the smaller
  // tiers' prefixes non-functional — HeteroFL trains all tiers jointly).
  TrainConfig per_pass = cfg;
  per_pass.epochs = 1;
  for (std::int64_t e = 0; e < cfg.epochs; ++e) {
    for (double w : cfg_.widths) {
      auto tier = factory_(w);
      nested_extract(*global_, *tier);
      per_pass.seed = rng_.next_u64();
      train_plain(*tier, proxy, per_pass);
      NestedAggregator agg(*global_);
      agg.add(*tier, 1.0);
      agg.finish(*global_);
    }
  }
}

std::vector<std::int64_t> HeteroFL::round() {
  const std::int64_t round_idx = round_index_++;
  const std::int64_t n = pop_.num_devices();
  const std::int64_t m = std::min(cfg_.devices_per_round, n);
  auto pick = rng_.choose(static_cast<std::size_t>(n),
                          static_cast<std::size_t>(m));

  // Serial prologue: tier models come from `factory_`, which draws from the
  // process-wide init RNG — constructing them inside the parallel region
  // would race on (and reorder) that stream. The freshly initialised
  // weights are then fully overwritten by nested_extract. Fates are drawn
  // here too (pure per (round, device)); dropped or blacked-out devices
  // never download.
  std::vector<std::int64_t> participants;
  std::vector<LayerPtr> subs(pick.size());
  std::vector<DeviceFate> fates(pick.size());
  std::vector<char> alive(pick.size(), 1);
  for (std::size_t i = 0; i < pick.size(); ++i) {
    const std::int64_t k = static_cast<std::int64_t>(pick[i]);
    participants.push_back(k);
    if (faults_) {
      fates[i] = faults_->device_fate(round_idx, k);
      const std::int64_t region = static_cast<std::size_t>(k) < regions_.size()
                                      ? regions_[static_cast<std::size_t>(k)]
                                      : 0;
      if (fates[i].dropped || faults_->regional_outage(round_idx, region)) {
        alive[i] = 0;
        continue;
      }
    }
    subs[i] = factory_(device_width_[static_cast<std::size_t>(k)]);
    nested_extract(*global_, *subs[i]);
    ledger_.record_download(state_bytes(*subs[i]));
  }

  // Parallel local training: private model per slot, derived seeds.
  std::vector<char> uploaded(pick.size(), 0);
  ThreadPool::global().parallel_for(
      0, pick.size(),
      [&](std::size_t i) {
        if (!alive[i]) return;
        const std::int64_t k = static_cast<std::int64_t>(pick[i]);
        TrainConfig cfg = cfg_.local;
        cfg.seed =
            derive_stream_seed(cfg_.seed, round_idx, k, kHeteroFLTrainSalt);
        train_plain(*subs[i], pop_.local_data(k), cfg);
        if (fates[i].crashes_before_upload) return;
        // Undefended baseline: Byzantine rewrites and NaN/zero channel
        // damage land in the upload unvalidated.
        if (faults_ && faults_->damages_flat_upload(k, fates[i])) {
          std::vector<float> state = get_state(*subs[i]);
          faults_->damage_flat_upload(state, round_idx, k, fates[i]);
          set_state(*subs[i], state);
        }
        uploaded[i] = 1;
      },
      /*grain=*/1);
  // Timeline feed (serial, post-barrier — same contract as round()).
  obs::FlightRecorder& rec = obs::recorder();
  if (rec.enabled()) {
    for (std::size_t i = 0; i < pick.size(); ++i) {
      const int dev = static_cast<int>(pick[i]);
      rec.record_device_event(round_idx, dev, obs::TimelineKind::kSelected,
                              "heterofl");
      rec.record_device_event(round_idx, dev,
                              uploaded[i] ? obs::TimelineKind::kCompleted
                                          : obs::TimelineKind::kDropped,
                              "heterofl");
    }
  }
  if (std::find(uploaded.begin(), uploaded.end(), char(1)) == uploaded.end()) {
    return participants;  // every device lost: round leaves the model alone
  }

  // Ordered epilogue: fold updates in participant order so the aggregator's
  // float accumulation is identical for any worker count.
  NestedAggregator agg(*global_);
  for (std::size_t i = 0; i < pick.size(); ++i) {
    if (!uploaded[i]) continue;
    const std::int64_t k = static_cast<std::int64_t>(pick[i]);
    ledger_.record_upload(state_bytes(*subs[i]));
    agg.add(*subs[i], static_cast<double>(pop_.local_data(k).size()));
  }
  agg.finish(*global_);
  return participants;
}

float HeteroFL::eval_device(std::int64_t k, std::int64_t test_n) {
  auto sub = factory_(device_width_[static_cast<std::size_t>(k)]);
  nested_extract(*global_, *sub);
  Dataset test = pop_.device_test(k, test_n);
  return evaluate_plain(*sub, test);
}

void HeteroFL::refresh_eval_models() {
  eval_models_.clear();
  for (double w : cfg_.widths) {
    auto tier = factory_(w);
    nested_extract(*global_, *tier);
    eval_models_.push_back(std::move(tier));
  }
}

float HeteroFL::eval_on(std::int64_t k, const Dataset& test) {
  NEBULA_CHECK_MSG(!eval_models_.empty(),
                   "call refresh_eval_models() before eval_on()");
  return evaluate_plain(
      *eval_models_.at(device_tier_.at(static_cast<std::size_t>(k))), test);
}

}  // namespace nebula
