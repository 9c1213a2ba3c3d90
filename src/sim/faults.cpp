#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace nebula {

const char* corruption_kind_name(CorruptionKind k) {
  switch (k) {
    case CorruptionKind::kNone: return "none";
    case CorruptionKind::kNaN: return "nan";
    case CorruptionKind::kZero: return "zero";
    case CorruptionKind::kTruncate: return "truncate";
  }
  return "?";
}

const char* byzantine_kind_name(ByzantineKind k) {
  switch (k) {
    case ByzantineKind::kSignFlip: return "sign_flip";
    case ByzantineKind::kScaled: return "scaled";
    case ByzantineKind::kSameDirection: return "same_direction";
  }
  return "?";
}

namespace {

// NaN fails both comparisons, so a NaN probability is rejected here too.
bool is_prob(double p) { return std::isfinite(p) && p >= 0.0 && p <= 1.0; }

}  // namespace

void FaultConfig::validate() const {
  NEBULA_CHECK_MSG(is_prob(dropout_prob) && is_prob(crash_prob) &&
                       is_prob(straggler_prob) &&
                       is_prob(transfer_failure_prob) &&
                       is_prob(degraded_link_prob) && is_prob(corruption_prob),
                   "fault probabilities must lie in [0, 1]");
  NEBULA_CHECK_MSG(is_prob(byzantine_fraction) &&
                       is_prob(regional_outage_prob),
                   "fault probabilities must lie in [0, 1]");
  NEBULA_CHECK_MSG(std::isfinite(straggler_multiplier_lo) &&
                       std::isfinite(straggler_multiplier_hi) &&
                       straggler_multiplier_lo >= 1.0 &&
                       straggler_multiplier_hi >= straggler_multiplier_lo,
                   "straggler multipliers must satisfy 1 <= lo <= hi");
  NEBULA_CHECK_MSG(std::isfinite(degraded_bandwidth_factor) &&
                       degraded_bandwidth_factor > 0.0 &&
                       degraded_bandwidth_factor <= 1.0,
                   "degraded bandwidth factor must lie in (0, 1]");
  NEBULA_CHECK_MSG(transfer_failure_prob < 1.0,
                   "a transfer failure probability of 1 can never succeed");
  NEBULA_CHECK_MSG(std::isfinite(byzantine_scale) && byzantine_scale > 0.0,
                   "byzantine scale must be finite and positive");
  NEBULA_CHECK_MSG(std::isfinite(clock_skew_s) && clock_skew_s >= 0.0,
                   "clock skew must be finite and non-negative");
  NEBULA_CHECK_MSG(num_devices >= 0, "num_devices must be non-negative");
}

FaultInjector::FaultInjector(FaultConfig cfg) : cfg_(cfg) {
  cfg_.validate();
  if (cfg_.num_devices > 0 && cfg_.byzantine_fraction > 0.0) {
    // Exact-count membership: rank devices by a seeded hash and take the
    // round(fraction · n) smallest, so a 10-device fleet at fraction 0.3
    // gets exactly 3 attackers instead of a binomial draw.
    const std::size_t n = static_cast<std::size_t>(cfg_.num_devices);
    const std::size_t count = static_cast<std::size_t>(std::min<std::int64_t>(
        cfg_.num_devices,
        std::llround(cfg_.byzantine_fraction * static_cast<double>(n))));
    std::vector<std::pair<std::uint64_t, std::size_t>> ranked(n);
    for (std::size_t k = 0; k < n; ++k) {
      ranked[k] = {derive_stream_seed(cfg_.seed, /*round=*/-1,
                                      static_cast<std::int64_t>(k),
                                      /*salt=*/0x04),
                   k};
    }
    std::sort(ranked.begin(), ranked.end());
    byzantine_mask_.assign(n, 0);
    for (std::size_t k = 0; k < count; ++k) {
      byzantine_mask_[ranked[k].second] = 1;
    }
  }
}

Rng FaultInjector::stream(std::int64_t round, std::int64_t device,
                          std::uint64_t salt) const {
  // Decorrelates the structured (round, device, salt) coordinates before
  // they seed a fate stream; shared with the round protocol's per-device
  // training seeds so both stay order-independent.
  return Rng(derive_stream_seed(cfg_.seed, round, device, salt));
}

DeviceFate FaultInjector::device_fate(std::int64_t round,
                                      std::int64_t device) const {
  DeviceFate fate;
  if (!enabled()) return fate;
  Rng r = stream(round, device, /*salt=*/0x01);
  // Draw every dimension unconditionally so one probability knob never
  // shifts the draws of another.
  const double u_drop = r.uniform();
  const double u_crash = r.uniform();
  const double u_strag = r.uniform();
  const double u_strag_mult = r.uniform();
  const double u_link = r.uniform();
  const double u_corrupt = r.uniform();
  const std::uint64_t corrupt_kind = r.next_u64();

  fate.dropped = u_drop < cfg_.dropout_prob;
  fate.crashes_before_upload = u_crash < cfg_.crash_prob;
  if (u_strag < cfg_.straggler_prob) {
    fate.latency_multiplier =
        cfg_.straggler_multiplier_lo +
        (cfg_.straggler_multiplier_hi - cfg_.straggler_multiplier_lo) *
            u_strag_mult;
  }
  if (u_link < cfg_.degraded_link_prob) {
    fate.bandwidth_factor = cfg_.degraded_bandwidth_factor;
  }
  if (u_corrupt < cfg_.corruption_prob) {
    constexpr CorruptionKind kKinds[] = {
        CorruptionKind::kNaN, CorruptionKind::kZero, CorruptionKind::kTruncate};
    fate.corruption = kKinds[corrupt_kind % 3];
  }
  return fate;
}

bool FaultInjector::transfer_attempt_fails(std::int64_t round,
                                           std::int64_t device,
                                           std::int64_t transfer,
                                           std::int64_t attempt) const {
  if (cfg_.transfer_failure_prob <= 0.0) return false;
  const std::uint64_t salt =
      0x02 + 0x100 * static_cast<std::uint64_t>(transfer) +
      0x10000 * static_cast<std::uint64_t>(attempt);
  Rng r = stream(round, device, salt);
  return r.uniform() < cfg_.transfer_failure_prob;
}

Rng FaultInjector::payload_rng(std::int64_t round, std::int64_t device) const {
  return stream(round, device, /*salt=*/0x03);
}

bool FaultInjector::is_byzantine(std::int64_t device) const {
  if (cfg_.byzantine_fraction <= 0.0) return false;
  if (!byzantine_mask_.empty()) {
    return device >= 0 &&
           device < static_cast<std::int64_t>(byzantine_mask_.size()) &&
           byzantine_mask_[static_cast<std::size_t>(device)] != 0;
  }
  // Persistent membership: round-independent stream, so an attacker attacks
  // every round it participates in.
  Rng r = stream(/*round=*/-1, device, /*salt=*/0x04);
  return r.uniform() < cfg_.byzantine_fraction;
}

std::uint64_t FaultInjector::collusion_key(std::int64_t round,
                                           std::int64_t coord) const {
  return derive_stream_seed(cfg_.seed, round, coord, /*salt=*/0x05);
}

bool FaultInjector::regional_outage(std::int64_t round,
                                    std::int64_t region) const {
  if (cfg_.regional_outage_prob <= 0.0) return false;
  // Keyed by (round, region) — every device in the region sees the same
  // verdict, which is exactly what makes the outage correlated.
  Rng r = stream(round, region, /*salt=*/0x06);
  return r.uniform() < cfg_.regional_outage_prob;
}

namespace {
bool corrupts_flat_upload(CorruptionKind kind) {
  return kind != CorruptionKind::kNone && kind != CorruptionKind::kTruncate;
}
}  // namespace

bool FaultInjector::damages_flat_upload(std::int64_t device,
                                        const DeviceFate& fate) const {
  return is_byzantine(device) || corrupts_flat_upload(fate.corruption);
}

void FaultInjector::damage_flat_upload(std::vector<float>& state,
                                       std::int64_t round, std::int64_t device,
                                       const DeviceFate& fate) const {
  if (is_byzantine(device)) {
    apply_byzantine_payload(state, cfg_, collusion_key(round, /*coord=*/-1));
  }
  if (corrupts_flat_upload(fate.corruption)) {
    Rng crng = payload_rng(round, device);
    corrupt_payload(state, fate.corruption, crng);
  }
}

double FaultInjector::clock_skew(std::int64_t round,
                                 std::int64_t device) const {
  if (cfg_.clock_skew_s <= 0.0) return 0.0;
  Rng r = stream(round, device, /*salt=*/0x07);
  const float s = static_cast<float>(cfg_.clock_skew_s);
  return static_cast<double>(r.uniform(-s, s));
}

void apply_byzantine_payload(std::vector<float>& payload,
                             const FaultConfig& cfg,
                             std::uint64_t collusion_key) {
  switch (cfg.byzantine_kind) {
    case ByzantineKind::kSignFlip:
      for (float& x : payload) x = -x;
      return;
    case ByzantineKind::kScaled: {
      const float s = static_cast<float>(cfg.byzantine_scale);
      for (float& x : payload) x *= s;
      return;
    }
    case ByzantineKind::kSameDirection: {
      // Element i is a pure function of (collusion_key, i): every colluder
      // handed the same key writes byte-identical values, independent of its
      // own payload. Uniform in [-1,1] scaled so the RMS ≈ byzantine_scale.
      const double amp = cfg.byzantine_scale * 1.7320508075688772;  // √3
      for (std::size_t i = 0; i < payload.size(); ++i) {
        const std::uint64_t h = splitmix64(
            collusion_key ^
            (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(i) + 1)));
        const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
        payload[i] = static_cast<float>(amp * (2.0 * u - 1.0));
      }
      return;
    }
  }
}

void FaultInjector::corrupt_payload(std::vector<float>& payload,
                                    CorruptionKind kind, Rng& rng) {
  if (payload.empty() || kind == CorruptionKind::kNone) return;
  switch (kind) {
    case CorruptionKind::kNaN: {
      // Poison ~5% of the entries (at least one) with NaN or Inf.
      const std::size_t hits =
          std::max<std::size_t>(1, payload.size() / 20);
      for (std::size_t h = 0; h < hits; ++h) {
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(payload.size()));
        payload[i] = (rng.uniform() < 0.5f)
                         ? std::numeric_limits<float>::quiet_NaN()
                         : std::numeric_limits<float>::infinity();
      }
      break;
    }
    case CorruptionKind::kZero:
      std::fill(payload.begin(), payload.end(), 0.0f);
      break;
    case CorruptionKind::kTruncate: {
      // Lose a random tail chunk: between 1 element and half the payload.
      const std::size_t max_cut = std::max<std::size_t>(1, payload.size() / 2);
      const std::size_t cut =
          1 + static_cast<std::size_t>(rng.uniform_int(max_cut));
      payload.resize(payload.size() - cut);
      break;
    }
    case CorruptionKind::kNone:
      break;
  }
}

}  // namespace nebula
