// Fault injection for dynamic edge environments (paper Fig. 1: devices
// churn, contend and fluctuate; real fleets additionally drop out, straggle,
// lose packets and ship corrupted payloads).
//
// A `FaultInjector` is a pure function of (seed, round, device, …): every
// fate is derived from a counter-mixed RNG stream, so fault schedules are
// reproducible across runs and independent of the order in which callers
// query them. It owns no system RNG — with all probabilities at zero a run
// with an injector attached is bit-identical to one without.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace nebula {

/// How an upload payload is damaged in flight.
enum class CorruptionKind {
  kNone,
  kNaN,       // a scattering of NaN/Inf values
  kZero,      // payload arrives zeroed
  kTruncate,  // payload arrives short (size mismatch vs. spec)
};

const char* corruption_kind_name(CorruptionKind k);

/// How a Byzantine device rewrites its (otherwise honestly trained) upload.
/// All three survive `validate_update`'s norm bound when scaled modestly —
/// a sign-flip preserves RMS exactly — which is what motivates robust
/// aggregation on the server side.
enum class ByzantineKind {
  kSignFlip,       // upload -x instead of x
  kScaled,         // upload byzantine_scale · x
  kSameDirection,  // colluders all upload the same pseudo-random direction
};

const char* byzantine_kind_name(ByzantineKind k);

/// Probabilities and magnitudes of the modelled fault classes. All default
/// to "no faults"; any_faults() gates the whole layer.
struct FaultConfig {
  // (a) Device churn: never shows up, or crashes after local training but
  // before its upload completes.
  double dropout_prob = 0.0;
  double crash_prob = 0.0;

  // (b) Stragglers: a latency multiplier applied to on-device compute,
  // drawn uniformly from [multiplier_lo, multiplier_hi].
  double straggler_prob = 0.0;
  double straggler_multiplier_lo = 2.0;
  double straggler_multiplier_hi = 8.0;

  // (c) Link faults: each individual transfer attempt fails with
  // `transfer_failure_prob`; a degraded link scales effective bandwidth by
  // `degraded_bandwidth_factor` for the whole round.
  double transfer_failure_prob = 0.0;
  double degraded_link_prob = 0.0;
  double degraded_bandwidth_factor = 0.25;

  // (d) Payload corruption of uploads (kind chosen uniformly at random).
  double corruption_prob = 0.0;

  // (e) Byzantine adversaries: a persistent subset of the fleet rewrites its
  // uploads every round. Membership is drawn per device from a round-
  // independent stream — or, when `num_devices` > 0, exactly
  // round(byzantine_fraction · num_devices) devices are chosen by seeded
  // ranking, so small fleets hit the nominal fraction exactly.
  double byzantine_fraction = 0.0;
  ByzantineKind byzantine_kind = ByzantineKind::kSignFlip;
  double byzantine_scale = 10.0;  // kScaled magnitude / kSameDirection RMS
  std::int64_t num_devices = 0;   // 0 = per-device probability draw

  // (f) Correlated regional outages: each (round, region) pair fails as a
  // unit with this probability — every device tagged with that region drops.
  double regional_outage_prob = 0.0;

  // (g) Clock skew: a device's *reported* completion time differs from its
  // true wall time by a uniform draw in [-clock_skew_s, +clock_skew_s],
  // perturbing the server's deadline/staleness decisions.
  double clock_skew_s = 0.0;

  std::uint64_t seed = 0xFA17;

  bool any_faults() const {
    return dropout_prob > 0.0 || crash_prob > 0.0 || straggler_prob > 0.0 ||
           transfer_failure_prob > 0.0 || degraded_link_prob > 0.0 ||
           corruption_prob > 0.0 || byzantine_fraction > 0.0 ||
           regional_outage_prob > 0.0 || clock_skew_s > 0.0;
  }

  void validate() const;
};

/// What the injector decided for one device in one round.
struct DeviceFate {
  bool dropped = false;               // never starts the round
  bool crashes_before_upload = false; // trains, then vanishes
  double latency_multiplier = 1.0;    // >= 1; straggler slowdown
  double bandwidth_factor = 1.0;      // <= 1; degraded link
  CorruptionKind corruption = CorruptionKind::kNone;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig cfg);

  const FaultConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.any_faults(); }

  /// The fate of `device` in `round`. Deterministic per (seed, round,
  /// device) and independent of query order.
  DeviceFate device_fate(std::int64_t round, std::int64_t device) const;

  /// Whether transfer number `transfer` (0 = download, 1 = upload, callers
  /// may add more) of `device` in `round` fails on its `attempt`-th try.
  bool transfer_attempt_fails(std::int64_t round, std::int64_t device,
                              std::int64_t transfer,
                              std::int64_t attempt) const;

  /// A dedicated RNG stream for corrupting `device`'s payload in `round`
  /// (feed it to `corrupt_payload` so damage patterns are reproducible).
  Rng payload_rng(std::int64_t round, std::int64_t device) const;

  /// Damages a flat payload in place. `kTruncate` removes a tail chunk
  /// (at least one element when the payload is non-empty).
  static void corrupt_payload(std::vector<float>& payload, CorruptionKind kind,
                              Rng& rng);

  /// Whether `device` is a (persistent, round-independent) Byzantine
  /// attacker. False whenever `byzantine_fraction` is zero — no draw made.
  bool is_byzantine(std::int64_t device) const;

  /// Collusion key for colluding attackers: all devices rewriting the same
  /// payload (`coord` identifies it — e.g. l·0x10000+gid for a module, -1
  /// for the shared/flat state) in the same round derive the same key, so
  /// kSameDirection colluders upload byte-identical junk.
  std::uint64_t collusion_key(std::int64_t round, std::int64_t coord) const;

  /// Whether the whole of `region` is down in `round` (correlated outage).
  bool regional_outage(std::int64_t round, std::int64_t region) const;

  /// Whether an undefended baseline's flat upload from `device` is damaged:
  /// the device is Byzantine, or `fate` corrupts the payload with NaN/zero
  /// values. Truncation is left out — a truncated flat state would be
  /// unloadable.
  bool damages_flat_upload(std::int64_t device, const DeviceFate& fate) const;

  /// Applies that damage to a baseline's flat upload in place: the
  /// Byzantine rewrite, then the NaN/zero corruption. The baselines have no
  /// server-side validation, so the damaged state is averaged straight in.
  void damage_flat_upload(std::vector<float>& state, std::int64_t round,
                          std::int64_t device, const DeviceFate& fate) const;

  /// The device's clock error (seconds, in [-clock_skew_s, +clock_skew_s])
  /// for this round. 0 whenever `clock_skew_s` is zero — no draw made.
  double clock_skew(std::int64_t round, std::int64_t device) const;

 private:
  Rng stream(std::int64_t round, std::int64_t device,
             std::uint64_t salt) const;

  FaultConfig cfg_;
  /// Exact-count Byzantine membership (cfg_.num_devices > 0): device k is an
  /// attacker iff byzantine_mask_[k]. Empty in per-probability mode.
  std::vector<char> byzantine_mask_;
};

/// Rewrites a flat payload according to `cfg.byzantine_kind`. Deterministic:
/// kSignFlip/kScaled depend only on the payload; kSameDirection fills it with
/// a pseudo-random direction derived from `collusion_key`, so every colluder
/// handed the same key uploads byte-identical values (RMS ≈ byzantine_scale).
void apply_byzantine_payload(std::vector<float>& payload,
                             const FaultConfig& cfg,
                             std::uint64_t collusion_key);

}  // namespace nebula
