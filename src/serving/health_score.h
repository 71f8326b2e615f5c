#pragma once

#include <algorithm>

#include "sim/time.h"

namespace olympian::serving {

// Knobs for the continuous gray-failure health score shared by the device
// HealthMonitor and the cluster Router: the baseline length, the RTT
// smoothing and the hysteresis thresholds. The error-rate smoothing and the
// RTT/error blend are HealthScore's constants. Off by default: with
// `enabled == false` no score is maintained and the binary health state
// machines behave exactly as before, so existing goldens stay byte-identical.
struct HealthScoreOptions {
  bool enabled = false;
  // Successful probe RTTs averaged into the learned baseline before the
  // RTT term starts contributing (score is err-term-only until then).
  int baseline_probes = 3;
  // EWMA smoothing factor of successful RTTs (weight of the newest sample).
  double rtt_alpha = 0.3;
  // Hysteresis thresholds driving healthy <-> degraded transitions:
  // degrade when score < degrade_below, recover when score >= recover_above.
  // The gap between them is what prevents flapping at the boundary.
  double degrade_below = 0.70;
  double recover_above = 0.85;
};

// Continuous health score in [0, 1] for one probed target (a device or a
// server), fed by probe outcomes and round-trip times:
//
//   score = kRttWeight  * min(1, baseline / ewma_rtt)
//         + (1 - kRttWeight) * (1 - err_ewma)
//
// where `baseline` is the mean of the first `baseline_probes` successful
// RTTs (a learned notion of "normal" for this target), `ewma_rtt` smooths
// successful RTTs, and `err_ewma` smooths the 0/1 failure indicator of
// every outcome. A fractional-capacity fault or jitter window inflates
// measured RTT and drives the RTT term down; probe timeouts drive the
// error term down. 1.0 = nominal, 0.0 = unresponsive.
//
// Pure accumulator: no virtual-clock access, no RNG, no events — scoring a
// trajectory adds zero scheduler activity, which is what lets the scored
// and unscored cluster runs share one event stream.
class HealthScore {
 public:
  // EWMA smoothing factor of the failure indicator (weight of the newest
  // sample), and the blend between the RTT term and the error-rate term.
  static constexpr double kErrorAlpha = 0.3;
  static constexpr double kRttWeight = 0.7;

  HealthScore() = default;  // default options (disabled-tier smoothing)
  explicit HealthScore(const HealthScoreOptions& options) : options_(options) {}

  // Record one probe outcome; `rtt` is meaningful only when `ok`.
  void OnProbe(bool ok, sim::Duration rtt) {
    err_ewma_ =
        kErrorAlpha * (ok ? 0.0 : 1.0) + (1.0 - kErrorAlpha) * err_ewma_;
    if (!ok) return;
    const double r = static_cast<double>(rtt.nanos());
    if (baseline_count_ < options_.baseline_probes) {
      baseline_sum_ += r;
      ++baseline_count_;
      ewma_rtt_ = r;  // seed the EWMA while the baseline is learning
      if (baseline_count_ == options_.baseline_probes) {
        baseline_ = baseline_sum_ / static_cast<double>(baseline_count_);
      }
      return;
    }
    ewma_rtt_ =
        options_.rtt_alpha * r + (1.0 - options_.rtt_alpha) * ewma_rtt_;
  }

  // Forget everything (target went down / was readmitted): the baseline
  // re-learns, so a post-recovery "normal" can differ from the old one.
  void Reset() {
    baseline_ = 0.0;
    baseline_sum_ = 0.0;
    baseline_count_ = 0;
    ewma_rtt_ = 0.0;
    err_ewma_ = 0.0;
  }

  double score() const {
    const double err_term = 1.0 - err_ewma_;
    if (baseline_ <= 0.0 || ewma_rtt_ <= 0.0) {
      // RTT term not learned yet: treat it as nominal.
      return kRttWeight + (1.0 - kRttWeight) * err_term;
    }
    const double rtt_term = std::min(1.0, baseline_ / ewma_rtt_);
    return kRttWeight * rtt_term + (1.0 - kRttWeight) * err_term;
  }

  // Measured slowdown vs. the learned baseline (1.0 until learned). This
  // is what slowdown-triggered hedging keys on.
  double slowdown() const {
    return baseline_ > 0.0 && ewma_rtt_ > 0.0 ? ewma_rtt_ / baseline_ : 1.0;
  }

  bool baseline_learned() const { return baseline_ > 0.0; }

 private:
  HealthScoreOptions options_;
  double baseline_ = 0.0;      // mean of the first N successful RTTs (ns)
  double baseline_sum_ = 0.0;
  int baseline_count_ = 0;
  double ewma_rtt_ = 0.0;      // EWMA of successful RTTs (ns)
  double err_ewma_ = 0.0;      // EWMA of the 0/1 failure indicator
};

// Throws std::invalid_argument on out-of-range knobs of an enabled score
// (no baseline probe, rtt_alpha outside (0, 1], thresholds outside (0, 1)
// or inverted).
void Validate(const HealthScoreOptions& options);

}  // namespace olympian::serving
