#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "serving/health_score.h"
#include "sim/time.h"

namespace olympian::serving {

// Routing-facing classification of one target: a device (HealthMonitor) or
// a server (Router). The tiers differ only in which signals move a target.
enum class Health : std::uint8_t {
  kHealthy = 0,  // serving normally
  kDegraded,     // serving, but impaired (hang, alloc faults, error streak,
                 // or a score below the hysteresis threshold)
  kDown,         // not serving: outage detected
  kRecovering,   // back up; warming before readmission, takes no traffic
};

const char* ToString(Health h);

// One observed health-state edge, in transition order across all targets.
struct HealthTransition {
  std::size_t target = 0;
  Health from = Health::kHealthy;
  Health to = Health::kHealthy;
  sim::TimePoint at;
};

// One completed outage episode: first down edge to readmission.
struct MttrIncident {
  std::size_t target = 0;
  sim::Duration mttr;
};

// The failure-handling core both tiers share: per-target health state, the
// transition log, outage episodes and their MTTR, and the probe-RTT health
// score with its hysteresis latch. Pure bookkeeping — no clock, no events;
// the owning tier decides *when* to move a target and adds its own side
// effects (counters, tracer, registry) around each edge.
class HealthTracker {
 public:
  // What a score update asks the owning tier to do (see UpdateScoreLatch).
  enum class ScoreEdge : std::uint8_t { kNone = 0, kDegrade, kRecover };

  HealthTracker(std::size_t num_targets, const HealthScoreOptions& score);

  std::size_t size() const { return targets_.size(); }
  Health health(std::size_t t) const { return targets_.at(t).health; }
  // Takes traffic: healthy or degraded.
  bool Usable(std::size_t t) const {
    const Health h = health(t);
    return h == Health::kHealthy || h == Health::kDegraded;
  }
  // Moves `t` to `to` and logs the edge; false when already in `to`.
  bool Transition(std::size_t t, Health to, sim::TimePoint at);
  const std::vector<HealthTransition>& transitions() const {
    return transitions_;
  }

  // Opens an outage episode unless `t` is already down or recovering (a
  // relapse stays in the open episode, so MTTR runs from the first down
  // edge); true when it opened one. The caller makes the kDown transition.
  bool BeginOutage(std::size_t t, sim::TimePoint at);
  // Closes the episode: records its MTTR and resets score and latch (the
  // baseline re-learns; the error EWMA of the outage must not re-degrade
  // the readmitted target). The caller makes the kHealthy transition.
  void EndOutage(std::size_t t, sim::TimePoint at);
  sim::TimePoint down_since(std::size_t t) const {
    return targets_.at(t).down_since;
  }
  std::uint64_t down_events(std::size_t t) const {
    return targets_.at(t).down_events;
  }
  // Completed episodes of every target, in completion order.
  const std::vector<MttrIncident>& mttr_incidents() const {
    return mttr_incidents_;
  }
  // The completed episodes of `t` alone, and their mean (zero if none).
  std::vector<sim::Duration> MttrIncidents(std::size_t t) const;
  sim::Duration Mttr(std::size_t t) const;

  bool scoring() const { return score_options_.enabled; }
  // Continuous health score of `t` (1.0 when scoring is disabled).
  double score(std::size_t t) const {
    return scoring() ? targets_.at(t).score.score() : 1.0;
  }
  void OnProbe(std::size_t t, bool ok, sim::Duration rtt) {
    targets_.at(t).score.OnProbe(ok, rtt);
  }
  // Hysteresis latch: set when the score drops below degrade_below, cleared
  // at recover_above. While set, no other signal may clear a degraded
  // target.
  bool score_degraded(std::size_t t) const {
    return targets_.at(t).score_degraded;
  }
  // Re-evaluates the latch after a probe: kDegrade when it just set on a
  // healthy target, kRecover when it just cleared on a degraded one. The
  // caller makes (or, for its own reasons, withholds) the transition.
  ScoreEdge UpdateScoreLatch(std::size_t t);

 private:
  struct Target {
    Health health = Health::kHealthy;
    sim::TimePoint down_since;
    std::uint64_t down_events = 0;
    HealthScore score;
    bool score_degraded = false;
  };

  HealthScoreOptions score_options_;
  std::vector<Target> targets_;
  std::vector<HealthTransition> transitions_;
  std::vector<MttrIncident> mttr_incidents_;
};

inline constexpr std::size_t kNoTarget = static_cast<std::size_t>(-1);

// The one sticky-then-least-loaded pick both tiers route with. `home` wins
// unless it is `exclude`, not `usable`, or — with scoring on — not kHealthy
// (routing inherits the hysteresis margin). Otherwise, over usable targets
// but `exclude`: unscored, healthy before degraded, `ready` before not,
// fewer `outstanding`, lower index; scored, max score / (1 + outstanding),
// then `ready`, then lower index. kNoTarget when nothing is usable. The
// predicates are template parameters, so a pick never allocates.
template <typename Usable, typename Ready>
std::size_t PickTarget(const HealthTracker& tracker,
                       const std::vector<std::uint64_t>& outstanding,
                       std::size_t home, std::size_t exclude,
                       const Usable& usable, const Ready& ready) {
  const std::size_t n = outstanding.size();
  const bool scored = tracker.scoring();
  if (home != exclude && home < n && usable(home) &&
      (!scored || tracker.health(home) == Health::kHealthy)) {
    return home;
  }
  // The incumbent's rank; its initial values lose to any usable target.
  std::size_t best = kNoTarget;
  bool best_healthy = false;
  bool best_ready = false;
  double best_weight = -1.0;
  std::uint64_t best_load = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == exclude || !usable(i)) continue;
    const bool healthy = tracker.health(i) == Health::kHealthy;
    const bool is_ready = ready(i);
    const double weight =
        scored ? tracker.score(i) / (1.0 + static_cast<double>(outstanding[i]))
               : 0.0;
    // Strict preference keeps every tie on the lowest index.
    bool better;
    if (scored) {
      better = weight > best_weight ||
               (weight == best_weight && is_ready && !best_ready);
    } else if (healthy != best_healthy) {
      better = healthy;
    } else if (is_ready != best_ready) {
      better = is_ready;
    } else {
      better = outstanding[i] < best_load;
    }
    if (better) {
      best = i;
      best_healthy = healthy;
      best_ready = is_ready;
      best_weight = weight;
      best_load = outstanding[i];
    }
  }
  return best;
}

}  // namespace olympian::serving
