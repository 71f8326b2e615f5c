#include "serving/health_tracker.h"

namespace olympian::serving {

const char* ToString(Health h) {
  switch (h) {
    case Health::kHealthy:
      return "healthy";
    case Health::kDegraded:
      return "degraded";
    case Health::kDown:
      return "down";
    case Health::kRecovering:
      return "recovering";
  }
  return "unknown";
}

HealthTracker::HealthTracker(std::size_t num_targets,
                             const HealthScoreOptions& score)
    : score_options_(score) {
  Validate(score_options_);
  Target proto;
  proto.score = HealthScore(score_options_);
  targets_.assign(num_targets, proto);
}

bool HealthTracker::Transition(std::size_t t, Health to, sim::TimePoint at) {
  Target& target = targets_.at(t);
  if (target.health == to) return false;
  transitions_.push_back(
      HealthTransition{.target = t, .from = target.health, .to = to, .at = at});
  target.health = to;
  return true;
}

bool HealthTracker::BeginOutage(std::size_t t, sim::TimePoint at) {
  Target& target = targets_.at(t);
  if (target.health == Health::kDown || target.health == Health::kRecovering) {
    return false;
  }
  target.down_since = at;
  ++target.down_events;
  return true;
}

void HealthTracker::EndOutage(std::size_t t, sim::TimePoint at) {
  Target& target = targets_.at(t);
  mttr_incidents_.push_back(
      MttrIncident{.target = t, .mttr = at - target.down_since});
  target.score.Reset();
  target.score_degraded = false;
}

std::vector<sim::Duration> HealthTracker::MttrIncidents(std::size_t t) const {
  std::vector<sim::Duration> out;
  for (const MttrIncident& m : mttr_incidents_) {
    if (m.target == t) out.push_back(m.mttr);
  }
  return out;
}

sim::Duration HealthTracker::Mttr(std::size_t t) const {
  const std::vector<sim::Duration> incidents = MttrIncidents(t);
  sim::Duration total;
  for (const sim::Duration d : incidents) total += d;
  return incidents.empty()
             ? sim::Duration::Zero()
             : total / static_cast<std::int64_t>(incidents.size());
}

HealthTracker::ScoreEdge HealthTracker::UpdateScoreLatch(std::size_t t) {
  Target& target = targets_.at(t);
  const double sc = target.score.score();
  if (!target.score_degraded) {
    if (sc < score_options_.degrade_below) {
      target.score_degraded = true;
      if (target.health == Health::kHealthy) return ScoreEdge::kDegrade;
    }
    return ScoreEdge::kNone;
  }
  if (sc >= score_options_.recover_above) {
    target.score_degraded = false;
    if (target.health == Health::kDegraded) return ScoreEdge::kRecover;
  }
  return ScoreEdge::kNone;
}

}  // namespace olympian::serving
