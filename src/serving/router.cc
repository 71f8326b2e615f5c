#include "serving/router.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace olympian::serving {

Router::Router(sim::Environment& env, RouterTransport& transport,
               std::size_t num_servers, RouterOptions options,
               metrics::RouterCounters* counters,
               metrics::MetricRegistry* registry)
    : env_(env),
      transport_(transport),
      options_(options),
      counters_(counters),
      registry_(registry),
      tracker_(num_servers, options_.score),
      streaks_(num_servers),
      outstanding_(num_servers, 0) {
  if (num_servers < 1) throw std::invalid_argument("Router needs >= 1 server");
  if (options_.down_after_errors < 1 || options_.recovery_successes < 1) {
    throw std::invalid_argument(
        "down_after_errors and recovery_successes must be >= 1");
  }
  if (options_.brownout.enabled) {
    if (!options_.score.enabled) {
      throw std::invalid_argument("brownout requires health scoring");
    }
    if (!(options_.brownout.enter_below > 0.0) ||
        options_.brownout.enter_below >= options_.brownout.exit_above ||
        options_.brownout.exit_above > 1.0) {
      throw std::invalid_argument(
          "brownout needs 0 < enter_below < exit_above <= 1");
    }
  }
  if (options_.score.enabled) {
    fault_onset_.resize(num_servers);
    onset_armed_.assign(num_servers, false);
  }
}

void Router::Start() {
  if (started_) throw std::logic_error("Router::Start called twice");
  started_ = true;
  if (options_.probe_interval <= sim::Duration::Zero()) return;
  for (std::size_t s = 0; s < num_servers(); ++s) {
    env_.Spawn(ProbeLoop(s), "router/probe-server" + std::to_string(s));
  }
}

void Router::Stop() { stopped_ = true; }

std::size_t Router::Route(std::size_t home) {
  if (!options_.failover) return home;  // static pin baseline
  return PickTarget(
      tracker_, outstanding_, home, kNoServer,
      [this](std::size_t s) { return Routable(s); },
      [](std::size_t) { return true; });
}

void Router::OnRequestStart(std::size_t server) {
  ++outstanding_.at(server);
  if (counters_ != nullptr) ++counters_->requests_routed;
}

void Router::OnRequestEnd(std::size_t server) {
  --outstanding_.at(server);
}

void Router::OnRequestSuccess(std::size_t server) {
  // A served request proves liveness but says nothing about warm-up, so it
  // clears the error streak without advancing the recovering hand-shake.
  // With scoring on, the hysteresis thresholds own the degraded->healthy
  // edge — one fast request must not clear a measured slowdown.
  streaks_.at(server).errors = 0;
  if (!scoring() && tracker_.health(server) == Health::kDegraded) {
    Transition(server, Health::kHealthy);
  }
}

void Router::OnRequestError(std::size_t server) { OnResult(server, false); }

bool Router::Routable(std::size_t server) const {
  return tracker_.Usable(server) && transport_.HasUsableDevice(server);
}

std::vector<sim::Duration> Router::mttr_incidents() const {
  std::vector<sim::Duration> out;
  for (const MttrIncident& m : tracker_.mttr_incidents()) {
    out.push_back(m.mttr);
  }
  return out;
}

sim::Task Router::ProbeLoop(std::size_t server) {
  for (;;) {
    co_await env_.Delay(options_.probe_interval);
    if (stopped_) co_return;
    if (counters_ != nullptr) ++counters_->probes_sent;
    bool ok = false;
    const sim::TimePoint sent = env_.Now();
    co_await transport_.Probe(server, ok);
    if (stopped_) co_return;
    const sim::Duration rtt = env_.Now() - sent;
    if (!ok && counters_ != nullptr) ++counters_->probe_failures;
    if (registry_ != nullptr && ok) {
      // The gray-degradation signal as the router saw it, per server.
      registry_
          ->GetSeries("olympian_router_probe_rtt_ms",
                      {{"server", std::to_string(server)}})
          .Sample(env_.Now(), rtt.millis());
    }
    if (scoring()) tracker_.OnProbe(server, ok, rtt);
    OnResult(server, ok);
    if (!scoring()) continue;
    const HealthTracker::ScoreEdge edge = tracker_.UpdateScoreLatch(server);
    if (edge == HealthTracker::ScoreEdge::kDegrade) {
      if (counters_ != nullptr) ++counters_->score_degrade_events;
      Transition(server, Health::kDegraded);
    } else if (edge == HealthTracker::ScoreEdge::kRecover) {
      if (counters_ != nullptr) ++counters_->score_recover_events;
      Transition(server, Health::kHealthy);
    }
    UpdateBrownout();
  }
}

void Router::OnResult(std::size_t server, bool ok) {
  Streak& st = streaks_.at(server);
  const Health h = tracker_.health(server);
  if (ok) {
    st.errors = 0;
    switch (h) {
      case Health::kHealthy:
        break;
      case Health::kDegraded:
        // Under scoring the hysteresis owns this edge: one fast probe must
        // not clear a measured slowdown (the score latch recovers it).
        if (!scoring()) Transition(server, Health::kHealthy);
        break;
      case Health::kDown:
        st.successes = 1;
        Transition(server, Health::kRecovering);
        break;
      case Health::kRecovering:
        // Not routed until the warm-up hand-shake completes: the server must
        // answer `recovery_successes` consecutive probes before traffic.
        if (++st.successes >= options_.recovery_successes) {
          tracker_.EndOutage(server, env_.Now());
          if (counters_ != nullptr) ++counters_->server_readmissions;
          Transition(server, Health::kHealthy);
        }
        break;
    }
    return;
  }
  st.successes = 0;
  ++st.errors;
  switch (h) {
    case Health::kDown:
      break;
    case Health::kRecovering:
      // Relapse: same outage episode, so the eventual MTTR covers the whole
      // incident.
      Transition(server, Health::kDown);
      break;
    case Health::kHealthy:
    case Health::kDegraded:
      if (st.errors >= options_.down_after_errors) {
        tracker_.BeginOutage(server, env_.Now());
        if (counters_ != nullptr) ++counters_->server_down_events;
        Transition(server, Health::kDown);
      } else if (!scoring() && h == Health::kHealthy) {
        // With scoring on, a single error only feeds the error EWMA; the
        // hysteresis check owns the healthy->degraded edge.
        Transition(server, Health::kDegraded);
      }
      break;
  }
}

void Router::Transition(std::size_t server, Health to) {
  const Health from = tracker_.health(server);
  if (from == to) return;
  // Detection latency: an armed gray-fault onset is consumed by the first
  // away-from-healthy edge; going back to healthy discards a stale onset
  // (the window closed before the router ever noticed).
  if (scoring() && !onset_armed_.empty() && onset_armed_[server]) {
    if (to == Health::kDegraded || to == Health::kDown) {
      const sim::Duration lat = env_.Now() - fault_onset_[server];
      detection_latencies_.push_back(lat);
      onset_armed_[server] = false;
      if (registry_ != nullptr) {
        registry_->GetHistogram("olympian_router_detection_latency_ms")
            .Observe(lat.millis());
      }
    } else if (to == Health::kHealthy) {
      onset_armed_[server] = false;
    }
  }
  if (incident_log_ != nullptr) {
    // The incident log's notion of "healthy" is the router's top state; any
    // away-edge is a detection, the return edge is the recovery.
    incident_log_->HealthTransition(static_cast<int>(server),
                                    from == Health::kHealthy,
                                    to == Health::kHealthy, env_.Now());
  }
  tracker_.Transition(server, to, env_.Now());
  if (counters_ != nullptr) ++counters_->server_transitions;
  if (registry_ != nullptr) {
    registry_
        ->GetSeries("olympian_server_health",
                    {{"server", std::to_string(server)}})
        .Sample(env_.Now(), static_cast<double>(static_cast<int>(to)));
  }
}

void Router::NoteFaultOnset(std::size_t server) {
  if (!scoring()) return;
  // Only arm from the healthy state: a fault landing on an already
  // degraded/down server has no healthy->degraded edge to measure.
  if (tracker_.health(server) != Health::kHealthy) return;
  if (onset_armed_[server]) return;  // overlapping windows: first onset wins
  onset_armed_[server] = true;
  fault_onset_[server] = env_.Now();
}

void Router::SetPriorityClasses(std::vector<int> priorities) {
  std::sort(priorities.begin(), priorities.end());
  priorities.erase(std::unique(priorities.begin(), priorities.end()),
                   priorities.end());
  priority_classes_ = std::move(priorities);
}

bool Router::BrownoutSheds(int priority) const {
  if (brownout_level_ <= 0) return false;
  // Classes are sorted ascending; the lowest `brownout_level_` of them are
  // shed. A priority below every known class sheds with the lowest one.
  std::size_t rank = 0;
  while (rank < priority_classes_.size() &&
         priority_classes_[rank] < priority) {
    ++rank;
  }
  return rank < static_cast<std::size_t>(brownout_level_);
}

void Router::UpdateBrownout() {
  if (!options_.brownout.enabled || priority_classes_.empty()) return;
  const sim::TimePoint now = env_.Now();
  if (brownout_level_ != 0 || last_brownout_move_ > sim::TimePoint()) {
    if (now - last_brownout_move_ < kBrownoutMinDwell) return;
  }
  // Aggregate capacity: mean score over routable servers, with unroutable
  // servers contributing zero — a down server is lost capacity too.
  double total = 0.0;
  for (std::size_t s = 0; s < num_servers(); ++s) {
    if (Routable(s)) total += tracker_.score(s);
  }
  const double cap = total / static_cast<double>(num_servers());
  // The highest class is never shed: brownout degrades, it never blacks out.
  const int max_level = static_cast<int>(priority_classes_.size()) - 1;
  const int before = brownout_level_;
  if (cap < options_.brownout.enter_below && brownout_level_ < max_level) {
    if (brownout_level_ == 0 && counters_ != nullptr) {
      ++counters_->brownout_entries;
    }
    ++brownout_level_;
    last_brownout_move_ = now;
  } else if (cap >= options_.brownout.exit_above && brownout_level_ > 0) {
    --brownout_level_;
    if (brownout_level_ == 0 && counters_ != nullptr) {
      ++counters_->brownout_exits;
    }
    last_brownout_move_ = now;
  }
  if (brownout_level_ != before && registry_ != nullptr) {
    registry_->GetSeries("olympian_brownout_level", {})
        .Sample(now, static_cast<double>(brownout_level_));
  }
  if (brownout_level_ > before && incident_log_ != nullptr) {
    // Shedding a class is a global load-shifting action: it mitigates every
    // open, detected incident that nothing else has addressed yet.
    incident_log_->Mitigation(-1, "brownout", now);
  }
}

}  // namespace olympian::serving
