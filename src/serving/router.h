#pragma once

#include <cstdint>
#include <vector>

#include "metrics/counters.h"
#include "metrics/incident.h"
#include "metrics/registry.h"
#include "serving/health_tracker.h"
#include "sim/environment.h"
#include "sim/task.h"
#include "sim/time.h"

namespace olympian::serving {

// The router's client retry budget for genuine failures: a request gives up
// as kFailed once this many budgeted retries have failed too. Failover
// re-admissions are free, mirroring the device-failover contract; each
// budgeted retry waits kRejectBackoff.
inline constexpr int kRouterMaxRetries = 2;
// How long the router waits on an unanswered probe or a request lost to a
// partition before declaring the attempt failed.
inline constexpr sim::Duration kProbeTimeout = sim::Duration::Millis(10);
// Service time of one probe on a fully-healthy server. Charged by the
// cluster transport ONLY when scoring is enabled, divided by the server's
// current capacity — this is what makes a fractional-capacity fault visible
// in the probe RTT the score is learned from.
inline constexpr sim::Duration kProbeService = sim::Duration::Millis(1);
// Minimum virtual time between brownout shed-level moves (anti-flap dwell).
inline constexpr sim::Duration kBrownoutMinDwell = sim::Duration::Millis(50);

struct RouterOptions {
  // Health-aware routing with cross-server failover. Off = static pin: every
  // request of a client goes to its home server no matter what (the
  // no-failover baseline the cluster bench compares against).
  bool failover = true;
  // Heartbeat cadence per server (zero disables probing; the health view
  // then moves only on request outcomes).
  sim::Duration probe_interval = sim::Duration::Millis(20);
  // Consecutive errors (probe or request) before a server is marked down.
  int down_after_errors = 3;
  // Consecutive probe successes a down server must string together before
  // it is routed again (the recovering warm-up window).
  int recovery_successes = 2;
  // One-way router <-> server network latency.
  sim::Duration net_delay = sim::Duration::Micros(200);
  // Gray-failure detection: continuous health scoring from probe RTTs.
  // When enabled, hysteresis thresholds own the healthy <-> degraded
  // transitions (the legacy one-error degrade and success-clears edges are
  // skipped; down/recovering semantics are unchanged) and Route() switches
  // to score-weighted selection. Off by default: zero behavior change.
  HealthScoreOptions score;
  // Brownout admission control: when the mean routable-server score drops
  // below `enter_below`, the router sheds the lowest remaining priority
  // class (one level per move, hysteresis + kBrownoutMinDwell between
  // moves) and restores classes in reverse order once capacity is back
  // above `exit_above`. The top class is never shed. Requires scoring.
  struct BrownoutOptions {
    bool enabled = false;
    double enter_below = 0.60;
    double exit_above = 0.80;
  };
  BrownoutOptions brownout;
};

// How the router reaches servers. Implemented by the Cluster, which knows
// about partitions, crashes, and hangs; the Router only sees outcomes.
class RouterTransport {
 public:
  virtual ~RouterTransport() = default;
  // One heartbeat round-trip to `server`. Sets `ok` and returns after the
  // RTT (success) or the probe timeout (failure).
  virtual sim::Task Probe(std::size_t server, bool& ok) = 0;
  // Does the server currently have any device accepting traffic? (The
  // router-side fast path mirroring requests_rejected_no_device.)
  virtual bool HasUsableDevice(std::size_t server) const = 0;
};

// Front-end request router: sticky-then-least-loaded placement over N
// servers with a probe-driven health view. The router cannot see inside a
// server, so its HealthTracker states are inferred from probe heartbeats
// and per-request outcomes rather than device signals: kDegraded is an
// error streak below the down threshold (or, with scoring, a low score),
// kDown is a streak that reached it, and kRecovering is a down server
// answering probes again but not yet routed. Single-writer state on the
// deterministic event loop — no locking, fully reproducible.
class Router {
 public:
  static constexpr std::size_t kNoServer = kNoTarget;

  Router(sim::Environment& env, RouterTransport& transport,
         std::size_t num_servers, RouterOptions options,
         metrics::RouterCounters* counters,
         metrics::MetricRegistry* registry = nullptr);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Spawn the per-server probe loops (no-op when probing is disabled).
  void Start();
  // Stop the probe loops so the shared event queue can drain.
  void Stop();

  // Pick a server for one request whose home is `home`: PickTarget over
  // routable servers (every server counts as replica-ready; none is
  // excluded). With failover off, always the home. kNoServer when nothing
  // is routable.
  std::size_t Route(std::size_t home);

  // Outstanding accounting + health feedback from the request path.
  void OnRequestStart(std::size_t server);
  void OnRequestEnd(std::size_t server);
  void OnRequestSuccess(std::size_t server);
  void OnRequestError(std::size_t server);

  // Usable in the health view and holding a device that accepts traffic.
  bool Routable(std::size_t server) const;
  Health health(std::size_t server) const { return tracker_.health(server); }
  std::size_t num_servers() const { return tracker_.size(); }

  // --- gray-failure detection & response --------------------------------

  bool scoring() const { return options_.score.enabled; }
  // Continuous health score of `server` (1.0 when scoring is disabled).
  double score(std::size_t server) const { return tracker_.score(server); }

  // Called by the fault applier when a gray fault opens on `server`; the
  // virtual time from here to the next healthy->degraded/down edge is the
  // detection latency. No-op when scoring is disabled.
  void NoteFaultOnset(std::size_t server);
  const std::vector<sim::Duration>& detection_latencies() const {
    return detection_latencies_;
  }

  // Brownout admission control. `priorities` is the set of client priority
  // classes in the run; shedding drops the *lowest* class first, restores
  // in reverse order. Higher priority value = more important.
  void SetPriorityClasses(std::vector<int> priorities);
  // Should a request of `priority` be rejected at admission right now?
  bool BrownoutSheds(int priority) const;
  int brownout_level() const { return brownout_level_; }

  // Incident-timeline feed: health edges become detection/recovery marks,
  // brownout level increases become global mitigations. May be null.
  void set_incident_log(metrics::IncidentLog* log) { incident_log_ = log; }

  // Every health edge, in order. The recovering->healthy edge count is the
  // number of completed router-visible recoveries.
  const std::vector<HealthTransition>& transitions() const {
    return tracker_.transitions();
  }
  // One entry per completed recovery, across servers in completion order:
  // down-mark to readmission (the router-side MTTR, which includes
  // detection latency).
  std::vector<sim::Duration> mttr_incidents() const;

 private:
  struct Streak {
    int errors = 0;     // consecutive
    int successes = 0;  // consecutive probe successes while recovering
  };

  sim::Task ProbeLoop(std::size_t server);
  void OnResult(std::size_t server, bool ok);
  void Transition(std::size_t server, Health to);
  void UpdateBrownout();

  sim::Environment& env_;
  RouterTransport& transport_;
  RouterOptions options_;
  metrics::RouterCounters* counters_;
  metrics::MetricRegistry* registry_;
  metrics::IncidentLog* incident_log_ = nullptr;
  HealthTracker tracker_;
  std::vector<Streak> streaks_;
  std::vector<std::uint64_t> outstanding_;
  // Gray-failure state (all empty/zero when scoring is disabled).
  std::vector<sim::TimePoint> fault_onset_;   // valid iff onset_armed_[s]
  std::vector<bool> onset_armed_;
  std::vector<sim::Duration> detection_latencies_;
  std::vector<int> priority_classes_;         // ascending, unique
  int brownout_level_ = 0;  // classes currently shed (0 = none)
  sim::TimePoint last_brownout_move_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace olympian::serving
