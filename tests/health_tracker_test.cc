// Tests for the failure-handling core both tiers share: the one
// sticky-then-least-loaded pick (PickTarget) that the device Placer and the
// cluster Router route with, one table row per rung of its preference
// order.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "metrics/counters.h"
#include "serving/health_tracker.h"
#include "serving/router.h"
#include "sim/environment.h"
#include "sim/task.h"

namespace olympian {
namespace {

using serving::Health;
using serving::kNoTarget;
using sim::Duration;
using sim::TimePoint;

// Every server always reachable with a usable device; the router's view
// then moves only on the request errors a row feeds it.
struct FakeTransport final : serving::RouterTransport {
  sim::Task Probe(std::size_t server, bool& ok) override {
    (void)server;
    ok = true;
    co_return;
  }
  bool HasUsableDevice(std::size_t server) const override {
    (void)server;
    return true;
  }
};

struct PickRow {
  const char* rung;
  std::vector<Health> health;
  std::vector<std::uint64_t> outstanding;
  // Probe RTT multiple of the learned baseline per target (1 = nominal,
  // 2 = score 0.65); empty runs the pick unscored.
  std::vector<double> slowdown = {};
  // Replica-ready targets; empty means every target is ready.
  std::vector<bool> ready = {};
  std::size_t home = 0;
  std::size_t exclude = kNoTarget;
  // false routes through a Router with failover off instead of the picker.
  bool failover = true;
  std::size_t want = kNoTarget;
};

serving::HealthScoreOptions RowScoring(const PickRow& row) {
  serving::HealthScoreOptions score;
  score.enabled = !row.slowdown.empty();
  score.baseline_probes = 1;
  score.rtt_alpha = 1.0;  // the score reflects the latest probe alone
  return score;
}

std::size_t PickViaTracker(const PickRow& row) {
  serving::HealthTracker tracker(row.health.size(), RowScoring(row));
  for (std::size_t t = 0; t < row.health.size(); ++t) {
    tracker.Transition(t, row.health[t], TimePoint());
    if (tracker.scoring()) {
      tracker.OnProbe(t, true, Duration::Millis(1));  // learns the baseline
      tracker.OnProbe(t, true, Duration::Millis(1) * row.slowdown[t]);
    }
  }
  return serving::PickTarget(
      tracker, row.outstanding, row.home, row.exclude,
      [&](std::size_t t) { return tracker.Usable(t); },
      [&](std::size_t t) { return row.ready.empty() || row.ready[t]; });
}

// The router's own path: its static pin sits in front of the picker. Only
// down servers are modelled (down_after_errors request errors each).
std::size_t PickViaRouter(const PickRow& row) {
  sim::Environment env;
  FakeTransport transport;
  serving::RouterOptions ro;
  ro.failover = row.failover;
  ro.probe_interval = Duration::Zero();
  metrics::RouterCounters counters;
  serving::Router router(env, transport, row.health.size(), ro, counters);
  for (std::size_t s = 0; s < row.health.size(); ++s) {
    if (row.health[s] != Health::kDown) continue;
    for (int e = 0; e < ro.down_after_errors; ++e) router.OnRequestError(s);
  }
  return router.Route(row.home);
}

TEST(PickTargetTest, OneRowPerTieBreakRung) {
  const std::vector<PickRow> rows = {
      {.rung = "degraded ranks after healthy",
       .health = {Health::kDown, Health::kDegraded, Health::kHealthy},
       .outstanding = {0, 0, 5},
       .want = 2},
      {.rung = "replica-ready beats must-load",
       .health = {Health::kDown, Health::kHealthy, Health::kHealthy},
       .outstanding = {0, 0, 5},
       .ready = {true, false, true},
       .want = 2},
      {.rung = "fewer outstanding wins",
       .health = {Health::kDown, Health::kHealthy, Health::kHealthy},
       .outstanding = {0, 3, 1},
       .want = 2},
      {.rung = "a full tie goes to the lower index",
       .health = {Health::kDown, Health::kHealthy, Health::kHealthy},
       .outstanding = {0, 2, 2},
       .want = 1},
      {.rung = "scored: max score / (1 + outstanding), degraded or not",
       .health = {Health::kDown, Health::kHealthy, Health::kDegraded},
       .outstanding = {0, 1, 0},
       .slowdown = {1, 1, 2},  // weights -, 0.5, 0.65
       .want = 2},
      {.rung = "scored: at equal weight replica-ready wins",
       .health = {Health::kDown, Health::kHealthy, Health::kHealthy},
       .outstanding = {0, 1, 1},
       .slowdown = {1, 1, 1},
       .ready = {true, false, true},
       .want = 2},
      {.rung = "exclude removes the home",
       .health = {Health::kHealthy, Health::kHealthy, Health::kHealthy},
       .outstanding = {0, 0, 0},
       .exclude = 0,
       .want = 1},
      {.rung = "unscored: a degraded home stays sticky",
       .health = {Health::kDegraded, Health::kHealthy, Health::kHealthy},
       .outstanding = {4, 0, 0},
       .want = 0},
      {.rung = "scored: a score-degraded home is not sticky",
       .health = {Health::kDegraded, Health::kHealthy, Health::kHealthy},
       .outstanding = {1, 1, 1},
       .slowdown = {2, 1, 1},  // weights 0.325, 0.5, 0.5
       .want = 1},
      {.rung = "nothing usable",
       .health = {Health::kDown, Health::kRecovering},
       .outstanding = {0, 0},
       .want = kNoTarget},
      {.rung = "failover=false pins to home",
       .health = {Health::kDown, Health::kHealthy, Health::kHealthy},
       .outstanding = {0, 0, 0},
       .failover = false,
       .want = 0},
  };
  for (const PickRow& row : rows) {
    SCOPED_TRACE(row.rung);
    EXPECT_EQ(row.failover ? PickViaTracker(row) : PickViaRouter(row),
              row.want);
  }
}

}  // namespace
}  // namespace olympian
