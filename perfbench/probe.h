#pragma once

// Host-time probes the benchmark places around the calls it makes into the
// library: an in-memory span log, written once when the benchmark exits,
// and a SchedulingHooks decorator that counts and samples the Olympian
// scheduler's hook calls. Nothing here reaches inside src/; every number is
// taken at a public API boundary.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "graph/hooks.h"
#include "sim/environment.h"

namespace perfbench {

// Nanoseconds on the steady clock since the first call in this process.
std::int64_t NowNs();

// Median cost of one NowNs() call, measured once; sampled hook timings
// subtract it so the probe's own clock reads are not charged to the hook.
std::int64_t ClockCostNs();

class SpanLog {
 public:
  struct Span {
    const char* name;  // string literal
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index into spans(), -1 for a root
  };

  // A disabled log records nothing: Begin returns -1 and End ignores it.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, int parent = -1);
  void End(int index);
  // Records an already measured interval (the sampled hook calls).
  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           int parent);

  const std::vector<Span>& spans() const { return spans_; }
  // Seconds per span name of duration minus the part covered by children.
  std::map<std::string, double> SelfSeconds() const;
  void WriteJson(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent = -1)
      : log_(log), index_(log.Begin(name, parent)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// Seconds elapsed since `start_ns` (a NowNs() reading).
inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Decorator around one device's scheduler. Every call is counted; one call
// in kSampleEvery is timed with two clock reads and recorded as a span
// under `parent`, and the hook's host time is estimated from the samples.
// Timing every call would cost two clock reads per node, more than the
// hooks themselves. Yield's host time is not separable from the outside:
// the coroutine body runs when the executor resumes it, so Yield is counted
// and its virtual-time wait for the token is measured instead.
class TimedHooks final : public olympian::graph::SchedulingHooks {
 public:
  static constexpr std::uint64_t kSampleEvery = 32;

  TimedHooks(olympian::graph::SchedulingHooks& inner,
             olympian::sim::Environment& env, SpanLog& spans, int parent)
      : inner_(inner), env_(env), spans_(spans), parent_(parent),
        clock_cost_ns_(ClockCostNs()) {}
  // The experiment holds this object's address as its hooks.
  TimedHooks(const TimedHooks&) = delete;
  TimedHooks& operator=(const TimedHooks&) = delete;

  void RegisterRun(olympian::graph::JobContext& ctx) override;
  void DeregisterRun(olympian::graph::JobContext& ctx) override;
  bool NeedsYield(const olympian::graph::JobContext& ctx) const override;
  olympian::sim::Task Yield(olympian::graph::JobContext& ctx) override;
  void OnNodeComputed(olympian::graph::JobContext& ctx,
                      const olympian::graph::Node& node) override;
  void CancelRun(olympian::graph::JobContext& ctx) override;
  void OnDeviceDown() override;
  void OnDeviceUp() override;
  void OnSample(olympian::metrics::MetricRegistry& registry,
                olympian::sim::TimePoint now, std::size_t device) override;

  // Span the sampled hook calls are recorded under (the run's span).
  void set_parent(int parent) { parent_ = parent; }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t yield_suspends() const { return yield_suspends_; }
  // Virtual time gangs spent suspended in Yield waiting for the token.
  double token_wait_s() const { return token_wait_ns_ * 1e-9; }
  // Estimated host seconds inside the synchronous hooks.
  double host_s() const;

 private:
  template <typename F>
  auto Timed(F&& f) const {
    if (++calls_ % kSampleEvery != 0) return f();
    const std::int64_t t0 = NowNs();
    struct Stop {
      const TimedHooks& self;
      std::int64_t t0;
      ~Stop() { self.Sampled(t0, NowNs()); }
    } stop{*this, t0};
    return f();
  }
  void Sampled(std::int64_t t0, std::int64_t t1) const;
  olympian::sim::Task TimedYield(olympian::graph::JobContext& ctx);

  olympian::graph::SchedulingHooks& inner_;
  olympian::sim::Environment& env_;
  SpanLog& spans_;
  int parent_;
  std::int64_t clock_cost_ns_;
  // Mutable: NeedsYield is const in the interface but is a counted call.
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t sampled_ = 0;
  mutable std::int64_t sampled_ns_ = 0;
  std::uint64_t yield_calls_ = 0;
  std::uint64_t yield_suspends_ = 0;
  std::int64_t token_wait_ns_ = 0;
};

}  // namespace perfbench
