#include "probe.h"

#include <algorithm>
#include <array>

namespace perfbench {

namespace og = olympian::graph;

std::int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::int64_t ClockCostNs() {
  static const std::int64_t cost = [] {
    std::array<std::int64_t, 101> samples{};
    for (auto& s : samples) {
      const std::int64_t t0 = NowNs();
      for (int i = 0; i < 100; ++i) (void)NowNs();
      s = (NowNs() - t0) / 100;
    }
    std::nth_element(samples.begin(), samples.begin() + 50, samples.end());
    return samples[50];
  }();
  return cost;
}

int SpanLog::Begin(const char* name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, NowNs(), -1, parent});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
}

void SpanLog::Add(const char* name, std::int64_t start_ns,
                  std::int64_t end_ns, int parent) {
  if (enabled_) spans_.push_back({name, start_ns, end_ns, parent});
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  // Children of one parent never overlap (the benchmark is single-threaded
  // and spans nest), so subtracting each child's duration from its parent
  // removes exactly the covered part.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i] * 1e-9;
  }
  return out;
}

void SpanLog::WriteJson(std::ostream& os) const {
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << "}";
  }
  os << "],\n\"self_s\":{";
  bool first = true;
  for (const auto& [name, secs] : SelfSeconds()) {
    os << (first ? "" : ",") << "\"" << name << "\":" << secs;
    first = false;
  }
  os << "}}\n";
}

// --- TimedHooks ---------------------------------------------------------

void TimedHooks::Sampled(std::int64_t t0, std::int64_t t1) const {
  ++sampled_;
  sampled_ns_ += std::max<std::int64_t>(0, t1 - t0 - clock_cost_ns_);
  spans_.Add("core.hook", t0, t1, parent_);
}

double TimedHooks::host_s() const {
  if (sampled_ == 0) return 0.0;
  const double per_call = static_cast<double>(sampled_ns_) /
                          static_cast<double>(sampled_);
  return per_call * static_cast<double>(calls_ - yield_calls_) * 1e-9;
}

void TimedHooks::RegisterRun(og::JobContext& ctx) {
  Timed([&] { inner_.RegisterRun(ctx); });
}

void TimedHooks::DeregisterRun(og::JobContext& ctx) {
  Timed([&] { inner_.DeregisterRun(ctx); });
}

bool TimedHooks::NeedsYield(const og::JobContext& ctx) const {
  return Timed([&] { return inner_.NeedsYield(ctx); });
}

void TimedHooks::OnNodeComputed(og::JobContext& ctx, const og::Node& node) {
  Timed([&] { inner_.OnNodeComputed(ctx, node); });
}

void TimedHooks::CancelRun(og::JobContext& ctx) {
  Timed([&] { inner_.CancelRun(ctx); });
}

void TimedHooks::OnDeviceDown() {
  Timed([&] { inner_.OnDeviceDown(); });
}

void TimedHooks::OnDeviceUp() {
  Timed([&] { inner_.OnDeviceUp(); });
}

void TimedHooks::OnSample(olympian::metrics::MetricRegistry& registry,
                          olympian::sim::TimePoint now, std::size_t device) {
  Timed([&] { inner_.OnSample(registry, now, device); });
}

olympian::sim::Task TimedHooks::Yield(og::JobContext& ctx) {
  ++calls_;
  ++yield_calls_;
  return TimedYield(ctx);
}

olympian::sim::Task TimedHooks::TimedYield(og::JobContext& ctx) {
  // Awaiting a Task is a symmetric transfer, not an event, so this wrapper
  // leaves the simulated event sequence unchanged.
  const olympian::sim::TimePoint t0 = env_.Now();
  co_await inner_.Yield(ctx);
  const std::int64_t waited = (env_.Now() - t0).nanos();
  if (waited > 0) {
    ++yield_suspends_;
    token_wait_ns_ += waited;
  }
}

}  // namespace perfbench
