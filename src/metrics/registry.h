#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace olympian::metrics {

// One (key, value) label pair; a metric name plus a distinct label set is
// one time series in the Prometheus data model.
using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

// Labeled metric registry: counters, gauges, log-bucketed histograms, and
// windowed time series keyed by (name, labels).
//
// Usage pattern: look a handle up once (Get* allocates on first use and
// returns a reference that is stable for the registry's lifetime), then
// hit the handle on the hot path — Counter::Inc / Histogram::Observe /
// TimeSeries::Sample are branch-plus-store cheap and allocation-free apart
// from amortized vector growth, which callers avoid by reserving.
//
// Exports: Prometheus text exposition format (WritePrometheus) and a
// compact JSON timeline of the sampled series (WriteJsonTimeline), the
// latter matching what bench::TimelineJson embeds into BENCH_*.json.
//
// Storage is a std::map over rendered keys, so iteration — and therefore
// every export — is deterministically ordered regardless of registration
// order.
class MetricRegistry {
 public:
  // Monotonic counter.
  class Counter {
   public:
    void Inc(std::uint64_t n = 1) { value_ += n; }
    // Bridge entry point: overwrite with an externally maintained monotonic
    // value (e.g. a ServingCounters field). Idempotent, so periodic
    // re-exports never double-count.
    void Set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }

   private:
    std::uint64_t value_ = 0;
  };

  // Instantaneous value.
  class Gauge {
   public:
    void Set(double v) { value_ = v; }
    void Add(double d) { value_ += d; }
    double value() const { return value_; }

   private:
    double value_ = 0.0;
  };

  // Log-bucketed histogram. Every histogram shares one bucket layout:
  // upper bounds grow geometrically from kFirstBound by kGrowth per bucket,
  // giving constant relative error across many orders of magnitude with a
  // few dozen buckets — 1us .. ~18 minutes when observing milliseconds.
  class Histogram {
   public:
    static constexpr double kFirstBound = 0.001;
    static constexpr double kGrowth = 1.6;
    static constexpr std::size_t kNumBuckets = 44;
    // Upper bounds, one per finite bucket.
    static constexpr std::array<double, kNumBuckets> kBounds = [] {
      std::array<double, kNumBuckets> bounds{};
      double bound = kFirstBound;
      for (double& b : bounds) {
        b = bound;
        bound *= kGrowth;
      }
      return bounds;
    }();

    void Observe(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return min_; }
    double max() const { return max_; }
    // One count per kBounds entry plus an overflow (+Inf) slot at the end.
    // Bucket counts are NON-cumulative here; the Prometheus export
    // accumulates.
    const std::array<std::uint64_t, kNumBuckets + 1>& bucket_counts() const {
      return counts_;
    }
    // Quantile estimate (q in [0,1]) by linear interpolation inside the
    // containing bucket, clamped to the observed min/max.
    double Quantile(double q) const;

    // Folds `src`'s observations into this histogram bucket-wise.
    void MergeFrom(const Histogram& src);

   private:
    std::array<std::uint64_t, kNumBuckets + 1> counts_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
  };

  // Append-only series of (virtual time, value) samples, written by the
  // sampler process on its virtual-clock cadence.
  class TimeSeries {
   public:
    TimeSeries() { points_.reserve(kReserve); }
    void Sample(sim::TimePoint t, double v) {
      points_.emplace_back(t.nanos(), v);
    }
    const std::vector<std::pair<std::int64_t, double>>& points() const {
      return points_;
    }
    bool empty() const { return points_.empty(); }
    double last() const { return points_.empty() ? 0.0 : points_.back().second; }
    // Appends `src`'s samples after this series' own (no re-sorting: merged
    // series are expected to come from disjoint label sets or consecutive
    // time ranges).
    void MergeFrom(const TimeSeries& src) {
      points_.insert(points_.end(), src.points_.begin(), src.points_.end());
    }

   private:
    static constexpr std::size_t kReserve = 1024;
    std::vector<std::pair<std::int64_t, double>> points_;
  };

  // Lookup-or-create. References are stable for the registry's lifetime.
  Counter& GetCounter(std::string_view name, const Labels& labels = {});
  Gauge& GetGauge(std::string_view name, const Labels& labels = {});
  Histogram& GetHistogram(std::string_view name, const Labels& labels = {});
  TimeSeries& GetSeries(std::string_view name, const Labels& labels = {});

  // Folds every instrument of `src` into this registry, splicing `extra`
  // labels into each key (e.g. {{"server","3"}} qualifies per-server deltas
  // before they land in a shared export). Counters add, gauges overwrite,
  // histograms merge bucket-wise, and time series append their samples.
  // Deterministic: `src` iterates in key order.
  void MergeFrom(const MetricRegistry& src, const Labels& extra = {});

  // Lookup-only (nullptr when absent); for tests and report builders.
  const Counter* FindCounter(std::string_view name,
                             const Labels& labels = {}) const;
  const Gauge* FindGauge(std::string_view name,
                         const Labels& labels = {}) const;
  const Histogram* FindHistogram(std::string_view name,
                                 const Labels& labels = {}) const;
  const TimeSeries* FindSeries(std::string_view name,
                               const Labels& labels = {}) const;

  // Deterministically ordered views over every registered instrument; the
  // string is the rendered label block (`{k="v",...}` or empty).
  std::vector<std::tuple<std::string, std::string, const Counter*>>
  Counters() const;
  std::vector<std::tuple<std::string, std::string, const TimeSeries*>>
  Series() const;

  // Prometheus text exposition format 0.0.4: counters as `_total`-style
  // monotonic values, gauges, histograms with cumulative `_bucket{le=...}`
  // rows ending in `+Inf` plus `_sum`/`_count`, and each time series'
  // latest sample as a gauge.
  void WritePrometheus(std::ostream& os) const;

  // Compact JSON timeline: {"series":[{"name":...,"labels":{...},
  // "points":[[t_ns,value],...]},...]} — the machine-readable companion of
  // the sampler output, consumed by bench::TimelineJson and the tour
  // example.
  void WriteJsonTimeline(std::ostream& os) const;

 private:
  struct Key {
    std::string name;
    std::string labels;  // rendered `{k="v",...}`, empty when unlabeled
    auto operator<=>(const Key&) const = default;
  };
  static std::string RenderLabels(const Labels& labels);

  template <typename T>
  static T& GetOrCreate(std::map<Key, std::unique_ptr<T>>& family, Key key);
  template <typename T>
  const T* Find(const std::map<Key, std::unique_ptr<T>>& family,
                std::string_view name, const Labels& labels) const;

  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
  std::map<Key, std::unique_ptr<TimeSeries>> series_;
};

}  // namespace olympian::metrics
