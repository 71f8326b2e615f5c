// Unit tests for metrics/ (statistics, busy metering, tables, registry
// merges).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "metrics/busy_meter.h"
#include "metrics/registry.h"
#include "metrics/stats.h"
#include "metrics/table.h"

namespace olympian::metrics {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(SeriesTest, BasicMoments) {
  Series s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(SeriesTest, EmptySeriesBehaviour) {
  Series s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Stddev(), 0.0);
  EXPECT_THROW(s.Min(), std::out_of_range);
  EXPECT_THROW(s.Percentile(50), std::out_of_range);
}

TEST(SeriesTest, Percentiles) {
  Series s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
}

TEST(SeriesTest, PercentileAfterLaterAdds) {
  Series s;
  s.Add(10);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 10.0);
  s.Add(20);
  s.Add(30);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 30.0);  // sorted cache refreshed
}

TEST(SeriesTest, CdfAtAndPoints) {
  Series s;
  for (double v : {1.0, 1.0, 2.0, 3.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.CdfAt(1.0), 0.5);
  EXPECT_DOUBLE_EQ(s.CdfAt(2.5), 0.75);
  EXPECT_DOUBLE_EQ(s.CdfAt(10.0), 1.0);
  auto pts = s.CdfPoints();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0].first, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].second, 0.5);
  EXPECT_DOUBLE_EQ(pts[2].second, 1.0);
}

TEST(SeriesTest, CvIsRelativeSpread) {
  Series s;
  for (double v : {99.0, 100.0, 101.0}) s.Add(v);
  EXPECT_NEAR(s.Cv(), 0.01, 1e-3);
}

TEST(WelfordTest, MatchesSeries) {
  Series s;
  Welford w;
  double xs[] = {3.0, 1.5, 9.0, -4.0, 2.25, 7.5};
  for (double x : xs) {
    s.Add(x);
    w.Add(x);
  }
  EXPECT_NEAR(w.Mean(), s.Mean(), 1e-12);
  EXPECT_NEAR(w.Stddev(), s.Stddev(), 1e-12);
}

TEST(LinearFitTest, ExactLine) {
  auto fit = FitLine({1, 2, 3, 4}, {3, 5, 7, 9});  // y = 2x + 1
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.Eval(10), 21.0, 1e-12);
}

TEST(LinearFitTest, DegenerateXFallsBackToMean) {
  auto fit = FitLine({5, 5, 5}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(LinearFitTest, RejectsBadInput) {
  EXPECT_THROW(FitLine({1}, {2}), std::invalid_argument);
  EXPECT_THROW(FitLine({1, 2}, {2}), std::invalid_argument);
}

TEST(BusyMeterTest, NonOverlappingIntervals) {
  BusyMeter m;
  TimePoint t;
  m.OnBegin(t + Duration::Millis(1));
  m.OnEnd(t + Duration::Millis(3));
  m.OnBegin(t + Duration::Millis(10));
  m.OnEnd(t + Duration::Millis(14));
  EXPECT_EQ(m.Total(t + Duration::Millis(20)), Duration::Millis(6));
  EXPECT_FALSE(m.busy());
}

TEST(BusyMeterTest, OverlappingIntervalsMerge) {
  // Paper Figure 5: GPU duration is the union of per-node busy intervals.
  BusyMeter m;
  TimePoint t;
  m.OnBegin(t + Duration::Millis(1));   // node 1
  m.OnBegin(t + Duration::Millis(2));   // node 2 overlaps
  m.OnEnd(t + Duration::Millis(4));     // node 1 ends
  m.OnEnd(t + Duration::Millis(5));     // node 2 ends
  m.OnBegin(t + Duration::Millis(9));   // node 3
  m.OnEnd(t + Duration::Millis(10));
  EXPECT_EQ(m.Total(t + Duration::Millis(10)), Duration::Millis(5));
}

TEST(BusyMeterTest, OpenIntervalCountsTowardTotal) {
  BusyMeter m;
  TimePoint t;
  m.OnBegin(t + Duration::Millis(2));
  EXPECT_TRUE(m.busy());
  EXPECT_EQ(m.Total(t + Duration::Millis(7)), Duration::Millis(5));
}

TEST(BusyMeterTest, UnbalancedEndThrows) {
  BusyMeter m;
  EXPECT_THROW(m.OnEnd(TimePoint()), std::logic_error);
}

TEST(TableTest, PrintAlignsColumns) {
  Table t({"model", "runtime"});
  t.AddRow({"Inception", "0.81"});
  t.AddRow({"VGG", "0.83"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("model"), std::string::npos);
  EXPECT_NE(out.find("Inception"), std::string::npos);
  EXPECT_NE(out.find("0.83"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Pct(0.0213, 1), "2.1%");
}

// MetricRegistry::MergeFrom on labelled histograms: one source key lands
// on a destination key that does not exist yet, the other on one that
// already holds an observation. Either way the export must equal that of a
// registry that observed every value directly. (The values are binary
// fractions, so every sum is exact in any order.)
TEST(MetricRegistryTest, HistogramMergeMatchesDirectObservation) {
  const Labels server{{"server", "1"}};
  const Labels a{{"model", "a"}};
  const Labels b{{"model", "b"}};
  const Labels a_on_server{{"model", "a"}, {"server", "1"}};
  const Labels b_on_server{{"model", "b"}, {"server", "1"}};

  MetricRegistry merged;
  MetricRegistry direct;
  merged.GetHistogram("lat_ms", b_on_server).Observe(0.5);
  direct.GetHistogram("lat_ms", b_on_server).Observe(0.5);

  MetricRegistry src;
  for (const double v : {0.0009765625, 2.0, 37.5, 1e7}) {
    src.GetHistogram("lat_ms", a).Observe(v);
    direct.GetHistogram("lat_ms", a_on_server).Observe(v);
  }
  for (const double v : {0.25, 0.25, 80.0}) {
    src.GetHistogram("lat_ms", b).Observe(v);
    direct.GetHistogram("lat_ms", b_on_server).Observe(v);
  }
  merged.MergeFrom(src, server);

  std::ostringstream merged_text;
  std::ostringstream direct_text;
  merged.WritePrometheus(merged_text);
  direct.WritePrometheus(direct_text);
  EXPECT_EQ(merged_text.str(), direct_text.str());
  ASSERT_NE(merged.FindHistogram("lat_ms", a_on_server), nullptr);
  EXPECT_EQ(merged.FindHistogram("lat_ms", a_on_server)->count(), 4u);
  EXPECT_EQ(merged.FindHistogram("lat_ms", b_on_server)->count(), 4u);

  // The bucket rows pin the shared layout: 44 finite upper bounds starting
  // at 0.001, each 1.6x the last, then +Inf. The export prints bounds at
  // round-trip precision, so they compare exactly.
  std::vector<double> bounds;
  int inf_rows = 0;
  std::istringstream lines(merged_text.str());
  const std::string row = "lat_ms_bucket{model=\"a\",server=\"1\",le=\"";
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(row, 0) != 0) continue;
    const std::string le =
        line.substr(row.size(), line.find('"', row.size()) - row.size());
    if (le == "+Inf") {
      ++inf_rows;
    } else {
      bounds.push_back(std::stod(le));
    }
  }
  EXPECT_EQ(inf_rows, 1);
  ASSERT_EQ(bounds.size(), 44u);
  double expected = 0.001;
  for (const double bound : bounds) {
    EXPECT_EQ(bound, expected);
    expected *= 1.6;
  }
}

}  // namespace
}  // namespace olympian::metrics
