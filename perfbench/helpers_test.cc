#include "perfbench/helpers.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace parqo::perfbench {
namespace {

TEST(PercentileTest, NearestRankOnKnownSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 500);
  EXPECT_EQ(Percentile(v, 0.99), 990);
  EXPECT_EQ(Percentile(v, 1.0), 1000);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
}

TEST(PercentileTest, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3);
  EXPECT_EQ(Percentile(v, 0.2), 1);
}

TEST(PercentileTest, P99NeedsAThousandSamplesForTenBeyondIt) {
  EXPECT_EQ(TailSamples(1000, 0.99), 10u);
  EXPECT_GE(TailSamples(1000, 0.99), kMinTailSamples);
  EXPECT_LT(TailSamples(999, 0.99), kMinTailSamples);
  EXPECT_EQ(TailSamples(2000, 0.99), 20u);
  EXPECT_EQ(TailSamples(0, 0.99), 0u);
}

TEST(PercentileTest, FailedRequestsSitInTheTail) {
  std::vector<double> v(990, 1.0);
  v.insert(v.end(), 10, std::numeric_limits<double>::infinity());
  EXPECT_EQ(Percentile(v, 0.99), 1.0);
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(Percentile(v, 0.99)));
}

TEST(SlicesTest, QuietHalfSkipsSlowSlices) {
  // 10 one-second slices, 100 requests each; slices 2, 5 and 7 run at
  // twice the latency, as under a burst of host load.
  std::vector<TimedRequest> requests;
  for (int k = 0; k < 10; ++k) {
    const bool slow = k == 2 || k == 5 || k == 7;
    for (int i = 0; i < 100; ++i) {
      requests.push_back({k + (i + 0.5) / 100, slow ? 2e-3 : 1e-3, 0});
    }
  }
  Slices s = CutSlices(requests, 10, 1, 10);
  ASSERT_EQ(s.p50.size(), 10u);
  EXPECT_EQ(s.p50[2], 2e-3);
  EXPECT_EQ(s.p50[3], 1e-3);
  EXPECT_EQ(s.quiet_latencies.size(), 700u);
  EXPECT_EQ(Percentile(s.quiet_latencies, 0.99), 1e-3);
  EXPECT_DOUBLE_EQ(s.quiet_throughput, 100);
}

TEST(SlicesTest, CheckTimeAndFailuresLeaveThroughput) {
  // Two clients, one slice of 2 s: each request is followed by 0.2 s of
  // output checking, so the slice served for 2 - 10 * 0.2 / 2 = 1 s.
  std::vector<TimedRequest> requests;
  for (int i = 0; i < 10; ++i) requests.push_back({0.1 * i, 1e-3, 0.2});
  requests.push_back({1.5, std::numeric_limits<double>::infinity(), 0});
  Slices s = CutSlices(requests, 2, 2, 1);
  EXPECT_DOUBLE_EQ(s.quiet_throughput, 10);
  EXPECT_TRUE(std::isinf(Percentile(s.quiet_latencies, 1.0)));
}

TEST(GeoMeanTest, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(GeoMean({2, 8}), 4);
  EXPECT_NEAR(GeoMean({1, 10, 100}), 10, 1e-12);
  EXPECT_DOUBLE_EQ(GeoMean({3.5}), 3.5);
  EXPECT_EQ(GeoMean({}), 0);
  EXPECT_EQ(GeoMean({1, 0}), 0);
  EXPECT_EQ(GeoMean({1, -2}), 0);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  // Parent [0, 100]; children overlap each other and one spills past
  // the parent's end: covered = [10, 50] U [80, 100] = 60.
  std::vector<Span> spans = {
      {1, 10, 0, "request", 0, 100},
      {1, 11, 10, "a", 10, 30},
      {1, 12, 10, "b", 20, 50},
      {1, 13, 10, "c", 80, 120},
      {1, 14, 12, "d", 25, 35},  // grandchild: only b loses it
  };
  std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 40);
  EXPECT_EQ(self[4], 10);
}

TEST(SelfTimeTest, SumsPerNameAcrossRequests) {
  std::vector<Span> spans = {
      {1, 4, 0, "request", 0, 1000},    {1, 5, 4, "parse", 0, 400},
      {2, 8, 0, "request", 2000, 2500}, {2, 9, 8, "parse", 2000, 2100},
  };
  std::map<std::string, double> self = SelfSecondsByName(spans);
  EXPECT_NEAR(self["request"], 1000e-9, 1e-15);
  EXPECT_NEAR(self["parse"], 500e-9, 1e-15);
}

BindingTable Table(std::vector<VarId> schema,
                   const std::vector<std::vector<TermId>>& rows) {
  BindingTable t(schema);
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      t.MutableColumn(static_cast<int>(c)).push_back(row[c]);
    }
  }
  return t;
}

TEST(FingerprintTest, EqualOnPermutedRowsAndColumns) {
  // Same rows over ?x, ?y: different row order, column order and VarIds.
  BindingTable a = Table({0, 1}, {{1, 2}, {3, 4}, {5, 6}});
  BindingTable b = Table({7, 3}, {{6, 5}, {2, 1}, {4, 3}});
  RowsFingerprint fa = Fingerprint(a, {{"x", 0}, {"y", 1}});
  RowsFingerprint fb = Fingerprint(b, {{"y", 7}, {"x", 3}});
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(fa.rows, 3u);
}

TEST(FingerprintTest, DetectsChangedMissingAndDuplicatedRows) {
  BindingTable base = Table({0, 1}, {{1, 2}, {3, 4}});
  RowsFingerprint f = Fingerprint(base, {{"x", 0}, {"y", 1}});
  EXPECT_NE(f, Fingerprint(Table({0, 1}, {{1, 2}, {3, 5}}),
                           {{"x", 0}, {"y", 1}}));
  EXPECT_NE(f, Fingerprint(Table({0, 1}, {{1, 2}}), {{"x", 0}, {"y", 1}}));
  EXPECT_NE(f, Fingerprint(Table({0, 1}, {{1, 2}, {3, 4}, {3, 4}}),
                           {{"x", 0}, {"y", 1}}));
  // Swapped values between the two variables are a different result.
  EXPECT_NE(f, Fingerprint(Table({0, 1}, {{2, 1}, {4, 3}}),
                           {{"x", 0}, {"y", 1}}));
}

TEST(MetricSheetTest, PrintsEveryRowInOrder) {
  MetricSheet sheet;
  sheet.Set("b", 1.5, "ms");
  sheet.Set("a", 2, "count");
  sheet.Set("b", 0.25, "ms");
  EXPECT_EQ(sheet.ToJson(),
            "{\"b\": {\"value\": 0.25, \"unit\": \"ms\"}, "
            "\"a\": {\"value\": 2, \"unit\": \"count\"}}");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonString("a\"b"), "\"a\\\"b\"");
}

}  // namespace
}  // namespace parqo::perfbench
