#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankOnUnsortedInput) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 50);
  EXPECT_DOUBLE_EQ(Percentile(samples, 99), 99);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100), 100);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.5), 1);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 99), 7);
}

TEST(PercentileTest, SamplesBeyondCountsStrictlyHigherRanks) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 50), 50u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(TailPercentile(9999), 99);
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 99);
  EXPECT_DOUBLE_EQ(TailPercentile(999), 95);
  EXPECT_DOUBLE_EQ(TailPercentile(200), 95);
  EXPECT_DOUBLE_EQ(TailPercentile(199), 90);
  EXPECT_DOUBLE_EQ(TailPercentile(40), 75);
  EXPECT_DOUBLE_EQ(TailPercentile(20), 50);
  EXPECT_DOUBLE_EQ(TailPercentile(19), 0);
  EXPECT_DOUBLE_EQ(TailPercentile(0), 0);
}

TEST(TailPercentileTest, ReportedTailAlwaysHasTenSamplesBeyond) {
  for (uint64_t n = 20; n < 3000; ++n) {
    const double p = TailPercentile(n);
    ASSERT_GT(p, 0) << n;
    EXPECT_GE(SamplesBeyond(n, p), 10u) << n;
  }
}

TEST(TallyTest, CountsFailuresAgainstAttempts) {
  Tally tally;
  EXPECT_EQ(tally.attempted(), 0u);
  EXPECT_DOUBLE_EQ(tally.failed_ratio(), 0);
  tally.Record(true);
  tally.Record(false);
  tally.Record(true);
  tally.Record(true);
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_EQ(tally.completed(), 3u);
  EXPECT_DOUBLE_EQ(tally.failed_ratio(), 0.25);
  tally.Add(380, 4);
  EXPECT_EQ(tally.attempted(), 384u);
  EXPECT_EQ(tally.failed(), 5u);
  EXPECT_EQ(tally.completed(), 379u);
}

TEST(SpanRecorderTest, DisabledRecorderKeepsNothing) {
  SpanRecorder spans;
  { ScopedSpan span(spans, "op"); }
  EXPECT_EQ(spans.size(), 0u);
  EXPECT_TRUE(spans.SelfTimes().empty());
}

TEST(SpanRecorderTest, SelfTimeExcludesChildSpans) {
  SpanRecorder spans;
  spans.set_enabled(true);
  {
    ScopedSpan op(spans, "op");
    {
      ScopedSpan child(spans, "child");
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start <
             std::chrono::milliseconds(20)) {
      }
    }
    { ScopedSpan child(spans, "child"); }
  }
  ASSERT_EQ(spans.size(), 3u);
  auto self = spans.SelfTimes();
  EXPECT_EQ(self["op"].count, 1u);
  EXPECT_EQ(self["child"].count, 2u);
  EXPECT_GE(self["child"].self_ns, 20'000'000u);
  // The parent only opened and closed spans around its children.
  EXPECT_LT(self["op"].self_ns, self["child"].self_ns / 10);

  const std::string path = ::testing::TempDir() + "/spans.jsonl";
  ASSERT_TRUE(spans.WriteJsonl(path));
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"name\": \"op\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"parent\": 0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"parent\": 1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"parent\": 1"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
