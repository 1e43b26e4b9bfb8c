// Tests of the benchmark's own arithmetic (not of SECRETA itself).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i >= 1; --i) values.push_back(double(i));  // unsorted
  return values;
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(NearestRankTest, P99NeedsTenSamplesAbove) {
  const Percentile enough = NearestRank(OneTo(1000), 99);
  EXPECT_EQ(enough.value, 990);
  EXPECT_EQ(enough.above, 10u);
  EXPECT_EQ(enough.samples, 1000u);
  EXPECT_TRUE(HasTailSupport(enough));

  const Percentile short_of_it = NearestRank(OneTo(999), 99);
  EXPECT_EQ(short_of_it.value, 990);
  EXPECT_EQ(short_of_it.above, 9u);
  EXPECT_FALSE(HasTailSupport(short_of_it));
}

TEST(NearestRankTest, FailuresCountAsMissingTheTail) {
  // A failed request enters the sample set as +inf, so it sits above any
  // finite percentile.
  std::vector<double> values = OneTo(100);
  for (int i = 0; i < 5; ++i) values.push_back(INFINITY);
  const Percentile p95 = NearestRank(values, 95);
  EXPECT_EQ(p95.value, 100);
  EXPECT_EQ(p95.above, 5u);
  EXPECT_TRUE(std::isinf(NearestRank(values, 99).value));
}

TEST(NearestRankTest, EmptyAndExtremes) {
  EXPECT_EQ(NearestRank({}, 99).samples, 0u);
  EXPECT_EQ(NearestRank({7}, 99).value, 7);
  EXPECT_EQ(NearestRank(OneTo(10), 100).above, 0u);
  EXPECT_EQ(NearestRank(OneTo(10), 0.001).value, 1);
}

Span At(int64_t start, int64_t end) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const Span parent = At(0, 100);
  const Span a = At(10, 30), b = At(20, 40), c = At(90, 120);
  // Covered: [10, 40) and [90, 100) = 40 ns.
  EXPECT_EQ(SelfNs(parent, {&a, &b, &c}), 60);
  EXPECT_EQ(SelfNs(parent, {}), 100);
  const Span outside = At(200, 300);
  EXPECT_EQ(SelfNs(parent, {&outside}), 100);
  const Span whole = At(-5, 105);
  EXPECT_EQ(SelfNs(parent, {&whole}), 0);
}

TEST(SelfTimeTest, LayerSelfTimesAddUpToTheRoot) {
  SpanLog log;
  const size_t root = log.Begin("root");
  const int64_t start = log.spans()[root].start_ns;
  log.Add("layer.a", start, start + 1);
  {
    ScopedSpan b(&log, "layer.b");
    ScopedSpan nested(&log, "layer.c");
  }
  log.End(root);
  ASSERT_EQ(log.spans().size(), 4u);
  EXPECT_EQ(log.spans()[3].parent, 2);  // layer.c inside layer.b
  double sum = 0;
  for (const auto& [name, seconds] : log.SelfSeconds()) {
    EXPECT_GE(seconds, 0) << name;
    sum += seconds;
  }
  EXPECT_DOUBLE_EQ(sum, log.Durations("root")[0]);
}

TEST(SelfTimeTest, MergeRebasesParents) {
  SpanLog first, second;
  { ScopedSpan root(&first, "x"); }
  {
    ScopedSpan root(&second, "y");
    ScopedSpan child(&second, "z");
  }
  first.Merge(second);
  ASSERT_EQ(first.spans().size(), 3u);
  EXPECT_EQ(first.spans()[2].parent, 1);
}

TEST(NullLogTest, UntracedSpansRecordNothing) {
  ScopedSpan span(nullptr, "ignored");  // must not crash
}

TEST(RemainderTest, PartsPlusRemainderIsTheTotal) {
  // serve: median server time = admission queue + run + catalog + rest.
  const double server_us = 412.5, queue_us = 9.25, run_us = 0.5,
               catalog_us = 1.75;
  const double rest = Remainder(server_us, {queue_us, run_us, catalog_us});
  EXPECT_DOUBLE_EQ(rest, 401);
  EXPECT_DOUBLE_EQ(queue_us + run_us + catalog_us + rest, server_us);
  // A probe costing more than the total leaves a negative remainder, which
  // is reported as measured.
  EXPECT_DOUBLE_EQ(Remainder(1.0, {1.5}), -0.5);
  EXPECT_DOUBLE_EQ(Remainder(3.0, {}), 3.0);
}

TEST(AlternatingOverheadTest, NeighboursCancelALinearTrend) {
  // Untraced blocks on a line rising by 1 per block; traced blocks 10% above
  // the line.
  std::vector<double> blocks;
  for (int b = 0; b < 9; ++b) {
    const double line = 10 + b;
    blocks.push_back(b % 2 == 1 ? 1.1 * line : line);
  }
  EXPECT_NEAR(AlternatingOverhead(blocks), 0.1, 1e-12);
  // The last traced block has no right-hand neighbour and is left out.
  blocks.push_back(100);
  EXPECT_NEAR(AlternatingOverhead(blocks), 0.1, 1e-12);
  EXPECT_EQ(AlternatingOverhead({1, 2}), 0);
  EXPECT_EQ(AlternatingOverhead({}), 0);
}

TEST(WireRoundTest, OracleIsRoundedTheWayTheWireRoundsIt) {
  const double oracle = 1234.0 / 7.0;  // an estimated, non-integer count
  char wire[64];
  std::snprintf(wire, sizeof wire, "%.12g", oracle);
  const double received = std::strtod(wire, nullptr);
  EXPECT_NE(received, oracle);  // a plain comparison would flag a mismatch
  EXPECT_TRUE(WireMatches(received, oracle));
  EXPECT_FALSE(WireMatches(received + 1e-6, oracle));
  EXPECT_TRUE(WireMatches(42, 42));  // exact counts pass unchanged
}

TEST(SameBitsTest, DistinguishesWhatEqualityDoesNot) {
  EXPECT_TRUE(SameBits(0.25, 0.25));
  EXPECT_FALSE(SameBits(0.0, -0.0));
  EXPECT_TRUE(SameBits(NAN, NAN));
  EXPECT_FALSE(SameBits(1.0, std::nextafter(1.0, 2.0)));
}

TEST(OpCountsTest, FailedFractionCountsEveryKindOfFailure) {
  OpCounts ops;
  EXPECT_EQ(ops.failed_fraction(), 0);
  ops.ok = 97;
  ops.failed = 1;
  ops.rejected = 1;
  ops.mismatched = 1;
  EXPECT_EQ(ops.attempted(), 100u);
  EXPECT_EQ(ops.not_ok(), 3u);
  EXPECT_DOUBLE_EQ(ops.failed_fraction(), 0.03);
  OpCounts more;
  more.ok = 100;
  ops += more;
  EXPECT_EQ(ops.attempted(), 200u);
  EXPECT_DOUBLE_EQ(ops.failed_fraction(), 0.015);
}

}  // namespace
}  // namespace perfbench
