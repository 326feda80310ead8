// Tests of the benchmark's own arithmetic: the tail-percentile sample
// rule, span self time, and failure accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({5, 1, 3}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({5, 1, 3}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(TailRule, P99NeedsNineHundredTwoSamplesForTenBeyond) {
  // The interpolated p99 of n samples sits at index 0.99(n-1), so the
  // samples above it are those past floor(0.99(n-1)).
  EXPECT_EQ(samples_needed(0.99, 10), 902u);
  EXPECT_EQ(count_beyond(ramp(902), 0.99), 10u);
  EXPECT_EQ(count_beyond(ramp(901), 0.99), 9u);
  EXPECT_EQ(samples_needed(0.5, 10), 20u);
  EXPECT_EQ(count_beyond(ramp(20), 0.5), 10u);
}

TEST(TailRule, FailedJobsMissEveryLimit) {
  auto v = ramp(1000);
  for (int i = 0; i < 11; ++i) v[static_cast<std::size_t>(i)] =
      std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(quantile(v, 0.99)));
  EXPECT_FALSE(std::isinf(quantile(v, 0.5)));
}

TEST(TailRule, PartedP99IgnoresAStallInOnePart) {
  // Three parts of 902 samples; a stall in the middle part inflates its
  // tail, and the median of the three parts' p99s is a clean part's.
  std::vector<double> v;
  for (int p = 0; p < 3; ++p) {
    auto part = ramp(902);
    if (p == 1) {
      for (std::size_t i = 0; i < 100; ++i) {
        part[i] = 1e6 + static_cast<double>(i);
      }
    }
    v.insert(v.end(), part.begin(), part.end());
  }
  const auto parted = parted_quantile(v, 0.99, 3);
  EXPECT_DOUBLE_EQ(parted.value, quantile(ramp(902), 0.99));
  EXPECT_EQ(parted.fewest_beyond, 10u);
  EXPECT_EQ(parted_quantile(ramp(3 * 901), 0.99, 3).fewest_beyond, 9u);
  EXPECT_EQ(parted_quantile({1.0}, 0.99, 3).fewest_beyond, 0u);
}

TEST(Tally, CountsFailuresAgainstAttempts) {
  Tally t;
  EXPECT_EQ(t.fail_ratio(), 0.0);
  for (int i = 0; i < 7; ++i) t.add(true);
  t.add(false);
  EXPECT_EQ(t.attempted, 8u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 0.125);
}

Span span(std::uint64_t id, std::uint64_t parent, const char* name,
          double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.job = 0;
  s.name = name;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // client.job [0,10] has net.submit [1,3] and net.wait [2,6] (overlapping:
  // union 5); net.wait has net.handle [4,5]; serve.job [7,12] sticks out
  // of its parent, so only [7,10] counts against it.
  const std::vector<Span> spans = {
      span(1, 0, "client.job", 0, 10),   span(2, 1, "net.submit", 1, 3),
      span(3, 1, "net.wait", 2, 6),      span(4, 3, "net.handle", 4, 5),
      span(5, 1, "serve.job", 7, 12),    span(6, 5, "models.chunk", 8, 9),
      span(7, 99, "models.orphan", 0, 2)};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 5 - 3);  // [1,6] and [7,10]
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 1);
  EXPECT_DOUBLE_EQ(self[4], 4);
  EXPECT_DOUBLE_EQ(self[5], 1);
  EXPECT_DOUBLE_EQ(self[6], 2);  // unknown parent: a root

  const auto by_layer = self_time_by_layer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("client"), 2);
  EXPECT_DOUBLE_EQ(by_layer.at("net"), 6);
  EXPECT_DOUBLE_EQ(by_layer.at("serve"), 4);
  EXPECT_DOUBLE_EQ(by_layer.at("models"), 3);
}

TEST(Tracer, RecordsOnlyWhileEnabledAndPropagatesByJob) {
  Tracer t;
  EXPECT_EQ(t.open(3, "client.job", 0), 0u);
  t.enable(true);
  const auto root = t.open(3, "client.job", 0);
  {
    ScopedSpan a(t, 3, "net.submit");
    EXPECT_EQ(t.get(3, Tracer::Slot::kCurrent), a.id());
    ScopedSpan b(t, 3, "net.handle");
    EXPECT_EQ(t.spans().back().parent, a.id());
  }
  EXPECT_EQ(t.get(3, Tracer::Slot::kCurrent), 0u);
  t.close(root);
  t.bind(Tracer::Key::kJobSeed, 42, 3);
  EXPECT_EQ(t.lookup(Tracer::Key::kJobSeed, 42), 3);
  EXPECT_EQ(t.lookup(Tracer::Key::kServiceId, 42), kNoJob);
  t.count("net.requests", 2);
  EXPECT_EQ(t.counter("net.requests"), 2.0);
  EXPECT_EQ(t.spans().size(), 3u);
}

}  // namespace
}  // namespace perfbench
