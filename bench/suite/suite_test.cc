// Unit tests of the benchmark's measurement pieces.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "obs/trace.h"
#include "suite.h"

namespace rotom {
namespace suite {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileReport, PicksHighestPercentileWithTenSamplesBeyond) {
  const PercentileReport r1000 = ReportPercentiles(OneTo(1000));
  EXPECT_EQ(r1000.n, 1000u);
  EXPECT_DOUBLE_EQ(r1000.tail_q, 0.99);
  EXPECT_NEAR(r1000.tail, 990.01, 1e-9);
  EXPECT_DOUBLE_EQ(r1000.p50, 500.5);

  EXPECT_DOUBLE_EQ(ReportPercentiles(OneTo(10000)).tail_q, 0.999);
  EXPECT_DOUBLE_EQ(ReportPercentiles(OneTo(999)).tail_q, 0.9);
  EXPECT_DOUBLE_EQ(ReportPercentiles(OneTo(100)).tail_q, 0.9);

  const PercentileReport r99 = ReportPercentiles(OneTo(99));
  EXPECT_EQ(r99.n, 99u);
  EXPECT_DOUBLE_EQ(r99.tail_q, 0.5);
  EXPECT_DOUBLE_EQ(r99.tail, r99.p50);
}

TEST(PoissonSchedule, SameSeedSameSendTimes) {
  const auto a = PoissonSchedule(600.0, 5.0, 42);
  const auto b = PoissonSchedule(600.0, 5.0, 42);
  const auto c = PoissonSchedule(600.0, 5.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_NEAR(static_cast<double>(a.size()), 3000.0, 300.0);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 5.0);
  EXPECT_TRUE(PoissonSchedule(0.0, 5.0, 42).empty());
}

TEST(DueTimeLatency, StalledSubmitterInflatesLaterRequests) {
  // Requests due every 5 ms, served instantly at send time; the send of
  // request 3 stalls for 60 ms.
  std::vector<double> due;
  for (int i = 0; i < 12; ++i) due.push_back(0.005 * i);
  std::vector<Clock::time_point> sent(due.size());
  const auto start = Clock::now();
  const std::vector<double> lag = DriveOpenLoop(due, start, [&](size_t i) {
    sent[i] = Clock::now();
    if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });
  ASSERT_EQ(lag.size(), due.size());
  // Request 4 was due 5 ms after request 3 but went out after the stall:
  // although it was served the moment it was sent, its latency from the due
  // time carries most of the 60 ms, and the generator reports the lag.
  EXPECT_GT(DueLatencyMs(start, due[4], sent[4]), 40.0);
  EXPECT_GT(lag[4], 40.0);
  // Requests before the stall are on time.
  EXPECT_LT(DueLatencyMs(start, due[1], sent[1]), 20.0);
  // Later requests keep a positive due-time latency until the backlog is
  // sent (all of them are sent back to back once the stall ends).
  for (size_t i = 4; i < due.size(); ++i)
    EXPECT_GE(DueLatencyMs(start, due[i], sent[i]), 0.0);
}

TEST(CapacityBisection, FindsKneeOfSyntheticLatencyCurve) {
  // p99 latency rises as the rate approaches 1500 req/s; the limit is 25 ms.
  int probes = 0;
  auto passes = [&probes](double rate) {
    ++probes;
    const double p99_ms = 2.0 + 20.0 * rate / (1500.0 - std::min(rate, 1499.0));
    return p99_ms <= 25.0;
  };
  // 2 + 20 r / (1500 - r) <= 25  <=>  r <= 1500 * 23 / 43.
  const double knee = 1500.0 * 23.0 / 43.0;
  const double found = BisectCapacity(200.0, 3200.0, 8, passes);
  EXPECT_EQ(probes, 8);
  EXPECT_LE(found, knee);
  EXPECT_GE(found, knee - 3000.0 / 256.0);
  EXPECT_EQ(BisectCapacity(200.0, 3200.0, 5, [](double) { return false; }),
            0.0);
}

TEST(SelfTime, SubtractsNestedSpansOnTheSameThreadOnly) {
  const std::vector<Span> spans = {
      {"train", 0, 0.0, 100.0},   {"weighting", 0, 10.0, 30.0},
      {"forward", 0, 20.0, 10.0}, {"backward", 0, 50.0, 20.0},
      {"encode", 1, 15.0, 45.0},  {"train", 0, 200.0, 10.0},
  };
  const auto t = SelfTimes(spans);
  EXPECT_EQ(t.at("train").count, 2);
  EXPECT_DOUBLE_EQ(t.at("train").total_us, 110.0);
  EXPECT_DOUBLE_EQ(t.at("train").self_us, 100.0 - 30.0 - 20.0 + 10.0);
  EXPECT_DOUBLE_EQ(t.at("weighting").self_us, 20.0);
  EXPECT_DOUBLE_EQ(t.at("forward").self_us, 10.0);
  EXPECT_DOUBLE_EQ(t.at("backward").self_us, 20.0);
  EXPECT_DOUBLE_EQ(t.at("encode").self_us, 45.0);
}

TEST(SelfTime, ReadsTheProgramTraceDump) {
  const std::string path =
      "suite_test_trace_" + std::to_string(getpid()) + ".json";
  obs::SetTracePath(path);
  obs::ClearTrace();
  {
    obs::TraceSpan outer("suite_test.outer", nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      obs::TraceSpan inner("suite_test.inner", nullptr);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  }
  ASSERT_TRUE(obs::DumpTrace(path));
  obs::SetTracePath("");
  std::vector<Span> spans;
  uint64_t dropped = 0;
  ASSERT_TRUE(ReadProgramTrace(path, &spans, &dropped));
  std::remove(path.c_str());
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(spans.size(), 2u);
  const auto t = SelfTimes(spans);
  const SpanTotals& outer = t.at("suite_test.outer");
  const SpanTotals& inner = t.at("suite_test.inner");
  EXPECT_GE(inner.self_us, 3000.0);
  EXPECT_NEAR(outer.self_us, outer.total_us - inner.total_us, 0.01);
  EXPECT_GE(outer.self_us, 2000.0);
}

TEST(MetricSet, RejectsUndeclaredNames) {
  MetricSet set(EndToEndCatalog());
  set.Set("setup_s", 1.5);
  EXPECT_DOUBLE_EQ(set.metrics()[0].value, 1.5);
  EXPECT_THROW(set.Set("no_such_metric", 1.0), std::logic_error);
}

}  // namespace
}  // namespace suite
}  // namespace rotom
