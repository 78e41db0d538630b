#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace microrec::obs {
namespace {

TEST(CounterTest, IncrementAndAdd) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(CounterTest, SameNameReturnsSamePointer) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(2.5);
  g->Add(1.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
}

TEST(HistogramTest, CountSumMinMax) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.hist");
  h->Record(0.5);
  h->Record(1.5);
  h->Record(3.0);
  h->Record(10.0);
  HistogramSnapshot snap = registry.Snapshot().histograms.at(0);
  EXPECT_EQ(snap.name, "test.hist");
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 15.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 10.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 3.75);
}

TEST(HistogramTest, PercentileOfEmptyIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  HistogramSnapshot snap = h.Snapshot("empty");
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.p50, 0.0);
  EXPECT_DOUBLE_EQ(snap.p999, 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, SingleValuePercentileClampsToIt) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.single");
  h->Record(1.5);
  HistogramSnapshot snap = registry.Snapshot().histograms.at(0);
  EXPECT_DOUBLE_EQ(snap.p50, 1.5);
  EXPECT_DOUBLE_EQ(snap.p99, 1.5);
}

TEST(RegistryTest, ConcurrentIncrementsFromThreadPool) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.concurrent");
  Histogram* hist = registry.GetHistogram("test.concurrent_hist");
  constexpr int kTasks = 64;
  constexpr int kPerTask = 1000;
  ThreadPool pool(4);
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([&] {
      for (int i = 0; i < kPerTask; ++i) {
        counter->Increment();
        hist->Record(1e-3);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(counter->value(), static_cast<uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(hist->count(), static_cast<uint64_t>(kTasks) * kPerTask);
}

TEST(RegistryTest, ResetValuesKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.reset");
  c->Add(7);
  registry.ResetValues();
  EXPECT_EQ(c->value(), 0u);  // same object, zeroed in place
  c->Increment();
  EXPECT_EQ(registry.GetCounter("test.reset")->value(), 1u);
}

TEST(SnapshotTest, FindAndJson) {
  MetricsRegistry registry;
  registry.GetCounter("c.one")->Add(5);
  registry.GetGauge("g.one")->Set(1.25);
  registry.GetHistogram("h.one")->Record(0.5);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_NE(snap.FindCounter("c.one"), nullptr);
  EXPECT_EQ(snap.FindCounter("c.one")->value, 5u);
  ASSERT_NE(snap.FindGauge("g.one"), nullptr);
  EXPECT_DOUBLE_EQ(snap.FindGauge("g.one")->value, 1.25);
  ASSERT_NE(snap.FindHistogram("h.one"), nullptr);
  EXPECT_EQ(snap.FindCounter("missing"), nullptr);

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\":5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST(SnapshotTest, RenderTableEmitsOneRowPerMetric) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment();
  registry.GetGauge("g")->Set(1.0);
  registry.GetHistogram("h")->Record(0.5);
  struct FakeTable {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
    void SetHeader(std::vector<std::string> h) { header = std::move(h); }
    void AddRow(std::vector<std::string> r) { rows.push_back(std::move(r)); }
  };
  FakeTable table;
  registry.Snapshot().RenderTable(&table);
  EXPECT_EQ(table.header.size(), 8u);
  EXPECT_EQ(table.rows.size(), 3u);
}

TEST(JsonHelpersTest, EscapesAndNumbers) {
  std::string out;
  AppendJsonEscaped("a\"b\\c\n", &out);
  EXPECT_EQ(out, "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "0");
  EXPECT_NE(JsonNumber(2.5).find("2.5"), std::string::npos);
}

}  // namespace
}  // namespace microrec::obs
