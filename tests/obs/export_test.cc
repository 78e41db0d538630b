#include "obs/export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"

namespace microrec::obs {
namespace {

/// The value on the line `series <value>`, or NaN when there is none.
double SeriesValue(const std::string& text, const std::string& series) {
  const size_t at = text.find(series + " ");
  if (at == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + at + series.size() + 1, nullptr);
}

TEST(ParseMetricsFormatTest, AcceptsJsonPromAndEmpty) {
  MetricsFormat format = MetricsFormat::kProm;
  EXPECT_TRUE(ParseMetricsFormat("", &format));
  EXPECT_EQ(format, MetricsFormat::kJson);
  EXPECT_TRUE(ParseMetricsFormat("json", &format));
  EXPECT_EQ(format, MetricsFormat::kJson);
  EXPECT_TRUE(ParseMetricsFormat("prom", &format));
  EXPECT_EQ(format, MetricsFormat::kProm);
  EXPECT_FALSE(ParseMetricsFormat("yaml", &format));
  EXPECT_FALSE(ParseMetricsFormat("PROM", &format));
}

TEST(PrometheusTextTest, CounterAndGaugeLines) {
  MetricsRegistry registry;
  registry.GetCounter("rec.queries")->Add(42);
  registry.GetGauge("serving.rung")->Set(1.5);
  std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE microrec_rec_queries counter"),
            std::string::npos);
  EXPECT_NE(text.find("microrec_rec_queries 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE microrec_serving_rung gauge"),
            std::string::npos);
  EXPECT_NE(text.find("microrec_serving_rung 1.5"), std::string::npos);
}

TEST(PrometheusTextTest, SketchRendersAsSummary) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("load.latency.all");
  for (int i = 1; i <= 100; ++i) histogram->Record(static_cast<double>(i));
  std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE microrec_load_latency_all summary"),
            std::string::npos);
  // Quantile lines carry the histogram's estimates: within 1% of the
  // order statistics 50 and 99.
  EXPECT_NEAR(SeriesValue(text, "microrec_load_latency_all{quantile=\"0.5\"}"),
              50.0, 0.5);
  EXPECT_NEAR(
      SeriesValue(text, "microrec_load_latency_all{quantile=\"0.99\"}"),
      99.0, 0.99);
  EXPECT_NE(text.find("microrec_load_latency_all{quantile=\"0.9\"} "),
            std::string::npos);
  EXPECT_NE(text.find("microrec_load_latency_all{quantile=\"0.999\"} "),
            std::string::npos);
  EXPECT_NE(text.find("microrec_load_latency_all_sum 5050\n"),
            std::string::npos);
  EXPECT_NE(text.find("microrec_load_latency_all_count 100\n"),
            std::string::npos);
  // One exposition form for the one histogram type.
  EXPECT_EQ(text.find("_bucket"), std::string::npos);
}

TEST(RenderMetricsTest, SwitchesOnFormat) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment();
  MetricsSnapshot snap = registry.Snapshot();
  std::string json = RenderMetrics(snap, MetricsFormat::kJson);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  std::string prom = RenderMetrics(snap, MetricsFormat::kProm);
  EXPECT_NE(prom.find("# TYPE microrec_c counter"), std::string::npos);
  EXPECT_EQ(prom.find("\"counters\""), std::string::npos);
}

}  // namespace
}  // namespace microrec::obs
