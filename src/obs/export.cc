#include "obs/export.h"

#include <cctype>

namespace microrec::obs {

namespace {

std::string PromName(std::string_view name) {
  std::string out = "microrec_";
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void AppendLine(std::string* out, const std::string& name,
                const std::string& labels, double value) {
  *out += name;
  *out += labels;
  *out += ' ';
  *out += JsonNumber(value);
  *out += '\n';
}

void AppendTypeHeader(std::string* out, const std::string& name,
                      const char* type) {
  *out += "# TYPE " + name + ' ' + type + '\n';
}

}  // namespace

bool ParseMetricsFormat(std::string_view text, MetricsFormat* out) {
  if (text.empty() || text == "json") {
    *out = MetricsFormat::kJson;
    return true;
  }
  if (text == "prom" || text == "prometheus") {
    *out = MetricsFormat::kProm;
    return true;
  }
  return false;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const CounterSnapshot& c : snapshot.counters) {
    const std::string name = PromName(c.name);
    AppendTypeHeader(&out, name, "counter");
    AppendLine(&out, name, "", static_cast<double>(c.value));
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    const std::string name = PromName(g.name);
    AppendTypeHeader(&out, name, "gauge");
    AppendLine(&out, name, "", g.value);
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string name = PromName(h.name);
    AppendTypeHeader(&out, name, "summary");
    AppendLine(&out, name, "{quantile=\"0.5\"}", h.p50);
    AppendLine(&out, name, "{quantile=\"0.9\"}", h.p90);
    AppendLine(&out, name, "{quantile=\"0.99\"}", h.p99);
    AppendLine(&out, name, "{quantile=\"0.999\"}", h.p999);
    AppendLine(&out, name + "_sum", "", h.sum);
    AppendLine(&out, name + "_count", "", static_cast<double>(h.count));
  }
  return out;
}

std::string RenderMetrics(const MetricsSnapshot& snapshot,
                          MetricsFormat format) {
  if (format == MetricsFormat::kProm) return ToPrometheusText(snapshot);
  return snapshot.ToJson() + "\n";
}

}  // namespace microrec::obs
