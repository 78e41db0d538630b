// Prometheus text-exposition rendering of a MetricsSnapshot, so the same
// registry that backs JSON run reports can be scraped by (or diffed
// against) standard monitoring tooling. Selected with --metrics-format=prom
// on the CLI and the load driver; the default remains the JSON snapshot.
//
// Mapping (exposition format 0.0.4):
//   counter    microrec_<name> ... "# TYPE counter"
//   gauge      microrec_<name> ... "# TYPE gauge"
//   histogram  microrec_<name>{quantile="0.5|0.9|0.99|0.999"} plus _sum
//              and _count — the native Prometheus summary (quantiles
//              within 1%, obs::Histogram)
// Metric names are sanitized ('.' and every other non-[a-zA-Z0-9_] byte
// become '_'), which can collide ("a.b" / "a_b"); dot-separated registry
// names keep the mapping unambiguous in practice.
#ifndef MICROREC_OBS_EXPORT_H_
#define MICROREC_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace microrec::obs {

/// "prom" | "json" — how WriteMetrics-style sinks serialize a snapshot.
enum class MetricsFormat { kJson, kProm };

/// Parses a --metrics-format value; defaults to kJson for empty, errors
/// (returns false) on anything other than "json" / "prom".
bool ParseMetricsFormat(std::string_view text, MetricsFormat* out);

/// Renders the full snapshot in the Prometheus text exposition format.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// `snapshot` in the requested format: ToJson() + '\n' or Prometheus text.
std::string RenderMetrics(const MetricsSnapshot& snapshot,
                          MetricsFormat format);

}  // namespace microrec::obs

#endif  // MICROREC_OBS_EXPORT_H_
