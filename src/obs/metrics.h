// Process-wide metrics: named counters, gauges and relative-error
// histograms, all updated without locks. The registry backs the structured
// run reports every bench emits (--report=<path>), the CLI's --metrics flag
// and the flight recorder, giving the repo a machine-readable perf
// trajectory (TTime/ETime and per-phase cost attribution, mirroring the
// paper's Figure 7 discipline).
//
// Layering: obs sits *below* util (so util/thread_pool.cc can publish
// gauges) and therefore depends on nothing but the standard library. Table
// rendering is a template over any TableWriter-shaped type to keep it so.
//
// Resolve a metric once and keep the pointer: a lookup by name takes the
// registry lock, an update never does.
//   static obs::Counter* tokens =
//       obs::MetricsRegistry::Global().GetCounter("text.tokenizer.tokens");
//   tokens->Add(n);
//
// Counters and histograms are striped: threads are dealt stripes
// round-robin on first use, each stripe sits on its own cache lines, and
// readers sum the stripes. Client threads recording the same metric
// therefore write different cache lines.
#ifndef MICROREC_OBS_METRICS_H_
#define MICROREC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace microrec::obs {

namespace internal {
inline constexpr size_t kCacheLine = 64;
inline constexpr size_t kStripes = 8;
/// The next stripe in round-robin order.
size_t NextStripe();
/// The calling thread's stripe, dealt on its first call.
inline size_t ThisThreadStripe() {
  thread_local const size_t stripe = NextStripe();
  return stripe;
}
}  // namespace internal

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) {
    cells_[internal::ThisThreadStripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t value() const;

 private:
  friend class MetricsRegistry;
  void Reset();
  struct alignas(internal::kCacheLine) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, internal::kStripes> cells_;
};

/// Last-written instantaneous value (queue depth, vocabulary size, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> value_{0.0};
};

/// Point-in-time summary of one histogram.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Relative-error quantile histogram: DDSketch (Masson et al., VLDB 2019)
/// with a fixed index mapping. A value v > 0 lands in bucket
/// ceil(log_g(v)), g = (1 + a) / (1 - a) with a = kRelativeAccuracy, and a
/// bucket reads back as the one point within relative distance a of every
/// value it can hold. Every quantile is therefore within 1% of the exact
/// order statistic of the same rank, at any sample count, for values
/// between about 1e-9 and 1e9. Smaller values (zero and negatives
/// included) read back as 0, larger ones as the top bucket; either way a
/// quantile is clamped to the observed [min, max].
///
/// The mapping is fixed, so the bucket counts depend only on the values
/// recorded, not on their order or on which thread recorded them, and a
/// merge is bucket addition: it equals recording the union. Only `sum`
/// depends on order, in its last bits.
///
/// Record() is lock-free: relaxed atomic adds into the calling thread's
/// stripe. A stripe (about 16.6 KB) is allocated on the first Record() a
/// thread makes into a histogram.
class Histogram {
 public:
  static constexpr double kRelativeAccuracy = 0.01;

  Histogram() = default;
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Adds one observation; non-finite values are ignored.
  void Record(double value);
  /// Adds every observation of `other` (not `this`) into this histogram.
  void Merge(const Histogram& other);
  /// Zeroes every stripe in place; pointers stay valid.
  void Reset();

  uint64_t count() const;
  double sum() const;
  /// The value of rank ceil(q * count): q <= 0 gives the minimum, q >= 1
  /// the maximum, an empty histogram 0.
  double Quantile(double q) const;
  HistogramSnapshot Snapshot(std::string name) const;
  /// Counts per bucket, summed over stripes, in value order.
  std::vector<uint64_t> BucketCounts() const;

 private:
  struct Stripe;
  struct Totals;
  Stripe* LocalStripe();
  Totals Merged() const;

  std::array<std::atomic<Stripe*>, internal::kStripes> stripes_{};
};

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

/// Consistent-enough point-in-time copy of every registered metric, sorted
/// by name. Convertible to JSON and to any TableWriter-shaped sink.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* FindCounter(std::string_view name) const;
  const GaugeSnapshot* FindGauge(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with count/sum/min/max/mean/p50/p90/p99/p999 per histogram.
  std::string ToJson() const;

  /// Renders one row per metric into a util::TableWriter-shaped sink
  /// (SetHeader + AddRow of string vectors).
  template <typename TableLike>
  void RenderTable(TableLike* table) const {
    auto fmt = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      return std::string(buf);
    };
    table->SetHeader({"metric", "type", "count", "value", "p50", "p90",
                      "p99", "max"});
    for (const CounterSnapshot& c : counters) {
      table->AddRow({c.name, "counter", std::to_string(c.value), "-", "-",
                     "-", "-", "-"});
    }
    for (const GaugeSnapshot& g : gauges) {
      table->AddRow({g.name, "gauge", "-", fmt(g.value), "-", "-", "-", "-"});
    }
    for (const HistogramSnapshot& h : histograms) {
      table->AddRow({h.name, "histogram", std::to_string(h.count),
                     fmt(h.sum), fmt(h.p50), fmt(h.p90), fmt(h.p99),
                     fmt(h.max)});
    }
  }
};

/// Owner of every metric. Metrics are created on first Get*() and live for
/// the process lifetime: returned pointers are stable and never invalidated
/// (ResetValues zeroes values in place, for tests and repeated runs).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  void ResetValues();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Records the enclosing scope's wall-clock duration (in seconds) into a
/// histogram on destruction. Used to time Gibbs sweeps and scoring calls.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistogramTimer() {
    histogram_->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count());
  }

  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Appends `text` JSON-escaped (without surrounding quotes) to `out`.
/// Shared by the trace writer and run reports.
void AppendJsonEscaped(std::string_view text, std::string* out);

/// Formats a double as a JSON number (finite; NaN/inf degrade to 0).
std::string JsonNumber(double value);

}  // namespace microrec::obs

#endif  // MICROREC_OBS_METRICS_H_
