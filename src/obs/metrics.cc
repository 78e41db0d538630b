#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace microrec::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The index mapping. Bucket b >= 1 holds the values v with
// ceil(log_g(v)) == b - 1 + kMinIndex; bucket 0 holds everything below
// bucket 1 (zero and negatives too), the top bucket everything above.
constexpr double kAlpha = Histogram::kRelativeAccuracy;
constexpr double kGamma = (1.0 + kAlpha) / (1.0 - kAlpha);
// ln(g) = 2 atanh(a), from its series; the terms left out are below 1e-20.
constexpr double kAlpha2 = kAlpha * kAlpha;
constexpr double kLogGamma =
    2.0 * kAlpha *
    (1.0 + kAlpha2 / 3.0 + kAlpha2 * kAlpha2 / 5.0 +
     kAlpha2 * kAlpha2 * kAlpha2 / 7.0);
constexpr int kMinIndex = -1036;  // g^-1036 ~ 1.0e-9
constexpr int kMaxIndex = 1036;   // g^1036 ~ 1.0e9
constexpr size_t kNumBuckets = kMaxIndex - kMinIndex + 2;

size_t BucketOf(double value) {
  if (!(value > 0.0)) return 0;
  const double index = std::ceil(std::log(value) / kLogGamma);
  if (index < kMinIndex) return 0;
  if (index > kMaxIndex) return kNumBuckets - 1;
  return static_cast<size_t>(index - kMinIndex) + 1;
}

// The point of (g^(i-1), g^i] within relative distance a of both ends.
double BucketValue(size_t bucket) {
  if (bucket == 0) return 0.0;
  const int index = static_cast<int>(bucket) - 1 + kMinIndex;
  return 2.0 * std::exp(index * kLogGamma) / (kGamma + 1.0);
}

void AtomicMinDouble(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (value < cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (value > cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

namespace internal {

size_t NextStripe() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

}  // namespace internal

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
}

struct alignas(internal::kCacheLine) Histogram::Stripe {
  std::array<std::atomic<uint64_t>, kNumBuckets> counts{};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{kInf};
  std::atomic<double> max{-kInf};
};

struct Histogram::Totals {
  std::vector<uint64_t> counts = std::vector<uint64_t>(kNumBuckets, 0);
  uint64_t count = 0;
  double sum = 0.0;
  double min = kInf;
  double max = -kInf;

  double Quantile(double q) const {
    if (count == 0) return 0.0;
    if (q <= 0.0) return min;
    if (q >= 1.0) return max;
    const double rank =
        std::max(1.0, std::ceil(q * static_cast<double>(count)));
    uint64_t seen = 0;
    for (size_t b = 0; b < kNumBuckets; ++b) {
      seen += counts[b];
      if (static_cast<double>(seen) >= rank) {
        // Not std::clamp: a snapshot racing a first Record() can see the
        // count before the min/max.
        return std::min(std::max(BucketValue(b), min), max);
      }
    }
    return max;
  }
};

Histogram::~Histogram() {
  for (std::atomic<Stripe*>& slot : stripes_) {
    delete slot.load(std::memory_order_acquire);
  }
}

Histogram::Stripe* Histogram::LocalStripe() {
  std::atomic<Stripe*>& slot = stripes_[internal::ThisThreadStripe()];
  Stripe* stripe = slot.load(std::memory_order_acquire);
  if (stripe == nullptr) {
    auto fresh = std::make_unique<Stripe>();
    // A thread sharing the slot may have installed one first; then
    // `stripe` receives it and `fresh` is freed.
    if (slot.compare_exchange_strong(stripe, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      stripe = fresh.release();
    }
  }
  return stripe;
}

void Histogram::Record(double value) {
  if (!std::isfinite(value)) return;
  Stripe* stripe = LocalStripe();
  stripe->counts[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  stripe->sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMinDouble(&stripe->min, value);
  AtomicMaxDouble(&stripe->max, value);
}

void Histogram::Merge(const Histogram& other) {
  const Totals totals = other.Merged();
  if (totals.count == 0) return;
  Stripe* stripe = LocalStripe();
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (totals.counts[b] != 0) {
      stripe->counts[b].fetch_add(totals.counts[b],
                                  std::memory_order_relaxed);
    }
  }
  stripe->sum.fetch_add(totals.sum, std::memory_order_relaxed);
  AtomicMinDouble(&stripe->min, totals.min);
  AtomicMaxDouble(&stripe->max, totals.max);
}

void Histogram::Reset() {
  for (std::atomic<Stripe*>& slot : stripes_) {
    Stripe* stripe = slot.load(std::memory_order_acquire);
    if (stripe == nullptr) continue;
    for (std::atomic<uint64_t>& c : stripe->counts) {
      c.store(0, std::memory_order_relaxed);
    }
    stripe->sum.store(0.0, std::memory_order_relaxed);
    stripe->min.store(kInf, std::memory_order_relaxed);
    stripe->max.store(-kInf, std::memory_order_relaxed);
  }
}

Histogram::Totals Histogram::Merged() const {
  Totals totals;
  for (const std::atomic<Stripe*>& slot : stripes_) {
    const Stripe* stripe = slot.load(std::memory_order_acquire);
    if (stripe == nullptr) continue;
    for (size_t b = 0; b < kNumBuckets; ++b) {
      const uint64_t n = stripe->counts[b].load(std::memory_order_relaxed);
      totals.counts[b] += n;
      totals.count += n;
    }
    totals.sum += stripe->sum.load(std::memory_order_relaxed);
    totals.min =
        std::min(totals.min, stripe->min.load(std::memory_order_relaxed));
    totals.max =
        std::max(totals.max, stripe->max.load(std::memory_order_relaxed));
  }
  return totals;
}

uint64_t Histogram::count() const { return Merged().count; }

double Histogram::sum() const { return Merged().sum; }

double Histogram::Quantile(double q) const { return Merged().Quantile(q); }

HistogramSnapshot Histogram::Snapshot(std::string name) const {
  const Totals totals = Merged();
  HistogramSnapshot snap;
  snap.name = std::move(name);
  snap.count = totals.count;
  snap.sum = totals.sum;
  if (totals.count > 0) {
    snap.min = totals.min;
    snap.max = totals.max;
  }
  snap.p50 = totals.Quantile(0.50);
  snap.p90 = totals.Quantile(0.90);
  snap.p99 = totals.Quantile(0.99);
  snap.p999 = totals.Quantile(0.999);
  return snap;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  return Merged().counts;
}

const CounterSnapshot* MetricsSnapshot::FindCounter(
    std::string_view name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const GaugeSnapshot& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void AppendJsonEscaped(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    AppendJsonEscaped(counters[i].name, &out);
    out += "\":" + std::to_string(counters[i].value);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    AppendJsonEscaped(gauges[i].name, &out);
    out += "\":" + JsonNumber(gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i > 0) out += ',';
    out += '"';
    AppendJsonEscaped(h.name, &out);
    out += "\":{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + JsonNumber(h.sum);
    out += ",\"min\":" + JsonNumber(h.min);
    out += ",\"max\":" + JsonNumber(h.max);
    out += ",\"mean\":" + JsonNumber(h.Mean());
    out += ",\"p50\":" + JsonNumber(h.p50);
    out += ",\"p90\":" + JsonNumber(h.p90);
    out += ",\"p99\":" + JsonNumber(h.p99);
    out += ",\"p999\":" + JsonNumber(h.p999);
    out += '}';
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so metrics outlive every static destructor that might record.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back(histogram->Snapshot(name));
  }
  return snap;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace microrec::obs
