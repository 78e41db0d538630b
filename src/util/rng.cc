#include "util/rng.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"

namespace microrec {

namespace streams {

const std::vector<NamedStream>& ReservedStreams() {
  static const std::vector<NamedStream>* all = new std::vector<NamedStream>{
      {"default", kDefault},
      {"experiment_splits", kExperimentSplits},
      {"topic_engine", kTopicEngine},
      {"retry_jitter", kRetryJitter},
      {"tie_break", kTieBreak},
      {"random_baseline", kRandomBaseline},
      {"load_schedule", kLoadSchedule},
  };
  return *all;
}

}  // namespace streams

Rng::Rng(uint64_t seed, uint64_t stream) {
  inc_ = (stream << 1u) | 1u;
  state_ = 0;
  NextU32();
  state_ += seed;
  NextU32();
}

Rng Rng::Split() {
  // Child stream id and seed are both derived from fresh draws so children
  // of children remain independent.
  uint64_t child_seed = NextU64();
  uint64_t child_stream = NextU64();
  return Rng(child_seed, child_stream);
}

uint64_t Rng::NextU64() {
  return (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextU64());  // full range
  // 64-bit rejection sampling.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t draw;
  do {
    draw = NextU64();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % range);
}

double Rng::UniformDouble() {
  return (NextU64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  return UniformDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1, u2;
  do {
    u1 = UniformDouble();
  } while (u1 <= 1e-300);
  u2 = UniformDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::Gamma(double shape) {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 then scale down (Marsaglia-Tsang trick).
    double u = UniformDouble();
    while (u <= 0.0) u = UniformDouble();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  double d = shape - 1.0 / 3.0;
  double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = UniformDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::Beta(double a, double b) {
  double x = Gamma(a);
  double y = Gamma(b);
  return x / (x + y);
}

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  double u = UniformDouble();
  while (u <= 0.0) u = UniformDouble();
  return -std::log(u) / lambda;
}

uint32_t Rng::Poisson(double lambda) {
  assert(lambda >= 0.0);
  if (lambda < 30.0) {
    // Knuth's multiplicative method.
    double limit = std::exp(-lambda);
    double p = 1.0;
    uint32_t k = 0;
    do {
      ++k;
      p *= UniformDouble();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction is adequate for the
  // corpus-scale draws we need (counts of tweets per user etc.).
  double draw = Normal(lambda, std::sqrt(lambda));
  return draw < 0.0 ? 0u : static_cast<uint32_t>(draw + 0.5);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  return Categorical(weights.data(), weights.size());
}

size_t Rng::Categorical(const double* weights, size_t n) {
  assert(n > 0);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += weights[i];
  // !(total > 0) also catches NaN; isfinite catches an overflowed sum. In
  // release builds this used to fall through to a biased draw — degrade to
  // the documented deterministic fallback instead.
  if (!(total > 0.0) || !std::isfinite(total)) return DegenerateFallback(n);
  double target = UniformDouble() * total;
  double cum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    cum += weights[i];
    if (target < cum) return i;
  }
  // Floating-point slack: fall back to the last positive-weight index.
  for (size_t i = n; i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return n - 1;
}

size_t Rng::DegenerateFallback(size_t n) {
  assert(n > 0);
  (void)n;
  UniformDouble();  // keep the draw stream aligned with the healthy path
  ++degenerate_draws_;
  static obs::Counter* degenerate =
      obs::MetricsRegistry::Global().GetCounter("rng.degenerate_draws");
  degenerate->Increment();
  return 0;
}

std::vector<double> Rng::DirichletSymmetric(double alpha, size_t dim) {
  std::vector<double> out(dim);
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    out[i] = Gamma(alpha);
    sum += out[i];
  }
  if (sum <= 0.0) {
    std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(dim));
    return out;
  }
  for (double& v : out) v /= sum;
  return out;
}

std::vector<double> Rng::Dirichlet(const std::vector<double>& alphas) {
  std::vector<double> out(alphas.size());
  double sum = 0.0;
  for (size_t i = 0; i < alphas.size(); ++i) {
    out[i] = Gamma(alphas[i]);
    sum += out[i];
  }
  if (sum <= 0.0) {
    std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(out.size()));
    return out;
  }
  for (double& v : out) v /= sum;
  return out;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  if (k == 0) return {};
  if (k * 3 >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    Shuffle(all);
    all.resize(k);
    return all;
  }
  // Floyd's algorithm: k draws, no O(n) setup.
  std::unordered_set<size_t> chosen;
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = UniformU32(static_cast<uint32_t>(j + 1));
    if (chosen.count(t)) t = j;
    chosen.insert(t);
    out.push_back(t);
  }
  return out;
}

}  // namespace microrec
