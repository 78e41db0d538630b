// Deterministic, splittable random number generation.
//
// Every stochastic component in the library (synthetic data generation,
// Gibbs samplers, negative sampling, the RAN baseline) draws from an Rng so
// experiments are exactly reproducible from a single seed. The generator is
// PCG32 (O'Neill, 2014): fast, statistically strong, 64-bit state, and
// trivially split into independent streams — which std::mt19937 cannot do
// safely.
#ifndef MICROREC_UTIL_RNG_H_
#define MICROREC_UTIL_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace microrec {

/// Registry of reserved Rng stream ids.
///
/// A PCG32 stream id selects an independent sequence for the same seed, so
/// two components drawing from the same (seed, stream) pair would see
/// correlated randomness. Every fixed stream id used anywhere in the
/// library is declared here; pick ids for new components from this file so
/// collisions are caught at review time, and extend the unit test in
/// tests/util/rng_test.cc (which enumerates ReservedStreams() for
/// uniqueness and disjointness from the Gibbs shard block).
///
/// Two id families are intentionally *not* scalar constants:
///   - fault-injection sites hash their site name (FNV-1a, forced odd) into
///     a 64-bit stream (resilience/fault.cc) — and additionally perturb the
///     seed, so even an improbable hash landing on a reserved id cannot
///     correlate;
///   - parallel Gibbs shards occupy the dedicated block
///     [kGibbsShardBase, kGibbsShardBase + kGibbsShardIterations *
///     kGibbsShardSlots), far above every scalar id, via GibbsShardStream().
namespace streams {

/// Default stream of Rng's one-argument constructor.
inline constexpr uint64_t kDefault = 1;
/// ExperimentRunner's split/derivation generator (eval/experiment.cc).
inline constexpr uint64_t kExperimentSplits = 11;
/// TopicEngine's training + inference generator (rec/engine.cc).
inline constexpr uint64_t kTopicEngine = 97;
/// Retry backoff jitter (resilience/retry.cc).
inline constexpr uint64_t kRetryJitter = 0x9E77;
/// Canonical ranking tie-break permutation (rec/ranker.h re-exports this
/// as rec::kTieBreakStream).
inline constexpr uint64_t kTieBreak = 1299709;
/// The RAN baseline's shuffles (eval/experiment.cc).
inline constexpr uint64_t kRandomBaseline = 2147483647;
/// The load driver's workload schedule generator (load/workload.cc).
inline constexpr uint64_t kLoadSchedule = 77377;

/// Parallel-Gibbs shard substreams live in their own block above every
/// scalar id: shard `s` of iteration `t` draws from stream
/// kGibbsShardBase + t * kGibbsShardSlots + s. The block keyed by
/// (shard, iteration) gives each shard a fresh, mutually independent
/// sequence every sweep without any cross-thread draw ordering.
inline constexpr uint64_t kGibbsShardBase = uint64_t{1} << 32;
/// Maximum shards per iteration (shard ids are taken modulo this).
inline constexpr uint64_t kGibbsShardSlots = uint64_t{1} << 16;
/// Iterations before the block would wrap (far beyond any training budget).
inline constexpr uint64_t kGibbsShardIterations = uint64_t{1} << 24;

constexpr uint64_t GibbsShardStream(uint64_t shard, uint64_t iteration) {
  return kGibbsShardBase +
         (iteration % kGibbsShardIterations) * kGibbsShardSlots +
         (shard % kGibbsShardSlots);
}

/// True when `id` falls inside the Gibbs shard block.
constexpr bool IsGibbsShardStream(uint64_t id) {
  return id >= kGibbsShardBase &&
         id < kGibbsShardBase + kGibbsShardIterations * kGibbsShardSlots;
}

/// Per-request tie-break substreams (rec/serving.h): request `rid` of a
/// load run draws its ranking tie permutation from stream
/// RequestTieStream(rid), making the served ranking a pure function of
/// (seed, rid) — independent of which client thread runs the request and
/// of how many requests ran before it. The block sits above the Gibbs
/// shard block, which ends below 2^41.
inline constexpr uint64_t kRequestTieBase = uint64_t{1} << 42;
/// Distinct per-request streams before ids are reused (rid modulo this).
inline constexpr uint64_t kRequestTieSlots = uint64_t{1} << 32;

constexpr uint64_t RequestTieStream(uint64_t request_id) {
  return kRequestTieBase + (request_id % kRequestTieSlots);
}

/// True when `id` falls inside the request tie-break block.
constexpr bool IsRequestTieStream(uint64_t id) {
  return id >= kRequestTieBase && id < kRequestTieBase + kRequestTieSlots;
}

/// A reserved scalar stream with its owner, for the uniqueness test.
struct NamedStream {
  const char* name;
  uint64_t id;
};

/// Every reserved scalar stream id, exactly once each.
const std::vector<NamedStream>& ReservedStreams();

}  // namespace streams

/// PCG32 pseudo-random generator with convenience distributions.
class Rng {
 public:
  using result_type = uint32_t;

  /// Creates a generator from a seed and a stream id. Distinct stream ids
  /// yield statistically independent sequences for the same seed.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t stream = 1);

  /// Derives an independent child generator; used to hand each worker or
  /// user its own stream without contention or order dependence.
  Rng Split();

  /// Raw 32 uniform bits (UniformRandomBitGenerator interface).
  uint32_t operator()() { return NextU32(); }
  static constexpr uint32_t min() { return 0; }
  static constexpr uint32_t max() { return 0xffffffffu; }

  // NextU32 and UniformU32 are defined inline below: Shuffle draws one
  // UniformU32 per element, and the ranker shuffles every query's
  // candidates.
  uint32_t NextU32();
  uint64_t NextU64();

  /// Uniform integer in [0, bound). Uses Lemire's unbiased method.
  uint32_t UniformU32(uint32_t bound);
  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Uniform double in [0, 1).
  double UniformDouble();
  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);
  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);
  /// Standard normal via Box-Muller (cached second value).
  double Normal(double mean = 0.0, double stddev = 1.0);
  /// Gamma(shape, scale=1) via Marsaglia-Tsang; valid for shape > 0.
  double Gamma(double shape);
  /// Beta(a, b) via two Gamma draws.
  double Beta(double a, double b);
  /// Exponential with rate lambda.
  double Exponential(double lambda);
  /// Poisson(lambda); Knuth for small lambda, PTRS-style rejection otherwise.
  uint32_t Poisson(double lambda);

  /// Samples an index proportionally to `weights` (need not be normalised;
  /// all weights must be >= 0 and at least one positive). A zero, negative,
  /// NaN, or infinite total mass is handled safely in release builds: the
  /// draw degrades to DegenerateFallback() — deterministic index 0, one
  /// uniform consumed, `degenerate_draws()` bumped — instead of relying on
  /// the debug-only asserts. Callers on statistical paths must check
  /// degenerate_draws() and surface the corruption; see GuardDegenerateDraws
  /// in topic/topic_model.h.
  size_t Categorical(const std::vector<double>& weights);
  /// Same, from a raw pointer range (hot path for Gibbs samplers). A
  /// non-null `total` receives the weights' sum, added in index order: the
  /// dense sweepers' last draw mass, at no second pass.
  size_t Categorical(const double* weights, size_t n,
                     double* total = nullptr);

  /// The documented degenerate-mass fallback: consumes exactly one
  /// UniformDouble (so healthy and degenerate draws advance the stream
  /// identically), increments the degenerate-draw diagnostics, and returns
  /// index 0. Exposed so sparse kernels that sample outside Categorical()
  /// can degrade the same way.
  size_t DegenerateFallback(size_t n);

  /// Number of degenerate-mass draws this generator has absorbed. Purely
  /// diagnostic: not part of State, so save/restore round-trips ignore it.
  uint64_t degenerate_draws() const { return degenerate_draws_; }

  /// Draws from a symmetric Dirichlet(alpha) of dimension `dim`.
  std::vector<double> DirichletSymmetric(double alpha, size_t dim);
  /// Draws from Dirichlet(alphas).
  std::vector<double> Dirichlet(const std::vector<double>& alphas);

  /// Fisher-Yates shuffle. The unqualified swap supports proxy references
  /// (std::vector<bool>) as well as ordinary element types.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    using std::swap;
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformU32(static_cast<uint32_t>(i));
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (floyd's algorithm when k << n,
  /// shuffle otherwise). Result order is unspecified.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Complete generator state, for persistence. Restoring a saved state
  /// replays the exact draw sequence (including the Box-Muller cache), which
  /// is what makes warm-started scoring bit-identical to the original run.
  struct State {
    uint64_t state = 0;
    uint64_t inc = 0;
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };
  State SaveState() const {
    return State{state_, inc_, has_cached_normal_, cached_normal_};
  }
  void RestoreState(const State& s) {
    state_ = s.state;
    inc_ = s.inc;
    has_cached_normal_ = s.has_cached_normal;
    cached_normal_ = s.cached_normal;
  }

 private:
  static constexpr uint64_t kPcgMultiplier = 6364136223846793005ULL;

  uint64_t state_;
  uint64_t inc_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
  uint64_t degenerate_draws_ = 0;
};

inline uint32_t Rng::NextU32() {
  const uint64_t old = state_;
  state_ = old * kPcgMultiplier + inc_;
  const uint32_t xorshifted =
      static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  const uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

inline uint32_t Rng::UniformU32(uint32_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  uint64_t m = static_cast<uint64_t>(NextU32()) * bound;
  uint32_t l = static_cast<uint32_t>(m);
  if (l < bound) {
    const uint32_t t = -bound % bound;
    while (l < t) {
      m = static_cast<uint64_t>(NextU32()) * bound;
      l = static_cast<uint32_t>(m);
    }
  }
  return static_cast<uint32_t>(m >> 32);
}

}  // namespace microrec

#endif  // MICROREC_UTIL_RNG_H_
