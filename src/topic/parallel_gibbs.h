// Data-parallel collapsed-Gibbs training driver in the AD-LDA style
// (Newman, Asuncion, Smyth & Welling 2009): training items (documents for
// LDA/LLDA/PLSA, biterms for BTM) are split into contiguous shards with the
// same pure-function boundaries as ThreadPool::ParallelForShards; every
// shard samples against a thread-local working copy of the shared count
// arrays using an Rng substream keyed by (seed, shard, iteration); count
// deltas are merged back into the global arrays at an iteration barrier.
//
// The protocol trades exactness for parallelism: within a merge block a
// shard sees the other shards' counts as of the last barrier, so the joint
// sample path differs from the sequential sampler's. The result is
//   - deterministic for a fixed (seed, train_threads, merge_every) — merges
//     are order-independent integer sums, reductions run in shard order;
//   - exactly count-conserving — the merge is `global = snapshot +
//     Σ_shards (local − snapshot)` in wrapping uint32 arithmetic, so every
//     token still contributes exactly 1 to its current topic;
//   - only *statistically* equivalent to sequential Gibbs. The
//     statistical-equivalence contract (held-out perplexity band, MAP
//     within ±0.01) is enforced by tests/topic/stat_equiv_test.cc and
//     documented in DESIGN.md §10.
//
// LDA, LLDA and BTM train through RunGibbs (topic/sparse_kernel.h), and PLSA
// through one EM loop, both inside the guarded sweep loop RunGuardedSweeps
// (topic/topic_model.h); each constructs this driver only when
// train_threads > 1. At train_threads = 1 they run sequentially on the
// caller's Rng with the exact historical draw sequence, so snapshots / warm
// starts / the CI determinism job are unaffected by default.
#ifndef MICROREC_TOPIC_PARALLEL_GIBBS_H_
#define MICROREC_TOPIC_PARALLEL_GIBBS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace microrec::topic {

/// Per-token draw algorithm for the collapsed-Gibbs models (LDA, LLDA,
/// BTM). PLSA (EM, no per-token draw) and the nonparametric samplers (HDP,
/// HLDA — topic count changes mid-sweep) ignore it.
enum class SamplerKernel {
  /// The original dense O(K) cumulative scan. Default; bit-identical to
  /// every previous release for a fixed seed.
  kDense = 0,
  /// SparseLDA-style bucket decomposition (Yao, Mimno & McCallum 2009):
  /// exact draws in O(nonzero topics) via smoothing/document/topic-word
  /// buckets over sorted count lists. See topic/sparse_kernel.h.
  kSparse = 1,
  /// Stale per-word Walker alias tables with Metropolis-Hastings
  /// correction (AliasLDA / LightLDA style): O(1) proposals, exact
  /// stationary distribution. See topic/sparse_kernel.h.
  kAlias = 2,
};

/// Training parallelism knob shared by the parametric models (LDA, LLDA,
/// BTM, PLSA). HDP and HLDA ignore it: their samplers mutate global
/// structure (CRP dish tables, the nCRP tree) that document sharding would
/// race on — see the notes in hdp.h / hlda.h.
struct TrainOptions {
  /// Worker threads for the sharded sweeps. <= 1 runs the training loop's
  /// sequential branch — same RNG draw sequence, bit-identical output.
  size_t train_threads = 1;
  /// Iterations between count-delta merges when train_threads > 1. Larger
  /// values amortise the barrier at the cost of staler cross-shard counts;
  /// values < 1 are treated as 1. PLSA ignores this: EM accumulators are
  /// per-iteration by construction.
  int merge_every = 1;
  /// Per-token draw kernel. kDense preserves the historical draw sequence;
  /// kSparse and kAlias are statistically equivalent (same stat-equiv
  /// contract as train_threads, DESIGN.md §15) but not bit-identical.
  /// Composes with train_threads: each shard runs its own sweeper. The
  /// alias kernel's table staleness is the constant kAliasStaleBudget.
  SamplerKernel sampler_kernel = SamplerKernel::kDense;
};

/// The shard/merge engine behind the sharded training branches. Single-use:
/// register the shared arrays, run the training iterations, FlushMerge().
class ParallelGibbs {
 public:
  /// `num_items` > 0 items are split into ceil(num_items / train_threads)-
  /// sized shards (so at most train_threads shards); `seed` keys every
  /// shard substream via streams::GibbsShardStream.
  ParallelGibbs(size_t num_items, const TrainOptions& options, uint64_t seed);
  ~ParallelGibbs();

  ParallelGibbs(const ParallelGibbs&) = delete;
  ParallelGibbs& operator=(const ParallelGibbs&) = delete;

  size_t num_shards() const { return num_shards_; }
  size_t shard_begin(size_t shard) const {
    return ThreadPool::ShardBounds(num_items_, shard_size_, shard).first;
  }
  size_t shard_end(size_t shard) const {
    return ThreadPool::ShardBounds(num_items_, shard_size_, shard).second;
  }

  /// Registers a shared count array (topic-word counts, topic totals).
  /// Each shard samples against its own working copy, refreshed from the
  /// global at every merge barrier. Not owned; must outlive the driver and
  /// keep its size. Returns the handle for Shard::Counts(). Register all
  /// arrays before the first RunIteration().
  size_t AddCounts(std::vector<uint32_t>* counts);

  /// Registers a per-iteration accumulator (PLSA's φ numerators): every
  /// shard's copy is zeroed before each sweep, and at the barrier the
  /// global is overwritten with the shard-ordered sum of the copies.
  size_t AddAccumulator(std::vector<double>* acc);

  /// What one sweep body sees: its contiguous item range, its substream
  /// generator (fresh per iteration), and its working copies.
  struct Shard {
    size_t index = 0;
    size_t begin = 0;
    size_t end = 0;
    Rng* rng = nullptr;

    uint32_t* Counts(size_t handle) const;
    double* Accumulator(size_t handle) const;

   private:
    friend class ParallelGibbs;
    ParallelGibbs* owner_ = nullptr;
  };

  /// Runs `fn` once per shard — concurrently when constructed with more
  /// than one thread — as Gibbs iteration `iteration`, then barriers.
  /// Count deltas merge every merge_every iterations; accumulators reduce
  /// at every barrier. An exception escaping `fn` cancels sibling shards
  /// (via ThreadPool's first-error protocol), discards the in-flight merge
  /// block — the globals keep their last merged state — and propagates to
  /// the caller; the driver stays usable.
  void RunIteration(int iteration,
                    const std::function<void(const Shard&)>& fn);

  /// Merges outstanding count deltas (needed after the final iteration
  /// when the iteration count is not a multiple of merge_every).
  /// Idempotent.
  void FlushMerge();

 private:
  struct Replica {
    std::vector<uint32_t>* global = nullptr;
    std::vector<uint32_t> snapshot;
    std::vector<std::vector<uint32_t>> locals;  // one per shard
  };
  struct Accumulator {
    std::vector<double>* global = nullptr;
    std::vector<std::vector<double>> locals;  // one per shard
  };

  void BeginBlock();
  void MergeCounts();
  void ReduceAccumulators();

  const size_t num_items_;
  const size_t shard_size_;
  const size_t num_shards_;
  const int merge_every_;
  const uint64_t seed_;
  std::unique_ptr<ThreadPool> pool_;  // null when effectively sequential
  std::vector<Replica> replicas_;
  std::vector<Accumulator> accumulators_;
  int pending_ = 0;  // iterations sampled since the last count merge
};

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_PARALLEL_GIBBS_H_
