// The recommendation engines: one per representation-model family, behind a
// common interface so the experiment runner can sweep all 223
// configurations uniformly.
//
// Protocol (mirrors Section 4's setup):
//   1. Prepare()  — global phase. Topic models train one model M(s) per
//                   representation source on the pooled training tweets of
//                   *all* users; bag/graph models have nothing global.
//   2. BuildUser() — per-user phase: construct UM_s(u) from the user's
//                   labelled train set. Included in TTime.
//   3. Score()    — similarity of a test tweet's document model with the
//                   user model. Included in ETime.
#ifndef MICROREC_REC_ENGINE_H_
#define MICROREC_REC_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bag/sparse_vector.h"
#include "corpus/split.h"
#include "rec/model_config.h"
#include "rec/preprocessed.h"
#include "resilience/deadline.h"
#include "snapshot/snapshot.h"
#include "topic/parallel_gibbs.h"
#include "util/rng.h"
#include "util/status.h"

namespace microrec::rec {

/// How a warm-started engine holds its persisted state (DESIGN.md §16).
/// Both map the file and decode rows through the same decoders: kResident
/// decodes every row at open and drops the mapping; kMmap keeps the map
/// and decodes a row on first use behind a small LRU, so steady-state RSS
/// scales with the working set, not the model. Rankings are byte-identical
/// across modes.
enum class ServeMode {
  kResident,
  kMmap,
};

/// "resident" / "mmap" (CLI flag values and bench labels).
const char* ServeModeName(ServeMode mode);
/// Parses a serve mode name; InvalidArgument listing legal values otherwise.
Status ParseServeMode(std::string_view name, ServeMode* mode);

/// Everything an engine needs to train and score.
struct EngineContext {
  const PreprocessedCorpus* pre = nullptr;
  corpus::Source source = corpus::Source::kR;
  /// Users participating in this run (global topic training pools their
  /// train sets).
  const std::vector<corpus::UserId>* users = nullptr;
  /// Accessor for a user's labelled train set.
  std::function<const corpus::LabeledTrainSet&(corpus::UserId)> train_set;
  uint64_t seed = 7;
  /// Multiplier on topic-model Gibbs sweeps; < 1 scales the paper's
  /// 1,000/2,000-iteration budgets down to laptop time while preserving
  /// their 1:2 ratio. Minimum of 5 sweeps is always run.
  double iteration_scale = 1.0;
  /// LLDA hashtag-label frequency threshold (30 in the paper; lower it for
  /// small synthetic corpora).
  size_t llda_min_hashtag_count = 30;
  /// Threads for sharded topic-model training (topic/parallel_gibbs.h).
  /// 1 keeps the sequential sampler bit-for-bit; > 1 trains LDA / LLDA /
  /// BTM / PLSA with AD-LDA-style document shards — statistically
  /// equivalent, not bit-identical, to sequential (DESIGN.md §10). HDP and
  /// HLDA ignore this and always train sequentially (see their headers).
  /// Not part of snapshot identity: a snapshot trained at any thread count
  /// loads under any other.
  size_t train_threads = 1;
  /// Gibbs draw kernel for LDA / LLDA / BTM (topic/sparse_kernel.h):
  /// kDense keeps the original O(K) scan bit-for-bit; kSparse uses the
  /// SparseLDA bucket decomposition; kAlias uses stale alias tables with
  /// Metropolis-Hastings correction. HDP / HLDA / PLSA ignore this.
  topic::SamplerKernel sampler_kernel = topic::SamplerKernel::kDense;
  /// Optional deadline / cancellation, honored between Gibbs sweeps by the
  /// topic engines. Not owned; may be nullptr.
  const resilience::CancelContext* cancel = nullptr;
  /// Snapshot to warm-start from. When non-empty, Prepare() first attempts
  /// Engine::WarmStart(warm_start_snapshot); on success the training phase
  /// is skipped entirely; a missing file falls back to cold training; any
  /// other load failure (corruption, identity mismatch) propagates.
  std::string warm_start_snapshot;
  /// Unread: every engine writes microrec.snap/2. perfbench/main.cc still
  /// sets it; delete the field and that line together.
  snapshot::SnapshotCodec snapshot_codec = snapshot::SnapshotCodec::kCompressed;
  /// How warm starts hold persisted state (see ServeMode).
  ServeMode serve_mode = ServeMode::kResident;
  /// Per-engine LRU capacity (user models materialized from the map) in
  /// mmap mode. The cache only bounds memory; hit-or-miss never changes a
  /// score.
  size_t mapped_user_cache = 1024;
};

/// Optional capability for engines whose user models are sparse term
/// vectors (the bag family, TN / CN): the profile itself, and Score()'s two
/// halves, for callers that inspect profiles or time the halves apart.
class SparseProfileScorer {
 public:
  virtual ~SparseProfileScorer() = default;

  /// The user's profile vector; nullptr before BuildUser().
  virtual const bag::SparseVector* Profile(corpus::UserId u) const = 0;

  /// Embeds candidate `d` exactly as Score() does. Interns nothing; empty
  /// for a user the engine does not hold.
  virtual bag::SparseVector Embed(corpus::UserId u, corpus::TweetId d,
                                  const EngineContext& ctx) = 0;

  /// The similarity kernel Score() runs, on `profile` (user `u`'s
  /// Profile()) and a pre-embedded candidate.
  virtual double Kernel(corpus::UserId u, const bag::SparseVector& profile,
                        const bag::SparseVector& doc) const = 0;
};

/// Abstract engine; instances are single-use (one configuration, one
/// source, one run) and not thread-safe, except that Score() may run
/// concurrently where ScoresConcurrently() says so.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Global phase (topic models train here; others no-op).
  virtual Status Prepare(const EngineContext& ctx) = 0;

  /// Builds the model of user `u` from her labelled train set.
  virtual Status BuildUser(corpus::UserId u,
                           const corpus::LabeledTrainSet& train,
                           const EngineContext& ctx) = 0;

  /// Ranking score of test tweet `d` for user `u` (higher = more relevant).
  /// Bag and graph engines only read their state here; topic engines fold
  /// unseen tweets in with draws from a shared generator, so their scores
  /// depend on call order.
  virtual double Score(corpus::UserId u, corpus::TweetId d,
                       const EngineContext& ctx) = 0;

  /// Drops user `u`'s model so the next BuildUser() rebuilds it from the
  /// (possibly extended) train set — the streaming-ingest rebuild hook.
  /// Without this, a snapshot-warmed engine treats BuildUser as a no-op for
  /// persisted users and an incremental update would be silently skipped.
  /// Global state (topic model, vocabulary, inference caches) is untouched:
  /// streaming applies fold-in inference over the frozen global phase.
  virtual void InvalidateUser(corpus::UserId u) { (void)u; }

  /// Persists everything needed to serve without retraining — the trained
  /// global model (topic families), every built user model, and for topic
  /// engines the inference cache and generator state — atomically to
  /// `path` as a microrec.snap/2 container (DESIGN.md §8, §16). Valid
  /// after Prepare().
  virtual Status SaveSnapshot(const std::string& path,
                              const EngineContext& ctx) const = 0;

  /// The one open: restores a SaveSnapshot() file into a freshly
  /// constructed engine of the same configuration. Verifies the header
  /// identity (model, source, seed, iteration_scale, config fingerprint)
  /// and its vocabulary fingerprint against the corpus gram table the
  /// persisted ids index (ModelConfig::Featurization()) before adopting
  /// anything, in either residency; a file of another container version
  /// fails as version skew (FailedPrecondition) and must be retrained.
  /// Afterwards BuildUser() is a no-op for persisted users and Score() is
  /// bit-identical to the engine that saved. `residency` only decides how
  /// rows are held:
  ///   * kResident decodes every row at open, then drops the mapping;
  ///   * kMmap decodes a row the first time a query needs it (bounded by
  ///     ctx.mapped_user_cache) and keeps the mapping for the engine's
  ///     lifetime. A mapped engine is read-only with respect to the
  ///     persisted users: SaveSnapshot is FailedPrecondition.
  virtual Status Open(const std::string& path, const EngineContext& ctx,
                      ServeMode residency) = 0;

  /// The resident open.
  Status LoadSnapshot(const std::string& path, const EngineContext& ctx) {
    return Open(path, ctx, ServeMode::kResident);
  }

  /// The mmap open.
  Status OpenMapped(const std::string& path, const EngineContext& ctx) {
    return Open(path, ctx, ServeMode::kMmap);
  }

  /// The warm-start entry: Open() at ctx.serve_mode.
  Status WarmStart(const std::string& path, const EngineContext& ctx) {
    return Open(path, ctx, ctx.serve_mode);
  }

  /// Whether Score() may run on several threads at once (BatchRanker then
  /// shards candidates over its pool). A property of the engine's state,
  /// not an option: true only where scoring reads nothing it writes.
  virtual bool ScoresConcurrently() const { return false; }

  /// Sparse-profile capability; nullptr for families without sparse
  /// user-term profiles (graph, topic).
  virtual SparseProfileScorer* sparse_scorer() { return nullptr; }
};

/// Instantiates the engine for a configuration.
std::unique_ptr<Engine> MakeEngine(const ModelConfig& config);

}  // namespace microrec::rec

#endif  // MICROREC_REC_ENGINE_H_
