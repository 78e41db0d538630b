// The experiment harness: wires a pre-processed corpus, the user cohort,
// per-user train/test splits and the recommendation engines into the
// paper's protocol (Section 4), measuring effectiveness (AP per user) and
// time (TTime = global training + modeling all users; ETime = scoring and
// ranking all test sets).
#ifndef MICROREC_EVAL_EXPERIMENT_H_
#define MICROREC_EVAL_EXPERIMENT_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "corpus/split.h"
#include "corpus/user_types.h"
#include "rec/engine.h"
#include "rec/model_config.h"
#include "rec/preprocessed.h"
#include "resilience/deadline.h"
#include "util/rng.h"
#include "util/status.h"

namespace microrec::eval {

/// Global options for a sweep.
struct RunOptions {
  /// Scales topic-model Gibbs budgets (1.0 = the paper's 1,000/2,000
  /// sweeps; the default trades fidelity for laptop wall-clock while
  /// preserving relative budgets).
  double topic_iteration_scale = 0.05;
  uint64_t seed = 1234;
  /// Hashtag-label threshold for LLDA (30 in the paper; lower for small
  /// synthetic corpora so hashtag labels exist at all).
  size_t llda_min_hashtag_count = 10;
  corpus::SplitOptions split;
  /// Snapshot store (train-once / recommend-many). When `snapshot_dir` is
  /// non-empty, `snapshot_load` warm-starts each run from the matching
  /// snapshot (missing files cold-train) and `snapshot_save` persists the
  /// trained engine — including user models and inference caches — after
  /// the run. Paths are keyed by configuration fingerprint and source.
  std::string snapshot_dir;
  bool snapshot_save = false;
  bool snapshot_load = false;
  /// Threads for the sharded scoring phase (BatchRanker). 1 keeps the
  /// paper's single-threaded ETime semantics; rankings are bit-identical
  /// at any value (see DESIGN.md §9), only wall-clock changes.
  size_t score_threads = 1;
  /// Threads for sharded topic-model training (LDA / LLDA / BTM / PLSA;
  /// HDP and HLDA stay sequential). 1 is bit-identical to the paper's
  /// sequential sampler; > 1 is statistically equivalent but not
  /// bit-identical (DESIGN.md §10) — TTime changes, MAP stays within the
  /// statistical-equivalence band enforced by tests/topic/stat_equiv_test.
  size_t train_threads = 1;
  /// Gibbs draw kernel for LDA / LLDA / BTM (kDense scans all K topics per
  /// token; kSparse / kAlias are the sub-linear kernels of
  /// topic/sparse_kernel.h — statistically equivalent, not bit-identical,
  /// to kDense; same equivalence band as train_threads > 1).
  topic::SamplerKernel sampler_kernel = topic::SamplerKernel::kDense;
  /// How warm starts hold persisted state: kResident decodes the snapshot
  /// into memory; kMmap serves straight from the mapped file. Rankings are
  /// identical either way.
  rec::ServeMode serve_mode = rec::ServeMode::kResident;
};

/// Outcome of evaluating one (configuration, source) pair over the whole
/// cohort. Per-group MAPs are sliced out of the per-user APs.
struct RunResult {
  std::vector<corpus::UserId> users;
  std::vector<double> aps;  // parallel to `users`
  double ttime_seconds = 0.0;
  double etime_seconds = 0.0;

  /// MAP over every evaluated user; 0.0 when no user was evaluated.
  double Map() const;
  /// MAP over the users of `group` (order-insensitive intersection); 0.0
  /// when the intersection is empty.
  double MapOfGroup(const std::vector<corpus::UserId>& group) const;
};

/// Drives the full evaluation protocol. Construction is cheap; Init()
/// builds the splits. Train sets are cached per (source, user) across the
/// hundreds of configuration runs.
class ExperimentRunner {
 public:
  ExperimentRunner(const rec::PreprocessedCorpus* pre,
                   const corpus::UserCohort* cohort, RunOptions options);

  /// Builds the train/test split of every cohort user. Users without a
  /// valid split (no retweets / no negatives) are dropped from evaluation;
  /// fails only if nobody survives.
  Status Init();

  /// Cohort members (per group) that survived split construction.
  const std::vector<corpus::UserId>& GroupUsers(corpus::UserType type) const;

  /// Evaluates one configuration on one representation source over all
  /// surviving users. `cancel` (optional) is honored between Gibbs sweeps
  /// during training and between users while scoring; an expired deadline
  /// or tripped token surfaces as DeadlineExceeded / Aborted.
  Result<RunResult> Run(const rec::ModelConfig& config, corpus::Source source,
                        const resilience::CancelContext* cancel = nullptr);

  /// The engine context Run() uses for (config, source) — exposed so the
  /// serving path and the CLI score with exactly the run's identity (seed,
  /// iteration scale, train-set accessor), which snapshot loading verifies.
  rec::EngineContext MakeContext(const rec::ModelConfig& config,
                                 corpus::Source source,
                                 const resilience::CancelContext* cancel =
                                     nullptr);

  /// Snapshot path of (config, source) under options().snapshot_dir:
  /// `<dir>/<config-fingerprint>-<source>.snap`. Empty when no dir is set.
  std::string SnapshotPath(const rec::ModelConfig& config,
                           corpus::Source source) const;

  /// The split of one user (must have survived Init()).
  const corpus::UserSplit& SplitOf(corpus::UserId u) const;

  /// Cached labelled train set for (source, user).
  const corpus::LabeledTrainSet& TrainSet(corpus::Source source,
                                          corpus::UserId u);

  /// CHR baseline AP per user of a group, averaged (MAP).
  double ChronologicalMap(corpus::UserType type) const;
  /// RAN baseline MAP of a group (`iterations` permutations per user).
  double RandomMap(corpus::UserType type, int iterations = 1000);

  const rec::PreprocessedCorpus& pre() const { return *pre_; }
  const RunOptions& options() const { return options_; }

 private:
  const rec::PreprocessedCorpus* pre_;
  const corpus::UserCohort* cohort_;
  RunOptions options_;
  Rng rng_;

  std::unordered_map<corpus::UserId, corpus::UserSplit> splits_;
  // Surviving users per group, in cohort order.
  std::vector<corpus::UserId> seekers_, balanced_, producers_, all_;
  std::map<std::pair<int, corpus::UserId>, corpus::LabeledTrainSet>
      train_cache_;
};

}  // namespace microrec::eval

#endif  // MICROREC_EVAL_EXPERIMENT_H_
