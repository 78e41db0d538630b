// Configuration sweeps: run many configurations of a model on one source
// and aggregate the Mean/Min/Max MAP (Figures 3-6), MAP deviation
// (robustness), TTime/ETime statistics (Figure 7) and best configuration
// (Table 7).
//
// Sweeps are fault-isolated by default: a configuration whose run fails
// (injected fault, non-finite posterior, deadline, cancellation) is recorded
// with its Status and excluded from every aggregate instead of aborting the
// remaining grid. `SweepOptions::fail_fast` restores abort-on-first-error.
// With `SweepOptions::checkpoint_path` set, completed outcomes stream to a
// JSONL checkpoint (resilience::SweepCheckpoint) and a restarted sweep skips
// configurations already on disk.
#ifndef MICROREC_EVAL_SWEEP_H_
#define MICROREC_EVAL_SWEEP_H_

#include <string>
#include <vector>

#include "eval/experiment.h"
#include "resilience/deadline.h"
#include "resilience/retry.h"

namespace microrec::eval {

/// One configuration's result. `result` is meaningful only when `status`
/// is OK; failed configurations keep a default RunResult.
struct ConfigOutcome {
  rec::ModelConfig config;
  RunResult result;
  Status status;

  bool ok() const { return status.ok(); }
};

/// Aggregate over the configs of one (model, source) pair. All statistics
/// cover only successful outcomes.
struct SweepResult {
  std::vector<ConfigOutcome> outcomes;
  /// Outcomes restored from a checkpoint instead of being re-run.
  size_t resumed = 0;

  /// Number of configurations whose run failed (excluded from aggregates).
  size_t failed() const;
  /// Number of configurations whose run succeeded.
  size_t succeeded() const { return outcomes.size() - failed(); }

  struct MapStats {
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double deviation = 0.0;  // max - min
    size_t configs = 0;
  };
  /// MAP statistics over all successfully run configurations, for one user
  /// group.
  MapStats StatsOfGroup(const std::vector<corpus::UserId>& group) const;

  /// The successful configuration with the highest MAP for `group`
  /// (Table 7); nullptr when no configuration succeeded.
  const ConfigOutcome* Best(const std::vector<corpus::UserId>& group) const;
};

/// Knobs for one sweep invocation.
struct SweepOptions {
  /// When > 0, the valid subset is evenly thinned to at most this many.
  size_t max_configs = 0;
  /// Abort the whole sweep on the first failed configuration (the
  /// pre-resilience behavior) instead of isolating it.
  bool fail_fast = false;
  /// When non-empty, outcomes stream to this JSONL checkpoint and
  /// already-checkpointed configurations are skipped on re-run.
  std::string checkpoint_path;
  /// Per-configuration wall-clock budget; 0 disables the deadline.
  double config_timeout_seconds = 0.0;
  /// Retry budget for transient per-configuration failures.
  resilience::RetryPolicy retry;
  /// Optional external cancellation (checked between configurations and
  /// between Gibbs sweeps / scored users inside a run).
  const resilience::CancelToken* cancel = nullptr;
};

/// Runs every valid configuration in `configs` on `source`. Configurations
/// invalid for the source (Rocchio without negatives) are skipped, exactly
/// as in the paper's grid. When `options.max_configs` > 0, the *valid*
/// subset is evenly thinned to at most that many entries — thinning after
/// the validity filter keeps the surviving spread comparable across sources.
///
/// Parallelism comes from the runner's RunOptions: `score_threads` shards
/// the scoring phase (bit-identical rankings) and `train_threads` shards
/// topic-model training (statistically equivalent; DESIGN.md §10). Both
/// apply to every configuration of the sweep; the `topic.train.*` metrics
/// record what each run actually used.
Result<SweepResult> SweepConfigs(ExperimentRunner& runner,
                                 const std::vector<rec::ModelConfig>& configs,
                                 corpus::Source source,
                                 const SweepOptions& options);

/// Back-compat shim: fault-isolated sweep with only the thinning knob.
Result<SweepResult> SweepConfigs(ExperimentRunner& runner,
                                 const std::vector<rec::ModelConfig>& configs,
                                 corpus::Source source,
                                 size_t max_configs = 0);

/// The checkpoint identity of one (runner, source) sweep; checkpoints with
/// a different key refuse to load.
std::string SweepCheckpointKey(const ExperimentRunner& runner,
                               corpus::Source source);

/// Evenly thins a configuration grid down to at most `max_configs` entries
/// (keeps first and last). Used by the benches to bound wall-clock while
/// covering the grid's spread; MICROREC_FULL_GRID=1 disables thinning.
std::vector<rec::ModelConfig> ThinConfigs(
    std::vector<rec::ModelConfig> configs, size_t max_configs);

}  // namespace microrec::eval

#endif  // MICROREC_EVAL_SWEEP_H_
