#include "eval/sweep.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/checkpoint.h"
#include "resilience/fault.h"

namespace microrec::eval {

size_t SweepResult::failed() const {
  size_t count = 0;
  for (const ConfigOutcome& outcome : outcomes) {
    if (!outcome.ok()) ++count;
  }
  return count;
}

SweepResult::MapStats SweepResult::StatsOfGroup(
    const std::vector<corpus::UserId>& group) const {
  MapStats stats;
  stats.min = 1e300;
  stats.max = -1e300;
  for (const ConfigOutcome& outcome : outcomes) {
    if (!outcome.ok()) continue;
    double map = outcome.result.MapOfGroup(group);
    stats.mean += map;
    stats.min = std::min(stats.min, map);
    stats.max = std::max(stats.max, map);
    ++stats.configs;
  }
  if (stats.configs == 0) return MapStats();
  stats.mean /= static_cast<double>(stats.configs);
  stats.deviation = stats.max - stats.min;
  return stats;
}

namespace {

resilience::CheckpointRecord RecordOf(const rec::ModelConfig& config,
                                      const ConfigOutcome& outcome) {
  resilience::CheckpointRecord record;
  record.fingerprint = config.Fingerprint();
  record.config = config.ToString();
  record.code = outcome.status.code();
  record.error = std::string(outcome.status.message());
  record.users.assign(outcome.result.users.begin(),
                      outcome.result.users.end());
  record.aps = outcome.result.aps;
  record.ttime_seconds = outcome.result.ttime_seconds;
  record.etime_seconds = outcome.result.etime_seconds;
  return record;
}

ConfigOutcome OutcomeOf(const rec::ModelConfig& config,
                        const resilience::CheckpointRecord& record) {
  ConfigOutcome outcome;
  outcome.config = config;
  outcome.status = Status::FromCode(record.code, record.error);
  outcome.result.users.reserve(record.users.size());
  for (uint64_t u : record.users) {
    outcome.result.users.push_back(static_cast<corpus::UserId>(u));
  }
  outcome.result.aps = record.aps;
  outcome.result.ttime_seconds = record.ttime_seconds;
  outcome.result.etime_seconds = record.etime_seconds;
  return outcome;
}

}  // namespace

const ConfigOutcome* SweepResult::Best(
    const std::vector<corpus::UserId>& group) const {
  const ConfigOutcome* best = nullptr;
  double best_map = -1.0;
  for (const ConfigOutcome& outcome : outcomes) {
    if (!outcome.ok()) continue;
    double map = outcome.result.MapOfGroup(group);
    if (map > best_map) {
      best_map = map;
      best = &outcome;
    }
  }
  return best;
}

std::string SweepCheckpointKey(const ExperimentRunner& runner,
                               corpus::Source source) {
  std::string key = "source=";
  key += corpus::SourceName(source);
  key += " seed=";
  key += std::to_string(runner.options().seed);
  return key;
}

Result<SweepResult> SweepConfigs(
    ExperimentRunner& runner, const std::vector<rec::ModelConfig>& configs,
    corpus::Source source, const SweepOptions& options) {
  const bool has_negatives = corpus::HasNegativeExamples(source);
  std::vector<rec::ModelConfig> valid;
  valid.reserve(configs.size());
  for (const rec::ModelConfig& config : configs) {
    if (config.IsValidForSource(has_negatives)) valid.push_back(config);
  }
  if (options.max_configs > 0) {
    valid = ThinConfigs(std::move(valid), options.max_configs);
  }

  std::optional<resilience::SweepCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    Result<resilience::SweepCheckpoint> opened =
        resilience::SweepCheckpoint::Open(options.checkpoint_path,
                                          SweepCheckpointKey(runner, source));
    if (!opened.ok()) return opened.status();
    checkpoint = std::move(*opened);
  }

  SweepResult sweep;
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* configs_run = registry.GetCounter("eval.sweep.configs");
  obs::Counter* configs_failed = registry.GetCounter("eval.sweep.failed");
  obs::Counter* configs_resumed = registry.GetCounter("eval.sweep.resumed");

  for (const rec::ModelConfig& config : valid) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status::Aborted("sweep cancelled before " + config.ToString());
    }
    if (checkpoint.has_value()) {
      const resilience::CheckpointRecord* record =
          checkpoint->Find(config.Fingerprint());
      if (record != nullptr) {
        ConfigOutcome outcome = OutcomeOf(config, *record);
        if (!outcome.ok()) configs_failed->Increment();
        sweep.outcomes.push_back(std::move(outcome));
        ++sweep.resumed;
        configs_resumed->Increment();
        continue;
      }
    }

    // Dynamic span names cost a string build, so only when tracing is live.
    obs::TraceSpan span(obs::TracingEnabled() ? "config:" + config.ToString()
                                              : std::string());

    resilience::CancelContext cancel;
    cancel.token = options.cancel;
    if (options.config_timeout_seconds > 0.0) {
      cancel.deadline =
          resilience::Deadline::After(options.config_timeout_seconds);
    }

    ConfigOutcome outcome;
    outcome.config = config;
    std::optional<RunResult> run;
    // The sweep.config site models a failure in the sweep driver itself
    // (as opposed to inside the run); in isolation mode it is absorbed
    // like any per-configuration error.
    Status fault = resilience::FaultsArmed()
                       ? resilience::CheckFault(resilience::kSiteSweepConfig)
                       : Status::OK();
    if (fault.ok()) {
      outcome.status = resilience::RunWithRetry(
          options.retry,
          [&]() -> Status {
            Result<RunResult> attempt = runner.Run(config, source, &cancel);
            if (!attempt.ok()) return attempt.status();
            run = std::move(attempt).value();
            return Status::OK();
          },
          &cancel);
    } else {
      outcome.status = std::move(fault);
    }

    if (outcome.ok()) {
      outcome.result = std::move(*run);
      configs_run->Increment();
    } else {
      if (options.fail_fast) {
        return Status::FromCode(
            outcome.status.code(),
            "sweep aborted (fail-fast) at " + config.ToString() + ": " +
                std::string(outcome.status.message()));
      }
      configs_failed->Increment();
    }
    if (checkpoint.has_value()) {
      MICROREC_RETURN_IF_ERROR(checkpoint->Append(RecordOf(config, outcome)));
    }
    sweep.outcomes.push_back(std::move(outcome));
  }
  return sweep;
}

Result<SweepResult> SweepConfigs(
    ExperimentRunner& runner, const std::vector<rec::ModelConfig>& configs,
    corpus::Source source, size_t max_configs) {
  SweepOptions options;
  options.max_configs = max_configs;
  return SweepConfigs(runner, configs, source, options);
}

std::vector<rec::ModelConfig> ThinConfigs(
    std::vector<rec::ModelConfig> configs, size_t max_configs) {
  if (configs.size() <= max_configs || max_configs == 0) return configs;
  std::vector<rec::ModelConfig> kept;
  kept.reserve(max_configs);
  // Even stride over [0, n-1] including both endpoints.
  for (size_t i = 0; i < max_configs; ++i) {
    size_t index = max_configs == 1
                       ? 0
                       : i * (configs.size() - 1) / (max_configs - 1);
    kept.push_back(configs[index]);
  }
  return kept;
}

}  // namespace microrec::eval
