// Model shoot-out: sweep a representation model's full configuration grid
// on one source, report the best configuration, the grid's robustness (MAP
// deviation) and the training/testing cost of each configuration.
//
//   $ ./build/examples/model_shootout TN R
//   $ ./build/examples/model_shootout TNG E
//   $ ./build/examples/model_shootout BTM TR
//
// Demonstrates: rec::EnumerateConfigs (Tables 4-5), eval::SweepConfigs,
// SweepResult statistics, and time measurement.
#include <cstdio>
#include <iostream>

#include "eval/sweep.h"
#include "synth/generator.h"
#include "util/table_writer.h"

using namespace microrec;

int main(int argc, char** argv) {
  std::string model_name = argc > 1 ? argv[1] : "TN";
  std::string source_name = argc > 2 ? argv[2] : "R";

  Result<rec::ModelKind> kind = rec::ParseModelKind(model_name);
  Result<corpus::Source> source = corpus::ParseSource(source_name);
  if (!kind.ok() || !source.ok()) {
    std::cerr << "usage: model_shootout [TN|CN|TNG|CNG|LDA|LLDA|HDP|HLDA|BTM]"
                 " [R|T|E|F|C|TR|TE|RE|TC|RC|TF|RF|EF]\n";
    return 2;
  }

  synth::DatasetSpec spec = synth::DatasetSpec::Small();
  Result<synth::SyntheticDataset> dataset = synth::GenerateDataset(spec);
  if (!dataset.ok()) return 1;
  const eval::CorpusStack stack =
      eval::CorpusStack::Build(std::move(dataset->corpus), spec.cohort);
  eval::RunOptions options;
  options.topic_iteration_scale = 0.03;  // keep topic grids interactive
  eval::ExperimentRunner runner(stack, options);
  if (!runner.Init().ok()) return 1;

  std::vector<rec::ModelConfig> configs = rec::EnumerateConfigs(*kind);
  std::printf("sweeping %zu configurations of %s on source %s...\n",
              configs.size(), model_name.c_str(), source_name.c_str());
  Result<eval::SweepResult> sweep =
      eval::SweepConfigs(runner, configs, *source);
  if (!sweep.ok()) {
    std::cerr << sweep.status().ToString() << "\n";
    return 1;
  }

  const std::vector<corpus::UserId>& all =
      runner.GroupUsers(corpus::UserType::kAllUsers);
  TableWriter table("Per-configuration results (All Users)");
  table.SetHeader({"configuration", "MAP", "TTime(s)", "ETime(s)"});
  for (const eval::ConfigOutcome& outcome : sweep->outcomes) {
    char map_buf[16], tt_buf[16], et_buf[16];
    std::snprintf(map_buf, sizeof(map_buf), "%.3f",
                  outcome.result.MapOfGroup(all));
    std::snprintf(tt_buf, sizeof(tt_buf), "%.2f",
                  outcome.result.ttime_seconds);
    std::snprintf(et_buf, sizeof(et_buf), "%.2f",
                  outcome.result.etime_seconds);
    table.AddRow({outcome.config.ToString(), map_buf, tt_buf, et_buf});
  }
  table.RenderText(std::cout);

  auto stats = sweep->StatsOfGroup(all);
  const eval::ConfigOutcome* best = sweep->Best(all);
  std::printf(
      "\nsummary: mean MAP %.3f, range [%.3f, %.3f], deviation %.3f over "
      "%zu valid configurations\n",
      stats.mean, stats.min, stats.max, stats.deviation, stats.configs);
  if (best != nullptr) {
    std::printf("best configuration: %s (MAP %.3f)\n",
                best->config.ToString().c_str(),
                best->result.MapOfGroup(all));
  }
  std::printf("baseline RAN MAP: %.3f\n",
              runner.RandomMap(corpus::UserType::kAllUsers, 500));
  return 0;
}
