// Quickstart: generate a synthetic microblog corpus, build one user model
// per representation model family, and rank a user's incoming tweets.
//
//   $ ./build/examples/quickstart
//
// This walks the full public API surface: synth -> corpus -> rec -> eval.
#include <cstdio>
#include <iostream>

#include "corpus/sources.h"
#include "corpus/user_types.h"
#include "eval/experiment.h"
#include "rec/model_config.h"
#include "synth/generator.h"
#include "util/table_writer.h"

using namespace microrec;

int main() {
  // 1. Generate a corpus (deterministic in the seed).
  synth::DatasetSpec spec = synth::DatasetSpec::Small();
  spec.seed = 7;
  Result<synth::SyntheticDataset> dataset = synth::GenerateDataset(spec);
  if (!dataset.ok()) {
    std::cerr << "generation failed: " << dataset.status().ToString() << "\n";
    return 1;
  }
  const corpus::Corpus& corpus = dataset->corpus;
  std::cout << "corpus: " << corpus.num_users() << " users, "
            << corpus.num_tweets() << " tweets\n";

  // 2. Select the experimental cohort (IS / BU / IP groups).
  corpus::UserCohort cohort = corpus::SelectCohort(corpus, spec.cohort);
  std::cout << "cohort: " << cohort.seekers.size() << " IS, "
            << cohort.balanced.size() << " BU, " << cohort.producers.size()
            << " IP, " << cohort.all.size() << " total\n";

  // 3. Pre-process: tokenize once, and drop the 100 most frequent tokens of
  //    every cohort user's posts as stop tokens. (eval::CorpusStack::Build
  //    does steps 2 and 3 in one call.)
  rec::PreprocessedCorpus pre(corpus, eval::StopBasis(corpus, cohort),
                              eval::kStopTopK);

  // 4. Evaluate one configuration of each model family on the retweet
  //    source R — the paper's best individual source.
  eval::RunOptions options;
  options.topic_iteration_scale = 0.02;  // quick demo budgets
  eval::ExperimentRunner runner(&pre, &cohort, options);
  if (Status st = runner.Init(); !st.ok()) {
    std::cerr << "runner init failed: " << st.ToString() << "\n";
    return 1;
  }

  TableWriter table("One configuration per model, source R, All Users");
  table.SetHeader({"model", "configuration", "MAP", "TTime(s)", "ETime(s)"});
  for (rec::ModelKind kind : rec::kEvaluatedModels) {
    std::vector<rec::ModelConfig> all_configs = rec::EnumerateConfigs(kind);
    std::vector<rec::ModelConfig> configs;
    for (const rec::ModelConfig& candidate : all_configs) {
      if (candidate.IsValidForSource(
              corpus::HasNegativeExamples(corpus::Source::kR))) {
        configs.push_back(candidate);
      }
    }
    const rec::ModelConfig& config = configs[configs.size() / 2];
    Result<eval::RunResult> run = runner.Run(config, corpus::Source::kR);
    if (!run.ok()) {
      std::cerr << config.ToString() << ": " << run.status().ToString()
                << "\n";
      return 1;
    }
    char map_buf[32], tt_buf[32], et_buf[32];
    std::snprintf(map_buf, sizeof(map_buf), "%.3f", run->Map());
    std::snprintf(tt_buf, sizeof(tt_buf), "%.2f", run->ttime_seconds);
    std::snprintf(et_buf, sizeof(et_buf), "%.2f", run->etime_seconds);
    table.AddRow({std::string(rec::ModelKindName(kind)), config.ToString(),
                  map_buf, tt_buf, et_buf});
  }
  table.RenderText(std::cout);

  // 5. Baselines for reference.
  std::printf("baseline CHR MAP: %.3f\n",
              runner.ChronologicalMap(corpus::UserType::kAllUsers));
  std::printf("baseline RAN MAP: %.3f\n",
              runner.RandomMap(corpus::UserType::kAllUsers, 200));
  return 0;
}
