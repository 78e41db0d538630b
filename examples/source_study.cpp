// Representation-source study: which slice of a user's network history best
// captures her interests? Replays the paper's Table 6 question on a
// synthetic corpus for every user type, using a fixed TN configuration.
//
//   $ ./build/examples/source_study
//
// Demonstrates: corpus::Source queries, per-group MAP slicing, and the
// significance tests (is R really better than E here?).
#include <cstdio>
#include <iostream>
#include <map>

#include "eval/experiment.h"
#include "eval/significance.h"
#include "synth/generator.h"
#include "util/table_writer.h"

using namespace microrec;

int main() {
  synth::DatasetSpec spec = synth::DatasetSpec::Small();
  spec.seed = 42;
  Result<synth::SyntheticDataset> dataset = synth::GenerateDataset(spec);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  const eval::CorpusStack stack =
      eval::CorpusStack::Build(std::move(dataset->corpus), spec.cohort);
  eval::ExperimentRunner runner(stack, eval::RunOptions{});
  if (!runner.Init().ok()) return 1;

  // Probe model: TN unigrams, TF, centroid, cosine.
  rec::ModelConfig config;
  config.kind = rec::ModelKind::kTN;
  config.bag.n = 1;
  config.bag.weighting = bag::Weighting::kTF;
  config.bag.aggregation = bag::Aggregation::kCentroid;
  config.bag.similarity = bag::BagSimilarity::kCosine;

  TableWriter table("MAP of every representation source per user type");
  table.SetHeader({"source", "All Users", "IS", "BU", "IP"});
  std::map<corpus::Source, eval::RunResult> results;
  for (corpus::Source source : corpus::kAllSources) {
    Result<eval::RunResult> run = runner.Run(config, source);
    if (!run.ok()) {
      std::cerr << corpus::SourceName(source) << ": "
                << run.status().ToString() << "\n";
      return 1;
    }
    char all_buf[16], is_buf[16], bu_buf[16], ip_buf[16];
    std::snprintf(all_buf, sizeof(all_buf), "%.3f", run->Map());
    std::snprintf(is_buf, sizeof(is_buf), "%.3f",
                  run->MapOfGroup(runner.GroupUsers(
                      corpus::UserType::kInformationSeeker)));
    std::snprintf(bu_buf, sizeof(bu_buf), "%.3f",
                  run->MapOfGroup(
                      runner.GroupUsers(corpus::UserType::kBalancedUser)));
    std::snprintf(ip_buf, sizeof(ip_buf), "%.3f",
                  run->MapOfGroup(runner.GroupUsers(
                      corpus::UserType::kInformationProducer)));
    table.AddRow({std::string(corpus::SourceName(source)), all_buf, is_buf,
                  bu_buf, ip_buf});
    results.emplace(source, std::move(*run));
  }
  table.RenderText(std::cout);

  // Is the R-vs-E difference statistically significant? Pair per-user APs.
  const eval::RunResult& r_run = results.at(corpus::Source::kR);
  const eval::RunResult& e_run = results.at(corpus::Source::kE);
  eval::TestResult t_test = eval::PairedTTest(r_run.aps, e_run.aps);
  eval::TestResult wilcoxon = eval::WilcoxonSignedRank(r_run.aps, e_run.aps);
  std::printf(
      "\nR (MAP %.3f) vs E (MAP %.3f): paired t p=%.4f, Wilcoxon p=%.4f%s\n",
      r_run.Map(), e_run.Map(), t_test.p_value, wilcoxon.p_value,
      t_test.SignificantAt(0.05) ? "  [significant at 0.05]" : "");
  return 0;
}
