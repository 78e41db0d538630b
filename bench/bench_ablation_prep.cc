// Ablation (DESIGN.md §11): the pre-processing pipeline of Section 4 —
// (i) removal of the 100 most frequent tokens (language-agnostic stop
// words) and (ii) repeated-letter squeezing — toggled independently, with
// TN and CN on the R source as probes. Each variant rebuilds the
// pre-processed corpus and runner from the same generated dataset.
#include <iostream>

#include "bench_util.h"
#include "util/table_writer.h"

using namespace microrec;

namespace {

rec::ModelConfig Probe(rec::ModelKind kind) {
  rec::ModelConfig config;
  config.kind = kind;
  config.bag.kind = kind == rec::ModelKind::kTN ? bag::NgramKind::kToken
                                                : bag::NgramKind::kChar;
  config.bag.n = kind == rec::ModelKind::kTN ? 1 : 3;
  config.bag.weighting = bag::Weighting::kTF;
  config.bag.aggregation = bag::Aggregation::kCentroid;
  config.bag.similarity = bag::BagSimilarity::kCosine;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  // Build the dataset once; re-preprocess per variant.
  synth::DatasetSpec spec = synth::DatasetSpec::FromEnv();
  spec.seed = static_cast<uint64_t>(bench::EnvDouble("MICROREC_SEED", 42));
  auto dataset = synth::GenerateDataset(spec);
  if (!dataset.ok()) return 1;
  corpus::UserCohort cohort =
      corpus::SelectCohort(dataset->corpus, spec.cohort);
  const std::vector<corpus::TweetId> stop_basis =
      eval::StopBasis(dataset->corpus, cohort);

  TableWriter table(
      "Pre-processing ablation — MAP on source R (All Users)");
  table.SetHeader({"stop-token removal", "letter squeezing", "TN MAP",
                   "CN MAP"});
  for (bool stops : {true, false}) {
    for (bool squeeze : {true, false}) {
      text::TokenizerOptions tokopts;
      tokopts.squeeze_repeats = squeeze;
      rec::PreprocessedCorpus pre(dataset->corpus,
                                  stops ? stop_basis
                                        : std::vector<corpus::TweetId>{},
                                  eval::kStopTopK, nullptr, tokopts);
      eval::RunOptions options;
      options.topic_iteration_scale =
          bench::EnvDouble("MICROREC_ITER_SCALE", 0.03);
      eval::ExperimentRunner runner(&pre, &cohort, options);
      if (!runner.Init().ok()) return 1;
      Result<eval::RunResult> tn =
          runner.Run(Probe(rec::ModelKind::kTN), corpus::Source::kR);
      Result<eval::RunResult> cn =
          runner.Run(Probe(rec::ModelKind::kCN), corpus::Source::kR);
      if (!tn.ok() || !cn.ok()) return 1;
      table.AddRow({stops ? "on (paper)" : "off",
                    squeeze ? "on (paper)" : "off", bench::F3(tn->Map()),
                    bench::F3(cn->Map())});
      std::fprintf(stderr, ".");
    }
  }
  std::fprintf(stderr, "\n");
  table.RenderText(std::cout);
  return bench::FinishBench(io, "bench_ablation_prep");
}
