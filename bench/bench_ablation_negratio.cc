// Ablation (DESIGN.md §11): sensitivity to the negative-sampling ratio. The
// paper samples 4 negatives per positive (following Chen et al. [17]); this
// bench sweeps 1:1 .. 1:8 and reports model MAP against the RAN baseline —
// absolute MAP falls as negatives grow, but the margin over RAN (the actual
// ranking quality) should stay stable.
#include <iostream>

#include "bench_util.h"
#include "util/table_writer.h"

using namespace microrec;

int main(int argc, char** argv) {
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  synth::DatasetSpec spec = synth::DatasetSpec::FromEnv();
  spec.seed = static_cast<uint64_t>(bench::EnvDouble("MICROREC_SEED", 42));
  auto dataset = synth::GenerateDataset(spec);
  if (!dataset.ok()) return 1;
  const eval::CorpusStack stack =
      eval::CorpusStack::Build(std::move(dataset->corpus), spec.cohort);

  rec::ModelConfig config;
  config.kind = rec::ModelKind::kTN;
  config.bag.kind = bag::NgramKind::kToken;
  config.bag.n = 1;
  config.bag.weighting = bag::Weighting::kTF;
  config.bag.aggregation = bag::Aggregation::kCentroid;
  config.bag.similarity = bag::BagSimilarity::kCosine;

  TableWriter table(
      "Negative-sampling ratio ablation — TN on source R (All Users)");
  table.SetHeader({"negatives per positive", "TN MAP", "RAN MAP",
                   "MAP / RAN"});
  for (int ratio : {1, 2, 4, 8}) {
    eval::RunOptions options;
    options.split.negatives_per_positive = ratio;
    eval::ExperimentRunner runner(stack, options);
    if (!runner.Init().ok()) return 1;
    Result<eval::RunResult> run = runner.Run(config, corpus::Source::kR);
    if (!run.ok()) return 1;
    double ran = runner.RandomMap(corpus::UserType::kAllUsers, 500);
    table.AddRow({std::to_string(ratio) + (ratio == 4 ? " (paper)" : ""),
                  bench::F3(run->Map()), bench::F3(ran),
                  bench::F3(run->Map() / ran)});
    std::fprintf(stderr, ".");
  }
  std::fprintf(stderr, "\n");
  table.RenderText(std::cout);
  return bench::FinishBench(io, "bench_ablation_negratio");
}
