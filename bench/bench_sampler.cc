// Sampler-kernel bench (DESIGN.md §15): trains LDA at K ∈ {50, 200} with
// each draw kernel (dense / sparse / alias) and reports
//   - TTime and raw sampler throughput (trained tokens per second), from
//     the median of kTimedRuns trainings at the same seed, the kernels
//     trained in rounds (a single training's time varies by up to ±20% on
//     a shared 4-vCPU VM, and load there comes in stretches of seconds),
//   - speedup over the dense O(K) scan at the same K,
//   - held-out perplexity and its relative gap to dense (the cheap proxy of
//     the statistical-equivalence contract; the full gate lives in
//     tests/topic/stat_equiv_test.cc).
// A BTM section at K = 50 is reported for information (its biterm count,
// not K, dominates the win there).
//
// Gates (exit 1 on violation):
//   - the better of sparse/alias tokens/sec at K = 200 must reach
//     MICROREC_MIN_KERNEL_SPEEDUP (default 2.0) times dense. The speedup is
//     algorithmic — O(doc+word topics) or O(1) draws vs an O(K) scan — so
//     it does not scale with cores; the env override exists for emulated or
//     heavily shared runners, not for small ones.
//   - every kernel run's perplexity must stay within MICROREC_MAX_PPX_GAP
//     (default 0.15) relative gap of the dense run at the same K.
//
// Env knobs: MICROREC_BENCH_DOCS (default 1000), MICROREC_BENCH_ITERS
// (default 30), MICROREC_MIN_KERNEL_SPEEDUP, MICROREC_MAX_PPX_GAP.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "topic/btm.h"
#include "topic/lda.h"
#include "topic/sparse_kernel.h"
#include "util/rng.h"
#include "util/table_writer.h"

using namespace microrec;

namespace {

/// Generative mixture corpus (same family as bench_train_parallel): each
/// document draws one of `k_true` topics and 80% of its tokens from that
/// topic's vocabulary band, so perplexity responds to a broken kernel and
/// the trained count tables develop the skew sparse kernels exploit.
struct SynthCorpus {
  topic::DocSet docs;
  std::vector<std::vector<topic::TermId>> heldout;
};

SynthCorpus MakeCorpus(size_t num_docs, size_t tokens_per_doc, size_t vocab,
                       size_t k_true, uint64_t seed) {
  SynthCorpus out;
  Rng gen(seed);
  const size_t band = vocab / k_true;
  // Word ids go straight in as the dictionary's gram ids.
  auto make_doc = [&](std::vector<topic::TermId>* words) {
    const uint32_t t = gen.UniformU32(static_cast<uint32_t>(k_true));
    for (size_t i = 0; i < tokens_per_doc; ++i) {
      uint32_t w;
      if (gen.UniformU32(10) < 8) {
        w = static_cast<uint32_t>(t * band) +
            gen.UniformU32(static_cast<uint32_t>(band));
      } else {
        w = gen.UniformU32(static_cast<uint32_t>(vocab));
      }
      words->push_back(w);
    }
  };
  for (size_t d = 0; d < num_docs; ++d) {
    std::vector<topic::TermId> words;
    make_doc(&words);
    out.docs.AddDocument(words);
  }
  const size_t held = std::max<size_t>(50, num_docs / 10);
  for (size_t d = 0; d < held; ++d) {
    std::vector<topic::TermId> words;
    make_doc(&words);
    out.heldout.push_back(out.docs.Lookup(words));
  }
  return out;
}

struct RunStats {
  double ttime_seconds = 0.0;
  double tokens_per_second = 0.0;
  double perplexity = 0.0;
  bool ok = false;
};

/// Trainings per row. Each starts from the same seed, so they train the
/// same model; the row reports their median time.
constexpr int kTimedRuns = 5;

/// Trains every kernel kTimedRuns times, one round of all kernels after
/// another, so a stretch of machine load slows each kernel alike and the
/// speedups compare like with like. Returns one row per kernel, perplexity
/// taken from its last training.
template <typename Model, typename Config>
std::vector<RunStats> TrainKernels(
    const SynthCorpus& corpus, Config config,
    const std::vector<topic::SamplerKernel>& kernels, uint64_t seed,
    size_t tokens_swept) {
  std::vector<RunStats> rows(kernels.size());
  std::vector<std::vector<double>> seconds(kernels.size());
  for (int run = 0; run < kTimedRuns; ++run) {
    for (size_t k = 0; k < kernels.size(); ++k) {
      if (run > 0 && !rows[k].ok) continue;  // failed in an earlier round
      config.train.sampler_kernel = kernels[k];
      Model model(config);
      Rng rng(seed);
      auto start = std::chrono::steady_clock::now();
      Status st = model.Train(corpus.docs, &rng);
      seconds[k].push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
      rows[k].ok = st.ok();
      if (!st.ok()) {
        std::fprintf(stderr, "train(%s) failed: %s\n",
                     topic::SamplerKernelName(kernels[k]),
                     st.ToString().c_str());
      } else if (run == kTimedRuns - 1) {
        Rng infer_rng(seed + 1);
        rows[k].perplexity =
            topic::Perplexity(model, corpus.heldout, &infer_rng);
      }
    }
  }
  for (size_t k = 0; k < kernels.size(); ++k) {
    if (!rows[k].ok) continue;
    std::vector<double>& times = seconds[k];
    std::nth_element(times.begin(), times.begin() + kTimedRuns / 2,
                     times.end());
    rows[k].ttime_seconds = times[kTimedRuns / 2];
    rows[k].tokens_per_second =
        rows[k].ttime_seconds > 0.0
            ? static_cast<double>(tokens_swept) / rows[k].ttime_seconds
            : 0.0;
  }
  return rows;
}

std::string Rate(double tokens_per_second) {
  return FormatWithCommas(static_cast<int64_t>(tokens_per_second));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  const size_t num_docs = bench::EnvSize("MICROREC_BENCH_DOCS", 1000);
  const int iters =
      static_cast<int>(bench::EnvSize("MICROREC_BENCH_ITERS", 30));
  const uint64_t seed =
      static_cast<uint64_t>(bench::EnvDouble("MICROREC_SEED", 42));
  const std::vector<topic::SamplerKernel> kernels = {
      topic::SamplerKernel::kDense, topic::SamplerKernel::kSparse,
      topic::SamplerKernel::kAlias};

  SynthCorpus corpus = MakeCorpus(num_docs, /*tokens_per_doc=*/30,
                                  /*vocab=*/2000, /*k_true=*/8, seed);
  const size_t lda_tokens_swept =
      corpus.docs.total_tokens() * static_cast<size_t>(iters);
  std::printf("# corpus: %zu docs, %zu tokens, vocab %zu | %d iterations\n",
              corpus.docs.num_docs(), corpus.docs.total_tokens(),
              corpus.docs.vocab_size(), iters);

  auto& registry = obs::MetricsRegistry::Global();
  TableWriter table("Sampler kernels: tokens/sec and held-out perplexity");
  table.SetHeader({"model", "K", "kernel", "TTime s", "tokens/s", "speedup",
                   "perplexity", "ppx gap"});

  double gated_speedup = 0.0;  // best sparse/alias speedup at K = 200
  double worst_gap = 0.0;
  bool all_ok = true;

  for (size_t K : {size_t{50}, size_t{200}}) {
    topic::LdaConfig config;
    config.num_topics = K;
    config.train_iterations = iters;
    double dense_tps = 0.0;
    double dense_ppx = 0.0;
    const std::vector<RunStats> rows = TrainKernels<topic::Lda>(
        corpus, config, kernels, seed, lda_tokens_swept);
    for (size_t k = 0; k < kernels.size(); ++k) {
      const topic::SamplerKernel kernel = kernels[k];
      const RunStats& stats = rows[k];
      if (!stats.ok) {
        all_ok = false;
        continue;
      }
      if (kernel == topic::SamplerKernel::kDense) {
        dense_tps = stats.tokens_per_second;
        dense_ppx = stats.perplexity;
      }
      const double speedup =
          dense_tps > 0.0 ? stats.tokens_per_second / dense_tps : 0.0;
      const double gap =
          dense_ppx > 0.0 ? std::abs(stats.perplexity - dense_ppx) / dense_ppx
                          : 0.0;
      if (K == 200 && kernel != topic::SamplerKernel::kDense) {
        gated_speedup = std::max(gated_speedup, speedup);
      }
      worst_gap = std::max(worst_gap, gap);
      table.AddRow({"LDA", std::to_string(K),
                    topic::SamplerKernelName(kernel),
                    bench::F3(stats.ttime_seconds),
                    Rate(stats.tokens_per_second), bench::F3(speedup),
                    bench::F3(stats.perplexity), bench::F3(gap)});
      const std::string prefix = std::string("bench.sampler.lda.k") +
                                 std::to_string(K) + "." +
                                 topic::SamplerKernelName(kernel);
      registry.GetGauge((prefix + ".ttime_seconds").c_str())
          ->Set(stats.ttime_seconds);
      registry.GetGauge((prefix + ".tokens_per_second").c_str())
          ->Set(stats.tokens_per_second);
      registry.GetGauge((prefix + ".speedup").c_str())->Set(speedup);
      registry.GetGauge((prefix + ".perplexity").c_str())
          ->Set(stats.perplexity);
    }
  }

  // BTM: informational. Its sweep is over biterms (B >> N tokens) and the
  // biterm mass couples two words, so the sparse win has a different shape;
  // it shares the perplexity gate but not the speedup gate.
  {
    topic::BtmConfig config;
    config.num_topics = 50;
    config.train_iterations = std::max(1, iters / 3);
    config.window = 10;
    const size_t num_biterms = [&] {
      size_t count = 0;
      for (size_t d = 0; d < corpus.docs.num_docs(); ++d) {
        count += topic::Btm::ExtractBiterms(corpus.docs.docs()[d].words,
                                            config.window)
                     .size();
      }
      return count;
    }();
    const size_t btm_tokens_swept =
        num_biterms * static_cast<size_t>(config.train_iterations);
    double dense_tps = 0.0;
    double dense_ppx = 0.0;
    const std::vector<RunStats> rows = TrainKernels<topic::Btm>(
        corpus, config, kernels, seed, btm_tokens_swept);
    for (size_t k = 0; k < kernels.size(); ++k) {
      const topic::SamplerKernel kernel = kernels[k];
      const RunStats& stats = rows[k];
      if (!stats.ok) {
        all_ok = false;
        continue;
      }
      if (kernel == topic::SamplerKernel::kDense) {
        dense_tps = stats.tokens_per_second;
        dense_ppx = stats.perplexity;
      }
      const double speedup =
          dense_tps > 0.0 ? stats.tokens_per_second / dense_tps : 0.0;
      const double gap =
          dense_ppx > 0.0 ? std::abs(stats.perplexity - dense_ppx) / dense_ppx
                          : 0.0;
      worst_gap = std::max(worst_gap, gap);
      table.AddRow({"BTM", "50", topic::SamplerKernelName(kernel),
                    bench::F3(stats.ttime_seconds),
                    Rate(stats.tokens_per_second), bench::F3(speedup),
                    bench::F3(stats.perplexity), bench::F3(gap)});
    }
  }
  table.RenderText(std::cout);

  const double required =
      bench::EnvDouble("MICROREC_MIN_KERNEL_SPEEDUP", 2.0);
  const double max_gap = bench::EnvDouble("MICROREC_MAX_PPX_GAP", 0.15);
  registry.GetGauge("bench.sampler.required_speedup")->Set(required);
  registry.GetGauge("bench.sampler.best_k200_speedup")->Set(gated_speedup);
  registry.GetGauge("bench.sampler.worst_ppx_gap")->Set(worst_gap);
  std::printf(
      "\nbest sparse/alias speedup at K=200: %.2fx (gate %.2fx) | worst "
      "perplexity gap %.3f (gate %.3f)\n",
      gated_speedup, required, worst_gap, max_gap);

  int code = bench::FinishBench(io, "bench_sampler");
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: at least one training run errored\n");
    return 1;
  }
  if (gated_speedup < required) {
    std::fprintf(stderr,
                 "FAIL: best kernel speedup %.2fx at K=200 below gate "
                 "%.2fx\n",
                 gated_speedup, required);
    return 1;
  }
  if (worst_gap > max_gap) {
    std::fprintf(stderr, "FAIL: perplexity gap %.3f above gate %.3f\n",
                 worst_gap, max_gap);
    return 1;
  }
  return code;
}
