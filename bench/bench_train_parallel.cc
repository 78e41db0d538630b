// Sharded-training bench (DESIGN.md §10): trains LDA and BTM on a
// synthetic corpus at 1 / 2 / 4 / 8 training threads and reports
//   - TTime per thread count and speedup over the sequential sampler,
//   - held-out perplexity per thread count and its relative gap to the
//     sequential run (the statistical-equivalence contract's cheap proxy;
//     the full contract lives in tests/topic/stat_equiv_test.cc).
//
// Gates (exit 1 on violation):
//   - best LDA speedup must reach min(MICROREC_MIN_SPEEDUP, 0.7 * cores)
//     where cores = min(8, hardware_concurrency). The cap keeps the gate
//     honest on small machines: a 1-core container cannot demonstrate a
//     2.5x speedup, and pretending otherwise would only teach people to
//     delete the gate. On the 4-vCPU CI runners the gate is the full 2.5x.
//   - every parallel run's perplexity must stay within
//     MICROREC_MAX_PPX_GAP (default 0.15) relative gap of sequential.
//
// Env knobs: MICROREC_BENCH_DOCS (default 1500), MICROREC_BENCH_ITERS
// (default 40), MICROREC_MIN_SPEEDUP (default 2.5), MICROREC_MAX_PPX_GAP.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "topic/btm.h"
#include "topic/lda.h"
#include "util/rng.h"
#include "util/table_writer.h"

using namespace microrec;

namespace {

/// Generative mixture corpus: each document draws one of `k_true` topics,
/// and 80% of its tokens come from that topic's vocabulary band. Enough
/// structure that held-out perplexity is a meaningful equivalence signal.
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
  double perplexity = 0.0;
  bool ok = false;
};

template <typename Model, typename Config>
RunStats TrainOnce(const SynthCorpus& corpus, Config config, size_t threads,
                   uint64_t seed) {
  config.train.train_threads = threads;
  Model model(config);
  Rng rng(seed);
  RunStats stats;
  auto start = std::chrono::steady_clock::now();
  Status st = model.Train(corpus.docs, &rng);
  stats.ttime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!st.ok()) {
    std::fprintf(stderr, "train(threads=%zu) failed: %s\n", threads,
                 st.ToString().c_str());
    return stats;
  }
  Rng infer_rng(seed + 1);
  stats.perplexity = topic::Perplexity(model, corpus.heldout, &infer_rng);
  stats.ok = true;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  const size_t num_docs = bench::EnvSize("MICROREC_BENCH_DOCS", 1500);
  const int iters =
      static_cast<int>(bench::EnvSize("MICROREC_BENCH_ITERS", 40));
  const uint64_t seed =
      static_cast<uint64_t>(bench::EnvDouble("MICROREC_SEED", 42));
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  SynthCorpus corpus = MakeCorpus(num_docs, /*tokens_per_doc=*/40,
                                  /*vocab=*/2000, /*k_true=*/8, seed);
  std::printf("# corpus: %zu docs, %zu tokens, vocab %zu | %d iterations | "
              "%u hardware threads\n",
              corpus.docs.num_docs(), corpus.docs.total_tokens(),
              corpus.docs.vocab_size(), iters, cores);

  topic::LdaConfig lda_config;
  lda_config.num_topics = 32;
  lda_config.train_iterations = iters;
  topic::BtmConfig btm_config;
  btm_config.num_topics = 16;
  btm_config.train_iterations = std::max(1, iters / 2);  // B >> N
  btm_config.window = 10;

  auto& registry = obs::MetricsRegistry::Global();
  TableWriter table("Sharded training: TTime and held-out perplexity");
  table.SetHeader({"model", "threads", "TTime s", "speedup", "perplexity",
                   "ppx gap"});

  double lda_best_speedup = 0.0;
  double worst_gap = 0.0;
  bool all_ok = true;
  for (const char* model : {"LDA", "BTM"}) {
    const bool is_lda = std::string(model) == "LDA";
    double base_ttime = 0.0;
    double base_ppx = 0.0;
    for (size_t threads : thread_counts) {
      RunStats stats =
          is_lda ? TrainOnce<topic::Lda>(corpus, lda_config, threads, seed)
                 : TrainOnce<topic::Btm>(corpus, btm_config, threads, seed);
      if (!stats.ok) {
        all_ok = false;
        continue;
      }
      if (threads == 1) {
        base_ttime = stats.ttime_seconds;
        base_ppx = stats.perplexity;
      }
      const double speedup =
          stats.ttime_seconds > 0.0 ? base_ttime / stats.ttime_seconds : 0.0;
      const double gap =
          base_ppx > 0.0
              ? std::abs(stats.perplexity - base_ppx) / base_ppx
              : 0.0;
      if (is_lda && threads > 1) {
        lda_best_speedup = std::max(lda_best_speedup, speedup);
      }
      worst_gap = std::max(worst_gap, gap);
      table.AddRow({model, std::to_string(threads),
                    bench::F3(stats.ttime_seconds), bench::F3(speedup),
                    bench::F3(stats.perplexity), bench::F3(gap)});
      const std::string prefix = std::string("bench.train_parallel.") +
                                 (is_lda ? "lda" : "btm") + ".t" +
                                 std::to_string(threads);
      registry.GetGauge((prefix + ".ttime_seconds").c_str())
          ->Set(stats.ttime_seconds);
      registry.GetGauge((prefix + ".speedup").c_str())->Set(speedup);
      registry.GetGauge((prefix + ".perplexity").c_str())
          ->Set(stats.perplexity);
    }
  }
  table.RenderText(std::cout);

  // Environment-aware speedup gate (see file comment).
  const double cap = 0.7 * static_cast<double>(std::min(8u, cores));
  const double required =
      std::min(bench::EnvDouble("MICROREC_MIN_SPEEDUP", 2.5), cap);
  const double max_gap = bench::EnvDouble("MICROREC_MAX_PPX_GAP", 0.15);
  registry.GetGauge("bench.train_parallel.required_speedup")->Set(required);
  registry.GetGauge("bench.train_parallel.best_lda_speedup")
      ->Set(lda_best_speedup);
  registry.GetGauge("bench.train_parallel.worst_ppx_gap")->Set(worst_gap);
  std::printf(
      "\nbest LDA speedup %.2fx (gate %.2fx on %u cores) | worst "
      "perplexity gap %.3f (gate %.3f)\n",
      lda_best_speedup, required, cores, worst_gap, max_gap);

  int code = bench::FinishBench(io, "bench_train_parallel");
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: at least one training run errored\n");
    return 1;
  }
  if (lda_best_speedup < required) {
    std::fprintf(stderr, "FAIL: LDA speedup %.2fx below gate %.2fx\n",
                 lda_best_speedup, required);
    return 1;
  }
  if (worst_gap > max_gap) {
    std::fprintf(stderr, "FAIL: perplexity gap %.3f above gate %.3f\n",
                 worst_gap, max_gap);
    return 1;
  }
  return code;
}
