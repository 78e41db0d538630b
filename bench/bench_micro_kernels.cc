// google-benchmark microbenchmarks for the library's hot kernels: the
// tokenizer, n-gram extraction, sparse-vector joins, a bag user's build,
// n-gram-graph similarities and one Gibbs sweep of each sampler family.
// These back the time-efficiency discussion of Figure 7 at the kernel level.
#include <benchmark/benchmark.h>

#include "bag/bag_model.h"
#include "graph/graph_model.h"
#include "text/ngram.h"
#include "text/tokenizer.h"
#include "topic/btm.h"
#include "topic/lda.h"
#include "util/rng.h"

namespace microrec {
namespace {

const char* kTweet =
    "just saw the #sunset over the bay http://t.co/abc123 with @ana "
    "soooo beautiful :) cant wait for tomorrow";

void BM_Tokenize(benchmark::State& state) {
  text::Tokenizer tokenizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(kTweet));
  }
}
BENCHMARK(BM_Tokenize);

void BM_TokenNgrams(benchmark::State& state) {
  text::Tokenizer tokenizer;
  std::vector<std::string> tokens = tokenizer.TokenizeToStrings(kTweet);
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::TokenNgrams(tokens, n));
  }
}
BENCHMARK(BM_TokenNgrams)->Arg(1)->Arg(2)->Arg(3);

void BM_CharNgrams(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::CharNgrams(kTweet, n));
  }
}
BENCHMARK(BM_CharNgrams)->Arg(2)->Arg(3)->Arg(4);

bag::SparseVector RandomVector(size_t terms, uint32_t vocab, Rng* rng) {
  std::vector<bag::SparseVector::Entry> entries;
  for (size_t i = 0; i < terms; ++i) {
    entries.emplace_back(rng->UniformU32(vocab), rng->UniformDouble() + 0.1);
  }
  return bag::SparseVector::FromUnsorted(std::move(entries));
}

void BM_SparseDot(benchmark::State& state) {
  Rng rng(1);
  bag::SparseVector user = RandomVector(5000, 20000, &rng);
  bag::SparseVector doc = RandomVector(15, 20000, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bag::SparseVector::Dot(user, doc));
  }
}
BENCHMARK(BM_SparseDot);

void BM_SparseGeneralizedJaccard(benchmark::State& state) {
  Rng rng(2);
  bag::SparseVector user = RandomVector(5000, 20000, &rng);
  bag::SparseVector doc = RandomVector(15, 20000, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bag::SparseVector::GeneralizedJaccard(user, doc));
  }
}
BENCHMARK(BM_SparseGeneralizedJaccard);

// One key per co-occurrence of `edges` random vertex pairs.
std::vector<uint64_t> RandomKeys(size_t edges, uint32_t vocab, Rng* rng) {
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < edges; ++i) {
    keys.push_back(
        graph::EdgeKey(rng->UniformU32(vocab), rng->UniformU32(vocab)));
  }
  return keys;
}

graph::NgramGraph RandomGraph(size_t edges, uint32_t vocab, Rng* rng) {
  return graph::NgramGraph::FromKeys(RandomKeys(edges, vocab, rng));
}

void BM_GraphValueSimilarity(benchmark::State& state) {
  Rng rng(3);
  graph::NgramGraph user = RandomGraph(20000, 5000, &rng);
  graph::NgramGraph doc = RandomGraph(40, 5000, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ValueSimilarity(user, doc));
  }
}
BENCHMARK(BM_GraphValueSimilarity);

// The `update` merge of 50 document graphs: their keys, concatenated and
// counted by the builder, each count divided by the number of documents.
void BM_GraphUpdateMerge(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::vector<uint64_t>> docs;
  for (int i = 0; i < 50; ++i) docs.push_back(RandomKeys(40, 5000, &rng));
  for (auto _ : state) {
    std::vector<uint64_t> keys;
    for (const std::vector<uint64_t>& doc : docs) {
      keys.insert(keys.end(), doc.begin(), doc.end());
    }
    graph::NgramGraph user =
        graph::NgramGraph::FromKeys(std::move(keys), docs.size());
    benchmark::DoNotOptimize(user.size());
  }
}
BENCHMARK(BM_GraphUpdateMerge);

// One fresh bag user's build: Fit, then the centroid of 300 TF document
// vectors of 20 grams each over a 20,000-gram dictionary.
void BM_BagBuildUser(benchmark::State& state) {
  Rng rng(8);
  std::vector<std::vector<text::TermId>> grams(300);
  for (std::vector<text::TermId>& doc : grams) {
    for (int i = 0; i < 20; ++i) doc.push_back(rng.UniformU32(20000));
  }
  const std::vector<bag::GramDoc> docs(grams.begin(), grams.end());
  const std::vector<bool> positive(docs.size(), true);
  bag::BagConfig config;
  config.weighting = bag::Weighting::kTF;
  config.aggregation = bag::Aggregation::kCentroid;
  for (auto _ : state) {
    bag::BagModeler modeler(config);
    modeler.Fit(docs);
    benchmark::DoNotOptimize(modeler.BuildUserVector(docs, positive));
  }
}
BENCHMARK(BM_BagBuildUser);

topic::DocSet SyntheticDocs(size_t docs, size_t len, uint32_t vocab) {
  Rng rng(5);
  topic::DocSet out;
  for (size_t d = 0; d < docs; ++d) {
    std::vector<topic::TermId> words;  // the dictionary's gram ids
    for (size_t i = 0; i < len; ++i) words.push_back(rng.UniformU32(vocab));
    out.AddDocument(words);
  }
  return out;
}

void BM_LdaGibbsSweep(benchmark::State& state) {
  topic::DocSet docs = SyntheticDocs(500, 10, 2000);
  for (auto _ : state) {
    topic::LdaConfig config;
    config.num_topics = static_cast<size_t>(state.range(0));
    config.train_iterations = 1;
    topic::Lda lda(config);
    Rng rng(6);
    benchmark::DoNotOptimize(lda.Train(docs, &rng));
  }
}
BENCHMARK(BM_LdaGibbsSweep)->Arg(50)->Arg(200);

void BM_BtmGibbsSweep(benchmark::State& state) {
  topic::DocSet docs = SyntheticDocs(500, 10, 2000);
  for (auto _ : state) {
    topic::BtmConfig config;
    config.num_topics = static_cast<size_t>(state.range(0));
    config.train_iterations = 1;
    topic::Btm btm(config);
    Rng rng(7);
    benchmark::DoNotOptimize(btm.Train(docs, &rng));
  }
}
BENCHMARK(BM_BtmGibbsSweep)->Arg(50)->Arg(200);

}  // namespace
}  // namespace microrec

BENCHMARK_MAIN();
