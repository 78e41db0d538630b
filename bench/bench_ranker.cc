// BatchRanker hot-path benchmark (DESIGN.md §9): ranks every cohort user's
// test candidates with a trained TN engine and a trained TNG engine six
// ways each —
//   brute        one Engine::Score call per candidate, then the canonical
//                tie-break order (what the experiment runner did before the
//                ranker existed);
//   ranker/1     BatchRanker, single-threaded;
//   ranker/N     the same with scoring sharded over N threads
//                (MICROREC_THREADS, default 4) — both families score
//                concurrently when resident;
//   ranker/$     ranker/1 with the per-user score cache on, querying each
//                user twice (the serving pattern: overlapping candidate
//                sets across queries);
//   ranker/top10 ranker/1 returning only the best 10 (serving's top_k);
//   ranker/$top10 ranker/$ returning only the best 10: the second query of
//                each user is a top-10 ranking of cache hits, the shape the
//                score-cached serving path answers.
// and verifies every ranked order is BIT-IDENTICAL (tweet ids and scores)
// to the brute-force ranking, or to its first 10 entries for the top-10
// passes, before reporting ETime-style wall-clock speedups, the bag pruning
// rate and the cache hit savings.
//
// MICROREC_ROUNDS (default 3) repeats each timed pass; the fastest round
// is reported (the usual min-of-k protocol for microbenchmarks).
#include <algorithm>
#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "rec/ranker.h"
#include "util/stopwatch.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"

using namespace microrec;

namespace {

uint64_t CounterValue(const char* name) {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const obs::CounterSnapshot* c = snap.FindCounter(name);
  return c != nullptr ? c->value : 0;
}

/// One user's ranked output, flattened for cheap bitwise comparison.
struct PassOutput {
  std::vector<corpus::TweetId> tweets;
  std::vector<double> scores;

  /// Whether this output is the first `top_k` entries of `full` (all of
  /// them for top_k == 0), bit for bit.
  bool IsHeadOf(const PassOutput& full, size_t top_k) const {
    const size_t n = top_k == 0 ? full.tweets.size()
                                : std::min(top_k, full.tweets.size());
    return tweets.size() == n &&
           std::equal(tweets.begin(), tweets.end(), full.tweets.begin()) &&
           std::memcmp(scores.data(), full.scores.data(),
                       n * sizeof(double)) == 0;
  }
};

// Times the four passes over `config` and prints their table; returns
// whether every ranker pass matched brute force bit for bit.
bool RunPasses(eval::ExperimentRunner& runner, const rec::ModelConfig& config,
               corpus::Source source, size_t threads, size_t rounds) {
  std::printf("# configuration: %s | threads=%zu rounds=%zu\n",
              config.ToString().c_str(), threads, rounds);

  // Train once, outside all timed passes.
  rec::EngineContext ctx = runner.MakeContext(config, source);
  std::unique_ptr<rec::Engine> engine = rec::MakeEngine(config);
  if (Status st = engine->Prepare(ctx); !st.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  const std::vector<corpus::UserId>& users =
      runner.GroupUsers(corpus::UserType::kAllUsers);
  std::vector<std::vector<corpus::TweetId>> candidates;
  size_t total_candidates = 0;
  for (corpus::UserId u : users) {
    if (Status st = engine->BuildUser(u, runner.TrainSet(source, u), ctx);
        !st.ok()) {
      std::fprintf(stderr, "build_user failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    candidates.push_back(runner.SplitOf(u).TestSet());
    total_candidates += candidates.back().size();
  }
  std::printf("# %zu users, %zu candidates total\n", users.size(),
              total_candidates);

  const uint64_t seed = runner.options().seed;
  std::vector<PassOutput> reference;

  // Runs one full pass over the cohort; returns best-of-`rounds` seconds
  // and fills `outputs` from the final round. `queries_per_user` > 1
  // exercises the cross-query score cache.
  auto time_pass = [&](rec::BatchRanker* ranker, size_t queries_per_user,
                       std::vector<PassOutput>* outputs) {
    double best = 1e300;
    for (size_t round = 0; round < rounds; ++round) {
      outputs->clear();
      Stopwatch watch;
      for (size_t q = 0; q < queries_per_user; ++q) {
        Rng tie_rng(seed, rec::kTieBreakStream);
        for (size_t i = 0; i < users.size(); ++i) {
          Result<std::vector<rec::RankedItem>> ranked =
              ranker->Rank(users[i], candidates[i], &tie_rng);
          if (!ranked.ok()) {
            std::fprintf(stderr, "rank failed: %s\n",
                         ranked.status().ToString().c_str());
            std::exit(1);
          }
          if (q + 1 == queries_per_user) {
            PassOutput out;
            out.tweets.reserve(ranked->size());
            out.scores.reserve(ranked->size());
            for (const rec::RankedItem& item : *ranked) {
              out.tweets.push_back(item.tweet);
              out.scores.push_back(item.score);
            }
            outputs->push_back(std::move(out));
          }
        }
      }
      best = std::min(best, watch.ElapsedSeconds());
    }
    return best;
  };

  // Brute force: the pre-ranker scoring loop, same tie-break protocol.
  double brute_seconds = 1e300;
  {
    for (size_t round = 0; round < rounds; ++round) {
      reference.clear();
      Stopwatch watch;
      Rng tie_rng(seed, rec::kTieBreakStream);
      for (size_t i = 0; i < users.size(); ++i) {
        std::vector<double> scores;
        scores.reserve(candidates[i].size());
        for (corpus::TweetId id : candidates[i]) {
          scores.push_back(engine->Score(users[i], id, ctx));
        }
        rec::SanitizeScores(&scores);
        std::vector<uint32_t> order = rec::CanonicalOrder(scores, &tie_rng);
        PassOutput out;
        out.tweets.reserve(order.size());
        out.scores.reserve(order.size());
        for (uint32_t idx : order) {
          out.tweets.push_back(candidates[i][idx]);
          out.scores.push_back(scores[idx]);
        }
        reference.push_back(std::move(out));
      }
      brute_seconds = std::min(brute_seconds, watch.ElapsedSeconds());
    }
  }

  struct Variant {
    const char* label;
    double seconds;
    bool identical;
  };
  std::vector<Variant> variants;
  variants.push_back({"brute", brute_seconds, true});

  const uint64_t candidates_before = CounterValue("rec.ranker.candidates");
  const uint64_t pruned_before = CounterValue("rec.ranker.pruned");

  // Times one ranker pass, per query, and checks each user's last output
  // against the brute-force ranking's head. `queries_per_user` 2 makes the
  // second query of each user all cache hits (serving's repeat-candidate
  // pattern) when the cache is on.
  auto run_variant = [&](const char* label, const rec::RankerOptions& opts,
                         size_t queries_per_user) {
    rec::BatchRanker ranker(engine.get(), &ctx, opts);
    std::vector<PassOutput> outputs;
    const double secs =
        time_pass(&ranker, queries_per_user, &outputs) /
        static_cast<double>(queries_per_user);
    bool same = outputs.size() == reference.size();
    for (size_t i = 0; same && i < outputs.size(); ++i) {
      same = outputs[i].IsHeadOf(reference[i], opts.top_k);
    }
    variants.push_back({label, secs, same});
  };

  ThreadPool pool(threads);
  rec::RankerOptions sequential;
  rec::RankerOptions sharded;
  sharded.pool = &pool;
  rec::RankerOptions cached;
  cached.score_cache_capacity = 1 << 16;
  rec::RankerOptions top10;
  top10.top_k = 10;
  rec::RankerOptions cached_top10 = cached;
  cached_top10.top_k = 10;
  run_variant("ranker/1", sequential, 1);
  run_variant("ranker/N", sharded, 1);
  run_variant("ranker/$", cached, 2);
  run_variant("ranker/top10", top10, 1);
  run_variant("ranker/$top10", cached_top10, 2);

  const uint64_t ranked = CounterValue("rec.ranker.candidates") -
                          candidates_before;
  const uint64_t pruned = CounterValue("rec.ranker.pruned") - pruned_before;

  TableWriter table("BatchRanker — ETime wall-clock per full-cohort pass, " +
                    config.ToString());
  table.SetHeader({"path", "seconds", "speedup vs brute", "bit-identical"});
  bool all_identical = true;
  for (const Variant& v : variants) {
    all_identical = all_identical && v.identical;
    table.AddRow({v.label, bench::F3(v.seconds),
                  bench::F3(brute_seconds / v.seconds) + "x",
                  v.identical ? "yes" : "NO"});
  }
  table.RenderText(std::cout);
  std::printf("pruning: %llu of %llu candidate scores skipped (%.1f%%)\n",
              static_cast<unsigned long long>(pruned),
              static_cast<unsigned long long>(ranked),
              ranked == 0 ? 0.0
                          : 100.0 * static_cast<double>(pruned) /
                                static_cast<double>(ranked));
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  bench::Workbench bench = bench::MakeWorkbench();
  eval::ExperimentRunner& runner = *bench.runner;

  const corpus::Source source = corpus::Source::kR;
  const size_t threads = bench::EnvSize("MICROREC_THREADS", 4);
  const size_t rounds = bench::EnvSize("MICROREC_ROUNDS", 3);

  // The first TN configuration valid for R — the paper's fastest family
  // (Table 5) — and the first TNG one scored by VS, whose shared-edge sum
  // is order-sensitive, so the bit-identity gate binds.
  std::vector<rec::ModelConfig> configs;
  for (rec::ModelKind kind : {rec::ModelKind::kTN, rec::ModelKind::kTNG}) {
    for (const rec::ModelConfig& candidate : rec::EnumerateConfigs(kind)) {
      if (candidate.IsValidForSource(corpus::HasNegativeExamples(source)) &&
          (kind == rec::ModelKind::kTN ||
           candidate.graph.similarity == graph::GraphSimilarity::kValue)) {
        configs.push_back(candidate);
        break;
      }
    }
  }

  bool all_identical = true;
  for (const rec::ModelConfig& config : configs) {
    all_identical = RunPasses(runner, config, source, threads, rounds) &&
                    all_identical;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a ranker path diverged from brute-force ranking\n");
    return 1;
  }
  return bench::FinishBench(io, "bench_ranker");
}
