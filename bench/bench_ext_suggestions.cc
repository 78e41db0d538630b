// Extension bench (paper Section 7, future work): hashtag and followee
// suggestion quality under different bag-model configurations, measured
// against the generator's ground truth —
//   * hashtag lift: average user-interest mass of the topics behind the
//     top-3 suggested tags, divided by the average over all candidate tags
//     (1.0 = no better than random among candidates);
//   * followee lift: average cosine(θ_ego, ψ_suggested) over the top-5
//     suggested accounts, divided by the population average.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "rec/followee_rec.h"
#include "rec/hashtag_rec.h"
#include "util/table_writer.h"

using namespace microrec;

namespace {

double Cosine(const std::vector<double>& a, const std::vector<double>& b) {
  double dot = 0, ma = 0, mb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    ma += a[i] * a[i];
    mb += b[i] * b[i];
  }
  return dot / std::sqrt(ma * mb);
}

int TopicOfTag(const std::string& hashtag) {
  size_t digits = hashtag.find_last_not_of("0123456789");
  return std::stoi(hashtag.substr(digits + 1));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  bench::Workbench bench = bench::MakeWorkbench();
  const corpus::Corpus& corpus = bench.corpus();
  const synth::GroundTruth& truth = bench.truth;

  std::vector<corpus::TweetId> all_posts;
  for (corpus::UserId u = 0; u < corpus.num_users(); ++u) {
    for (corpus::TweetId id : corpus.PostsOf(u)) all_posts.push_back(id);
  }

  // Configurations to compare: TN TF vs TN TF-IDF vs CN TF.
  struct Probe {
    const char* label;
    rec::ModelConfig config;
  };
  std::vector<Probe> probes;
  for (auto [label, kind, n, weighting] :
       {std::tuple{"TN n=1 TF", rec::ModelKind::kTN, 1, bag::Weighting::kTF},
        std::tuple{"TN n=1 TF-IDF", rec::ModelKind::kTN, 1,
                   bag::Weighting::kTFIDF},
        std::tuple{"CN n=3 TF", rec::ModelKind::kCN, 3,
                   bag::Weighting::kTF}}) {
    rec::ModelConfig config;
    config.kind = kind;
    config.bag.kind = kind == rec::ModelKind::kTN ? bag::NgramKind::kToken
                                                  : bag::NgramKind::kChar;
    config.bag.n = n;
    config.bag.weighting = weighting;
    config.bag.aggregation = bag::Aggregation::kCentroid;
    config.bag.similarity = bag::BagSimilarity::kCosine;
    probes.push_back({label, config});
  }

  TableWriter table(
      "Future-work extensions — suggestion quality vs ground truth");
  table.SetHeader({"configuration", "hashtag lift (top-3 vs candidates)",
                   "followee lift (top-5 vs population)"});

  for (const Probe& probe : probes) {
    // ---- Hashtags. ----
    rec::HashtagRecommender hashtags(&bench.stack.pre(), probe.config);
    double hashtag_lift = 0.0;
    if (hashtags.BuildProfiles(all_posts, 10).ok()) {
      double top_mass = 0.0, all_mass = 0.0;
      size_t top_count = 0, all_count = 0;
      for (corpus::UserId u : truth.subjects) {
        corpus::LabeledTrainSet train;
        for (corpus::TweetId id : corpus.RetweetsOf(u)) {
          train.docs.push_back(id);
          train.positive.push_back(true);
        }
        if (train.docs.empty()) continue;
        auto ranked = hashtags.Recommend(train, hashtags.num_profiles());
        if (!ranked.ok() || ranked->size() < 6) continue;
        for (size_t i = 0; i < ranked->size(); ++i) {
          double mass =
              truth.user_interest[u][TopicOfTag((*ranked)[i].hashtag)];
          all_mass += mass;
          ++all_count;
          if (i < 3) {
            top_mass += mass;
            ++top_count;
          }
        }
      }
      if (top_count > 0 && all_mass > 0) {
        hashtag_lift = (top_mass / static_cast<double>(top_count)) /
                       (all_mass / static_cast<double>(all_count));
      }
    }

    // ---- Followees. ----
    rec::FolloweeRecommender followees(&bench.stack.pre(), probe.config);
    double followee_lift = 0.0;
    if (followees.BuildProfiles(10).ok()) {
      double top_sim = 0.0, population_sim = 0.0;
      size_t top_count = 0, population_count = 0;
      for (corpus::UserId ego : truth.subjects) {
        corpus::LabeledTrainSet train;
        for (corpus::TweetId id : corpus.RetweetsOf(ego)) {
          train.docs.push_back(id);
          train.positive.push_back(true);
        }
        if (train.docs.empty()) continue;
        auto ranked = followees.Recommend(ego, train, 5);
        if (!ranked.ok()) continue;
        for (const auto& suggestion : *ranked) {
          top_sim += Cosine(truth.user_interest[ego],
                            truth.user_content[suggestion.user]);
          ++top_count;
        }
        for (corpus::UserId v = 0; v < corpus.num_users(); v += 4) {
          if (v == ego) continue;
          population_sim +=
              Cosine(truth.user_interest[ego], truth.user_content[v]);
          ++population_count;
        }
      }
      if (top_count > 0 && population_sim > 0) {
        followee_lift = (top_sim / static_cast<double>(top_count)) /
                        (population_sim /
                         static_cast<double>(population_count));
      }
    }

    table.AddRow({probe.label, bench::F3(hashtag_lift) + "x",
                  bench::F3(followee_lift) + "x"});
    std::fprintf(stderr, ".");
  }
  std::fprintf(stderr, "\n");
  table.RenderText(std::cout);
  std::printf("\nlift > 1.0 means the content-based ranking surfaces "
              "genuinely interest-aligned suggestions.\n");
  return bench::FinishBench(io, "bench_ext_suggestions");
}
