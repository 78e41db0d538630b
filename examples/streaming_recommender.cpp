// Streaming recommender: the motivating scenario of the paper's
// introduction — a user drowning in her timeline. Builds a user model from
// her training-phase retweets, then replays her testing-phase timeline in
// chronological order, maintaining a top-K "For You" digest and reporting
// how many of her actual retweets the digest caught.
//
//   $ ./build/examples/streaming_recommender
//
// Demonstrates: per-user engine use outside the batch harness, the
// train/test split API, and an online ranking workflow.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <unordered_set>

#include "corpus/split.h"
#include "eval/experiment.h"
#include "rec/engine.h"
#include "synth/generator.h"

using namespace microrec;

int main() {
  constexpr size_t kDigestSize = 10;

  synth::DatasetSpec spec = synth::DatasetSpec::Small();
  spec.seed = 21;
  Result<synth::SyntheticDataset> dataset = synth::GenerateDataset(spec);
  if (!dataset.ok()) return 1;
  const eval::CorpusStack stack =
      eval::CorpusStack::Build(std::move(dataset->corpus), spec.cohort);
  const corpus::Corpus& corpus = stack.corpus();
  const corpus::UserCohort& cohort = stack.cohort();
  if (cohort.seekers.empty()) return 1;

  // Pick an information seeker — the user type that needs filtering most.
  corpus::UserId user = cohort.seekers.front();
  std::printf("user %s: %zu followees, %zu incoming tweets, %zu retweets\n",
              corpus.user(user).handle.c_str(),
              corpus.graph().Followees(user).size(),
              corpus.IncomingOf(user).size(),
              corpus.RetweetsOf(user).size());

  // Train/test split per the paper's protocol.
  Rng rng(9);
  Result<corpus::UserSplit> split =
      corpus::MakeUserSplit(corpus, user, corpus::SplitOptions{}, &rng);
  if (!split.ok()) {
    std::cerr << split.status().ToString() << "\n";
    return 1;
  }

  // Build the user's model from the training retweets.
  rec::ModelConfig config;
  config.kind = rec::ModelKind::kTN;
  config.bag.n = 1;
  config.bag.weighting = bag::Weighting::kTFIDF;
  config.bag.aggregation = bag::Aggregation::kCentroid;
  config.bag.similarity = bag::BagSimilarity::kCosine;
  std::unique_ptr<rec::Engine> engine = rec::MakeEngine(config);

  corpus::LabeledTrainSet train =
      corpus::BuildTrainSet(corpus, user, corpus::Source::kR, *split);
  std::printf("training on %zu retweets before t=%lld\n", train.docs.size(),
              static_cast<long long>(split->split_time));

  std::vector<corpus::UserId> users = {user};
  rec::EngineContext ctx;
  ctx.pre = &stack.pre();
  ctx.source = corpus::Source::kR;
  ctx.users = &users;
  ctx.train_set = [&train](corpus::UserId) -> const corpus::LabeledTrainSet& {
    return train;
  };
  if (!engine->Prepare(ctx).ok() ||
      !engine->BuildUser(user, train, ctx).ok()) {
    std::cerr << "model construction failed\n";
    return 1;
  }

  // Replay the testing-phase timeline chronologically, keeping a running
  // top-K digest by model score.
  std::unordered_set<corpus::TweetId> relevant(split->positives.begin(),
                                               split->positives.end());
  struct Scored {
    double score;
    corpus::TweetId id;
    bool operator<(const Scored& other) const { return score > other.score; }
  };
  std::vector<Scored> digest;
  size_t stream_len = 0;
  for (corpus::TweetId id : corpus.IncomingOf(user)) {
    const corpus::Tweet& tweet = corpus.tweet(id);
    if (tweet.time < split->split_time) continue;
    ++stream_len;
    double score = engine->Score(user, id, ctx);
    digest.push_back({score, id});
    std::sort(digest.begin(), digest.end());
    if (digest.size() > kDigestSize) digest.resize(kDigestSize);
  }

  size_t caught = 0;
  std::printf("\ntop-%zu digest out of %zu streamed tweets:\n", kDigestSize,
              stream_len);
  for (const Scored& entry : digest) {
    bool hit = relevant.count(entry.id) > 0 ||
               relevant.count(corpus.tweet(entry.id).retweet_of) > 0;
    caught += hit ? 1 : 0;
    std::string text = corpus.tweet(entry.id).text.substr(0, 56);
    std::printf("  %.3f %s %s\n", entry.score, hit ? "[RETWEETED]" : "  ",
                text.c_str());
  }
  std::printf(
      "\n%zu of the %zu digest slots are tweets the user actually "
      "retweeted (%zu retweets hidden in the %zu-tweet stream).\n",
      caught, digest.size(), relevant.size(), stream_len);
  return 0;
}
