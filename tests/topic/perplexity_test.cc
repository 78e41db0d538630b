#include <gtest/gtest.h>

#include <memory>

#include "topic/btm.h"
#include "topic/hdp.h"
#include "topic/hlda.h"
#include "topic/lda.h"
#include "topic/llda.h"
#include "topic/plsa.h"
#include "topic_test_util.h"

namespace microrec::topic {
namespace {

std::vector<std::vector<TermId>> InDomainQueries(const DocSet& docs) {
  return {AnimalQuery(docs), FinanceQuery(docs),
          docs.Lookup(Words().Doc({"cat", "dog", "paw", "fur"})),
          docs.Lookup(Words().Doc({"stock", "bond", "yield", "rate"}))};
}

// Scrambled queries mix the two themes uniformly — a trained model should
// find them less predictable than coherent documents.
std::vector<std::vector<TermId>> MixedQueries(const DocSet& docs) {
  return {docs.Lookup(Words().Doc(
              {"cat", "stock", "dog", "bond", "paw", "yield"})),
          docs.Lookup(Words().Doc(
              {"fund", "fur", "rate", "tail", "stock", "cat"}))};
}

TEST(PerplexityTest, LowerOnCoherentThanMixedDocs) {
  LdaConfig config;
  config.num_topics = 2;
  config.train_iterations = 200;
  Lda lda(config);
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(1);
  ASSERT_TRUE(lda.Train(docs, &rng).ok());
  double coherent = Perplexity(lda, InDomainQueries(docs), &rng);
  double mixed = Perplexity(lda, MixedQueries(docs), &rng);
  EXPECT_GT(coherent, 1.0);
  EXPECT_LT(coherent, mixed);
}

TEST(PerplexityTest, BoundedByVocabularySizeForDecentModel) {
  // A model can never be worse than uniform-over-vocabulary on in-domain
  // text (vocab here is 10 words).
  LdaConfig config;
  config.num_topics = 2;
  config.train_iterations = 200;
  Lda lda(config);
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(2);
  ASSERT_TRUE(lda.Train(docs, &rng).ok());
  EXPECT_LT(Perplexity(lda, InDomainQueries(docs), &rng),
            static_cast<double>(docs.vocab_size()));
}

TEST(PerplexityTest, MoreTrainingHelps) {
  DocSet docs = MakeTwoTopicCorpus();
  LdaConfig brief;
  brief.num_topics = 4;
  brief.train_iterations = 2;
  LdaConfig thorough = brief;
  thorough.train_iterations = 200;
  Lda quick(brief), slow(thorough);
  Rng rng1(3), rng2(3);
  ASSERT_TRUE(quick.Train(docs, &rng1).ok());
  ASSERT_TRUE(slow.Train(docs, &rng2).ok());
  EXPECT_LE(Perplexity(slow, InDomainQueries(docs), &rng2),
            Perplexity(quick, InDomainQueries(docs), &rng1) * 1.2);
}

TEST(PerplexityTest, EmptyDocSetYieldsZero) {
  LdaConfig config;
  config.num_topics = 2;
  config.train_iterations = 20;
  Lda lda(config);
  DocSet docs = MakeTwoTopicCorpus(4, 6);
  Rng rng(4);
  ASSERT_TRUE(lda.Train(docs, &rng).ok());
  EXPECT_DOUBLE_EQ(Perplexity(lda, {}, &rng), 0.0);
  EXPECT_DOUBLE_EQ(Perplexity(lda, {{}}, &rng), 0.0);
}

TEST(PerplexityTest, DefinedForEveryModelFamily) {
  DocSet docs = MakeTwoTopicCorpus();
  Rng rng(5);
  auto queries = InDomainQueries(docs);

  auto check = [&](TopicModel& model) {
    Rng train_rng(6);
    ASSERT_TRUE(model.Train(docs, &train_rng).ok());
    double perplexity = Perplexity(model, queries, &train_rng);
    EXPECT_GT(perplexity, 0.9) << model.name();
    EXPECT_LT(perplexity, 1000.0) << model.name();
    // φ rows behave like probabilities.
    for (size_t z = 0; z < model.num_topics(); ++z) {
      double p = model.TopicWordProb(z, 0);
      EXPECT_GE(p, 0.0) << model.name();
      EXPECT_LE(p, 1.0) << model.name();
    }
  };

  LdaConfig lda_config;
  lda_config.num_topics = 3;
  lda_config.train_iterations = 80;
  Lda lda(lda_config);
  check(lda);

  LldaConfig llda_config;
  llda_config.num_latent_topics = 3;
  llda_config.train_iterations = 80;
  Llda llda(llda_config);
  check(llda);

  BtmConfig btm_config;
  btm_config.num_topics = 3;
  btm_config.train_iterations = 80;
  Btm btm(btm_config);
  check(btm);

  HdpConfig hdp_config;
  hdp_config.train_iterations = 60;
  Hdp hdp(hdp_config);
  check(hdp);

  HldaConfig hlda_config;
  hlda_config.train_iterations = 25;
  hlda_config.alpha = 2.0;
  Hlda hlda(hlda_config);
  check(hlda);

  PlsaConfig plsa_config;
  plsa_config.num_topics = 3;
  plsa_config.train_iterations = 40;
  Plsa plsa(plsa_config);
  check(plsa);
}

}  // namespace
}  // namespace microrec::topic
