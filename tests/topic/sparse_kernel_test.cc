// Sparse / alias Gibbs kernels (topic/sparse_kernel.h): the bucket
// decomposition must equal the dense mass exactly (it is the same
// distribution, factored), the sorted topic lists must survive arbitrary
// increment/decrement traffic, kernel training must be deterministic for a
// fixed (seed, train_threads, sampler_kernel), and a degenerate posterior
// row must surface as kInternal — in release builds too, which is the whole
// point of the Rng::Categorical hardening.
#include "topic/sparse_kernel.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topic/btm.h"
#include "topic/doc_set.h"
#include "topic/lda.h"
#include "topic/llda.h"
#include "topic_test_util.h"
#include "util/rng.h"
#include "util/status.h"

namespace microrec::topic {
namespace {

TEST(SamplerKernelNameTest, RoundTripsAllKernels) {
  for (SamplerKernel kernel : {SamplerKernel::kDense, SamplerKernel::kSparse,
                               SamplerKernel::kAlias}) {
    SamplerKernel parsed = SamplerKernel::kDense;
    EXPECT_TRUE(ParseSamplerKernel(SamplerKernelName(kernel), &parsed));
    EXPECT_EQ(parsed, kernel);
  }
  SamplerKernel out = SamplerKernel::kSparse;
  EXPECT_FALSE(ParseSamplerKernel("turbo", &out));
  EXPECT_EQ(out, SamplerKernel::kSparse) << "failed parse must not write";
}

// ---------------------------------------------------------------------------
// TopicCountList invariants.

void ExpectSortedAndConsistent(const TopicCountList& list,
                               const std::map<uint32_t, uint32_t>& truth) {
  size_t nonzero = 0;
  for (const auto& [topic, count] : truth) nonzero += count > 0 ? 1 : 0;
  ASSERT_EQ(list.size(), nonzero);
  std::map<uint32_t, uint32_t> seen;
  for (size_t i = 0; i < list.size(); ++i) {
    const auto& e = list.entry(i);
    EXPECT_GT(e.count, 0u);
    seen[e.topic] = e.count;
    if (i > 0) {
      EXPECT_GE(list.entry(i - 1).count, e.count)
          << "entries must stay sorted by count descending";
    }
  }
  for (const auto& [topic, count] : truth) {
    if (count > 0) {
      EXPECT_EQ(seen[topic], count) << "topic " << topic;
    }
  }
}

TEST(TopicCountListTest, RandomTrafficPreservesSortedCounts) {
  Rng rng(404);
  constexpr uint32_t kTopics = 12;
  TopicCountList list;
  std::map<uint32_t, uint32_t> truth;
  for (int step = 0; step < 2000; ++step) {
    const uint32_t topic = rng.UniformU32(kTopics);
    if (rng.UniformU32(2) == 0 && truth[topic] > 0) {
      EXPECT_TRUE(list.Decrement(topic));
      --truth[topic];
    } else {
      list.Increment(topic);
      ++truth[topic];
    }
    if (step % 97 == 0) ExpectSortedAndConsistent(list, truth);
  }
  ExpectSortedAndConsistent(list, truth);
}

TEST(TopicCountListTest, DecrementOfAbsentTopicReportsCorruption) {
  TopicCountList list;
  EXPECT_FALSE(list.Decrement(3));
  list.Increment(3);
  EXPECT_TRUE(list.Decrement(3));
  EXPECT_FALSE(list.Decrement(3)) << "count reached zero; entry must vanish";
}

TEST(TopicCountListTest, AssignMatchesStridedCounts) {
  const std::vector<uint32_t> counts = {0, 5, 2, 5, 0, 1};
  TopicCountList list;
  list.Assign(counts.data(), counts.size(), 1);
  ASSERT_EQ(list.size(), 4u);
  // (count desc, topic asc): 1:5, 3:5, 2:2, 5:1.
  EXPECT_EQ(list.entry(0).topic, 1u);
  EXPECT_EQ(list.entry(1).topic, 3u);
  EXPECT_EQ(list.entry(2).topic, 2u);
  EXPECT_EQ(list.entry(3).topic, 5u);
}

// ---------------------------------------------------------------------------
// Bucket decomposition == dense mass.

struct LdaCounts {
  size_t K, V, D;
  std::vector<std::vector<TermId>> docs;       // word ids per doc
  std::vector<std::vector<uint32_t>> z;        // assignment per token
  std::vector<uint32_t> n_dk, n_kw, n_k;       // [D*K], [K*V], [K]
};

LdaCounts MakeLdaCounts(size_t K, size_t V, size_t D, size_t len,
                        uint64_t seed) {
  LdaCounts c;
  c.K = K;
  c.V = V;
  c.D = D;
  c.n_dk.assign(D * K, 0);
  c.n_kw.assign(K * V, 0);
  c.n_k.assign(K, 0);
  Rng rng(seed);
  for (size_t d = 0; d < D; ++d) {
    std::vector<TermId> words;
    std::vector<uint32_t> zs;
    for (size_t i = 0; i < len; ++i) {
      const TermId w = rng.UniformU32(static_cast<uint32_t>(V));
      const uint32_t k = rng.UniformU32(static_cast<uint32_t>(K));
      words.push_back(w);
      zs.push_back(k);
      ++c.n_dk[d * K + k];
      ++c.n_kw[k * V + w];
      ++c.n_k[k];
    }
    c.docs.push_back(words);
    c.z.push_back(zs);
  }
  return c;
}

double DenseMass(const LdaCounts& c, size_t d, TermId w, double alpha,
                 double beta, const std::vector<uint32_t>* menu) {
  const double v_beta = static_cast<double>(c.V) * beta;
  double mass = 0.0;
  auto add = [&](uint32_t k) {
    mass += (c.n_dk[d * c.K + k] + alpha) * (c.n_kw[k * c.V + w] + beta) /
            (c.n_k[k] + v_beta);
  };
  if (menu == nullptr) {
    for (uint32_t k = 0; k < c.K; ++k) add(k);
  } else {
    for (uint32_t k : *menu) add(k);
  }
  return mass;
}

TEST(SparseBucketTest, BucketsSumToDenseMassUnderRandomTraffic) {
  const double alpha = 0.4, beta = 0.01;
  LdaCounts c = MakeLdaCounts(/*K=*/16, /*V=*/40, /*D=*/6, /*len=*/30,
                              /*seed=*/77);
  GibbsSparseSweeper sweeper(c.K, c.V, alpha, beta);
  sweeper.Bind(c.n_dk.data(), c.n_kw.data(), c.n_k.data());
  Rng rng(5150);
  for (size_t d = 0; d < c.D; ++d) {
    sweeper.BeginDoc(d, nullptr);
    for (size_t i = 0; i < c.docs[d].size(); ++i) {
      const TermId w = c.docs[d][i];
      const uint32_t old = c.z[d][i];
      // RemoveToken mutates the bound arrays, which are c's own vectors, so
      // DenseMass below sees the post-removal counts — as it must.
      sweeper.RemoveToken(w, old);
      double s = 0.0, r = 0.0, q = 0.0;
      sweeper.BucketMasses(w, &s, &r, &q);
      EXPECT_NEAR(s + r + q, DenseMass(c, d, w, alpha, beta, nullptr),
                  1e-9 * (s + r + q + 1.0))
          << "doc " << d << " token " << i;
      const uint32_t fresh = sweeper.DrawTopic(w, old, &rng);
      ASSERT_LT(fresh, c.K);
      sweeper.AddToken(w, fresh);
      c.z[d][i] = fresh;
    }
  }
  EXPECT_TRUE(sweeper.counts_ok());
  EXPECT_EQ(rng.degenerate_draws(), 0u)
      << "healthy masses must never hit the degenerate fallback";
}

TEST(SparseBucketTest, MenuRestrictedBucketsMatchDenseMenuMass) {
  const double alpha = 0.3, beta = 0.05;
  LdaCounts c = MakeLdaCounts(/*K=*/12, /*V=*/25, /*D=*/4, /*len=*/20,
                              /*seed=*/31);
  const std::vector<uint32_t> menu = {1, 4, 7, 9};
  GibbsSparseSweeper sweeper(c.K, c.V, alpha, beta);
  sweeper.Bind(c.n_dk.data(), c.n_kw.data(), c.n_k.data());
  // Force doc 2's assignments onto the menu so Remove/Add stay legal.
  for (size_t i = 0; i < c.docs[2].size(); ++i) {
    const uint32_t old = c.z[2][i];
    const TermId w = c.docs[2][i];
    const uint32_t fresh = menu[i % menu.size()];
    --c.n_dk[2 * c.K + old];
    --c.n_kw[old * c.V + w];
    --c.n_k[old];
    ++c.n_dk[2 * c.K + fresh];
    ++c.n_kw[fresh * c.V + w];
    ++c.n_k[fresh];
    c.z[2][i] = fresh;
  }
  sweeper.Bind(c.n_dk.data(), c.n_kw.data(), c.n_k.data());
  sweeper.BeginDoc(2, &menu);
  Rng rng(8);
  for (size_t i = 0; i < c.docs[2].size(); ++i) {
    const TermId w = c.docs[2][i];
    sweeper.RemoveToken(w, c.z[2][i]);
    double s = 0.0, r = 0.0, q = 0.0;
    sweeper.BucketMasses(w, &s, &r, &q);
    EXPECT_NEAR(s + r + q, DenseMass(c, 2, w, alpha, beta, &menu),
                1e-9 * (s + r + q + 1.0));
    const uint32_t fresh = sweeper.DrawTopic(w, c.z[2][i], &rng);
    bool on_menu = false;
    for (uint32_t k : menu) on_menu |= k == fresh;
    EXPECT_TRUE(on_menu) << "draw " << fresh << " left the menu";
    sweeper.AddToken(w, fresh);
    c.z[2][i] = fresh;
  }
  EXPECT_TRUE(sweeper.counts_ok());
}

TEST(BtmSparseBucketTest, BucketsSumToDenseMassIncludingEqualWords) {
  const double alpha = 1.0, beta = 0.01;
  const size_t K = 10, V = 20;
  std::vector<uint32_t> n_z(K, 0), n_kw(K * V, 0);
  std::vector<std::pair<TermId, TermId>> biterms;
  std::vector<uint32_t> z;
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    TermId w1 = rng.UniformU32(V);
    // Every 5th biterm repeats its word: the w1 == w2 factorisation is the
    // subtle case ((n+β)² = n(n+β) + βn + β²).
    TermId w2 = i % 5 == 0 ? w1 : rng.UniformU32(V);
    uint32_t k = rng.UniformU32(K);
    biterms.push_back({w1, w2});
    z.push_back(k);
    ++n_z[k];
    ++n_kw[k * V + w1];
    ++n_kw[k * V + w2];
  }
  const double v_beta = static_cast<double>(V) * beta;
  BtmSparseSweeper sweeper(K, V, alpha, beta);
  sweeper.Bind(n_z.data(), n_kw.data());
  Rng draw_rng(21);
  for (size_t i = 0; i < biterms.size(); ++i) {
    const auto [w1, w2] = biterms[i];
    sweeper.RemoveBiterm(w1, w2, z[i]);
    double dense = 0.0;
    for (size_t k = 0; k < K; ++k) {
      const double denom = 2.0 * n_z[k] + v_beta;
      dense += (n_z[k] + alpha) * (n_kw[k * V + w1] + beta) *
               (n_kw[k * V + w2] + beta) / (denom * (denom + 1.0));
    }
    double s = 0.0, q1 = 0.0, q2 = 0.0;
    sweeper.BucketMasses(w1, w2, &s, &q1, &q2);
    EXPECT_NEAR(s + q1 + q2, dense, 1e-9 * (dense + 1.0))
        << "biterm " << i << " (" << w1 << "," << w2 << ")";
    z[i] = sweeper.DrawTopic(w1, w2, z[i], &draw_rng);
    ASSERT_LT(z[i], K);
    sweeper.AddBiterm(w1, w2, z[i]);
  }
  EXPECT_TRUE(sweeper.counts_ok());
}

// ---------------------------------------------------------------------------
// Determinism: fixed (seed, train_threads, sampler_kernel) → identical phi.

DocSet MakeKernelDocs(uint64_t seed) {
  DocSet docs;
  Rng gen(seed);
  for (int d = 0; d < 60; ++d) {
    std::vector<std::string> tokens;
    const uint32_t band = gen.UniformU32(4);
    for (int i = 0; i < 12; ++i) {
      tokens.push_back("w");
      tokens.back() += std::to_string(band * 15 + gen.UniformU32(15));
    }
    docs.AddDocument(
        Words().Doc(bag::TokenDoc(tokens.begin(), tokens.end())));
  }
  return docs;
}

template <typename Model, typename Config>
std::vector<double> TrainPhi(const DocSet& docs, Config config,
                             SamplerKernel kernel, size_t threads,
                             uint64_t seed) {
  config.train.sampler_kernel = kernel;
  config.train.train_threads = threads;
  Model model(config);
  Rng rng(seed);
  EXPECT_TRUE(model.Train(docs, &rng).ok());
  std::vector<double> phi;
  for (size_t k = 0; k < model.num_topics(); ++k) {
    for (TermId w = 0; w < docs.vocab_size(); ++w) {
      phi.push_back(model.TopicWordProb(k, w));
    }
  }
  return phi;
}

class KernelDeterminismTest
    : public ::testing::TestWithParam<SamplerKernel> {};

TEST_P(KernelDeterminismTest, LdaSameSeedSameKernelIsBitIdentical) {
  DocSet docs = MakeKernelDocs(61);
  LdaConfig config;
  config.num_topics = 6;
  config.train_iterations = 15;
  for (size_t threads : {size_t{1}, size_t{3}}) {
    std::vector<double> a =
        TrainPhi<Lda>(docs, config, GetParam(), threads, /*seed=*/5);
    std::vector<double> b =
        TrainPhi<Lda>(docs, config, GetParam(), threads, /*seed=*/5);
    EXPECT_EQ(a, b) << "kernel " << SamplerKernelName(GetParam())
                    << " at train_threads=" << threads;
  }
}

TEST_P(KernelDeterminismTest, BtmSameSeedSameKernelIsBitIdentical) {
  DocSet docs = MakeKernelDocs(62);
  BtmConfig config;
  config.num_topics = 6;
  config.train_iterations = 10;
  config.window = 10;
  for (size_t threads : {size_t{1}, size_t{3}}) {
    std::vector<double> a =
        TrainPhi<Btm>(docs, config, GetParam(), threads, /*seed=*/9);
    std::vector<double> b =
        TrainPhi<Btm>(docs, config, GetParam(), threads, /*seed=*/9);
    EXPECT_EQ(a, b) << "kernel " << SamplerKernelName(GetParam())
                    << " at train_threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelDeterminismTest,
                         ::testing::Values(SamplerKernel::kDense,
                                           SamplerKernel::kSparse,
                                           SamplerKernel::kAlias),
                         [](const auto& info) {
                           return std::string(SamplerKernelName(info.param));
                         });

// ---------------------------------------------------------------------------
// Degenerate-mass regression: a zero posterior row must surface as
// kInternal, not as a silently biased draw. alpha = 0 plus a one-token
// document (for BTM, a single biterm) makes every topic's weight exactly
// zero once the token is removed. This must hold in NDEBUG builds — the
// default RelWithDebInfo config compiles the old assert away, which is
// precisely the bug the hardened Rng::Categorical fixes — and on the
// sequential and the sharded branch alike.

class DegenerateMassTest : public ::testing::TestWithParam<SamplerKernel> {
 protected:
  template <typename Model, typename Config>
  void ExpectInternalAtEveryThreadCount(const DocSet& docs, Config config) {
    config.alpha = 0.0;  // no smoothing: the removed token's row is all zero
    config.train_iterations = 3;
    config.train.sampler_kernel = GetParam();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      config.train.train_threads = threads;
      Model model(config);
      Rng rng(11);
      Status status = model.Train(docs, &rng);
      ASSERT_FALSE(status.ok()) << "train_threads=" << threads;
      EXPECT_EQ(status.code(), StatusCode::kInternal)
          << "train_threads=" << threads << ": " << status.ToString();
    }
  }
};

TEST_P(DegenerateMassTest, LdaZeroMassRowSurfacesAsInternal) {
  DocSet docs;
  docs.AddDocument(Words().Doc({"lonely"}));
  LdaConfig config;
  config.num_topics = 4;
  ExpectInternalAtEveryThreadCount<Lda>(docs, config);
}

TEST_P(DegenerateMassTest, LldaZeroMassRowSurfacesAsInternal) {
  DocSet docs;
  docs.SetLabels(docs.AddDocument(Words().Doc({"lonely"})), {0});
  LldaConfig config;
  config.num_labels = 1;
  config.num_latent_topics = 3;
  ExpectInternalAtEveryThreadCount<Llda>(docs, config);
}

TEST_P(DegenerateMassTest, BtmZeroMassRowSurfacesAsInternal) {
  DocSet docs;
  docs.AddDocument(Words().Doc({"left", "right"}));  // exactly one biterm
  BtmConfig config;
  config.num_topics = 4;
  ExpectInternalAtEveryThreadCount<Btm>(docs, config);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, DegenerateMassTest,
                         ::testing::Values(SamplerKernel::kDense,
                                           SamplerKernel::kSparse,
                                           SamplerKernel::kAlias),
                         [](const auto& info) {
                           return std::string(SamplerKernelName(info.param));
                         });

}  // namespace
}  // namespace microrec::topic
