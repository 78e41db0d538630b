// Tests for the sharded-training driver (topic/parallel_gibbs.h) and its
// wiring into the samplers:
//   - train_threads = 1 is bit-identical to the legacy sequential path for
//     every model that takes TrainOptions, regardless of the other options;
//   - the LDA sequential path itself matches a test-local reference
//     reimplementation draw-for-draw (pins the historical RNG sequence);
//   - shard merges conserve counts exactly, for randomized sweeps at any
//     thread count and merge cadence;
//   - fixed (seed, threads, merge_every) is deterministic;
//   - an exception in one shard propagates, discards the in-flight merge
//     block, and leaves the driver usable;
//   - every trainer's posterior and caller-RNG end state is pinned, per
//     kernel, thread count and merge cadence;
//   - every model's fold-in θ and caller-RNG end state is pinned.
#include "topic/parallel_gibbs.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "topic/btm.h"
#include "topic/hdp.h"
#include "topic/hlda.h"
#include "topic/lda.h"
#include "topic/llda.h"
#include "topic/plsa.h"
#include "topic/sparse_kernel.h"
#include "topic_test_util.h"

namespace microrec::topic {
namespace {

// ---------------------------------------------------------------------------
// Driver-level properties.

/// Runs `iters` randomized conserving sweeps: every item keeps exactly one
/// unit of mass in `counts`, moved between slots by its owning shard.
/// Returns the final assignment; `counts` ends merged.
std::vector<uint32_t> RunConservingSweeps(size_t items, size_t slots,
                                          const TrainOptions& options,
                                          uint64_t seed, int iters,
                                          std::vector<uint32_t>* counts) {
  std::vector<uint32_t> z(items);
  counts->assign(slots, 0);
  Rng init(7);
  for (size_t i = 0; i < items; ++i) {
    z[i] = init.UniformU32(static_cast<uint32_t>(slots));
    ++(*counts)[z[i]];
  }
  ParallelGibbs driver(items, options, seed);
  const size_t h = driver.AddCounts(counts);
  for (int iter = 0; iter < iters; ++iter) {
    driver.RunIteration(iter, [&](const ParallelGibbs::Shard& shard) {
      uint32_t* local = shard.Counts(h);
      for (size_t i = shard.begin; i < shard.end; ++i) {
        --local[z[i]];
        z[i] = shard.rng->UniformU32(static_cast<uint32_t>(slots));
        ++local[z[i]];
      }
    });
  }
  driver.FlushMerge();
  return z;
}

TEST(ParallelGibbsTest, ShardBoundsPartitionTheItems) {
  for (size_t items : {1u, 7u, 100u, 1001u}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      TrainOptions options;
      options.train_threads = threads;
      ParallelGibbs driver(items, options, 1);
      ASSERT_GE(driver.num_shards(), 1u);
      ASSERT_LE(driver.num_shards(), threads);
      size_t covered = 0;
      for (size_t s = 0; s < driver.num_shards(); ++s) {
        EXPECT_EQ(driver.shard_begin(s), covered);
        EXPECT_GT(driver.shard_end(s), driver.shard_begin(s));
        covered = driver.shard_end(s);
      }
      EXPECT_EQ(covered, items);
    }
  }
}

TEST(ParallelGibbsTest, MergeConservesCountsForRandomizedSweeps) {
  constexpr size_t kItems = 1000;
  constexpr size_t kSlots = 16;
  for (size_t threads : {2u, 4u, 8u}) {
    for (int merge_every : {1, 3, 10}) {
      TrainOptions options;
      options.train_threads = threads;
      options.merge_every = merge_every;
      std::vector<uint32_t> counts;
      std::vector<uint32_t> z = RunConservingSweeps(
          kItems, kSlots, options, /*seed=*/99, /*iters=*/8, &counts);
      std::vector<uint32_t> expected(kSlots, 0);
      for (uint32_t t : z) ++expected[t];
      EXPECT_EQ(counts, expected)
          << "threads=" << threads << " merge_every=" << merge_every;
    }
  }
}

TEST(ParallelGibbsTest, FixedConfigurationIsDeterministic) {
  TrainOptions options;
  options.train_threads = 4;
  options.merge_every = 2;
  std::vector<uint32_t> counts_a, counts_b;
  std::vector<uint32_t> z_a = RunConservingSweeps(500, 8, options, 42,
                                                  /*iters=*/6, &counts_a);
  std::vector<uint32_t> z_b = RunConservingSweeps(500, 8, options, 42,
                                                  /*iters=*/6, &counts_b);
  EXPECT_EQ(z_a, z_b);
  EXPECT_EQ(counts_a, counts_b);
}

TEST(ParallelGibbsTest, DifferentSeedsDiverge) {
  TrainOptions options;
  options.train_threads = 4;
  std::vector<uint32_t> counts_a, counts_b;
  std::vector<uint32_t> z_a =
      RunConservingSweeps(500, 8, options, 1, /*iters=*/3, &counts_a);
  std::vector<uint32_t> z_b =
      RunConservingSweeps(500, 8, options, 2, /*iters=*/3, &counts_b);
  EXPECT_NE(z_a, z_b);
}

TEST(ParallelGibbsTest, ExceptionPropagatesDiscardsBlockAndDriverRecovers) {
  constexpr size_t kItems = 400;
  constexpr size_t kSlots = 8;
  TrainOptions options;
  options.train_threads = 4;
  options.merge_every = 1;

  std::vector<uint32_t> z(kItems);
  std::vector<uint32_t> counts(kSlots, 0);
  Rng init(5);
  for (size_t i = 0; i < kItems; ++i) {
    z[i] = init.UniformU32(kSlots);
    ++counts[z[i]];
  }
  ParallelGibbs driver(kItems, options, 11);
  ASSERT_GT(driver.num_shards(), 1u);
  const size_t h = driver.AddCounts(&counts);

  auto sweep = [&](const ParallelGibbs::Shard& shard) {
    uint32_t* local = shard.Counts(h);
    for (size_t i = shard.begin; i < shard.end; ++i) {
      --local[z[i]];
      z[i] = shard.rng->UniformU32(kSlots);
      ++local[z[i]];
    }
  };
  driver.RunIteration(0, sweep);  // merged (merge_every = 1)

  const std::vector<uint32_t> merged = counts;
  EXPECT_THROW(driver.RunIteration(1,
                                   [&](const ParallelGibbs::Shard& shard) {
                                     if (shard.index == 1) {
                                       throw std::runtime_error("boom");
                                     }
                                     // Other shards do no work, so `z`
                                     // still matches the merged counts.
                                   }),
               std::runtime_error);
  // The in-flight block was discarded: globals keep the last merged state.
  EXPECT_EQ(counts, merged);

  // The driver stays usable and still conserves.
  driver.RunIteration(2, sweep);
  driver.FlushMerge();
  std::vector<uint32_t> expected(kSlots, 0);
  for (uint32_t t : z) ++expected[t];
  EXPECT_EQ(counts, expected);
}

TEST(ParallelGibbsTest, AccumulatorReducesAcrossShards) {
  constexpr size_t kItems = 100;
  TrainOptions options;
  options.train_threads = 4;
  std::vector<double> acc(3, -1.0);  // overwritten by the reduction
  ParallelGibbs driver(kItems, options, 1);
  const size_t h = driver.AddAccumulator(&acc);
  driver.RunIteration(0, [&](const ParallelGibbs::Shard& shard) {
    double* local = shard.Accumulator(h);
    for (size_t i = shard.begin; i < shard.end; ++i) {
      local[0] += 1.0;
      local[1] += 2.0;
    }
  });
  EXPECT_DOUBLE_EQ(acc[0], static_cast<double>(kItems));
  EXPECT_DOUBLE_EQ(acc[1], 2.0 * kItems);
  EXPECT_DOUBLE_EQ(acc[2], 0.0);

  // Locals are zeroed per iteration: a second sweep yields the same sums.
  driver.RunIteration(1, [&](const ParallelGibbs::Shard& shard) {
    double* local = shard.Accumulator(h);
    for (size_t i = shard.begin; i < shard.end; ++i) local[0] += 1.0;
  });
  EXPECT_DOUBLE_EQ(acc[0], static_cast<double>(kItems));
  EXPECT_DOUBLE_EQ(acc[1], 0.0);
}

// ---------------------------------------------------------------------------
// train_threads = 1 is the legacy sequential path, bit for bit.

/// All φ_z,w cells of a trained model, for exact comparison.
std::vector<double> PhiCells(const TopicModel& model, size_t vocab) {
  std::vector<double> cells;
  cells.reserve(model.num_topics() * vocab);
  for (size_t k = 0; k < model.num_topics(); ++k) {
    for (TermId w = 0; w < vocab; ++w) {
      cells.push_back(model.TopicWordProb(k, w));
    }
  }
  return cells;
}

/// Trains two instances of `Model` on the same corpus and seed — one with
/// a default-constructed TrainOptions, one with train_threads = 1 but a
/// non-default merge cadence — and expects bit-identical posteriors and
/// caller-RNG end states: at one thread the parallel machinery must never
/// engage, draw, or perturb anything.
template <typename Model, typename Config>
void ExpectSequentialBitIdentity(Config config, uint64_t seed) {
  DocSet docs = MakeTwoTopicCorpus();
  Config explicit_config = config;
  explicit_config.train.train_threads = 1;
  explicit_config.train.merge_every = 5;

  Model base(config);
  Model tuned(explicit_config);
  Rng rng_base(seed);
  Rng rng_tuned(seed);
  ASSERT_TRUE(base.Train(docs, &rng_base).ok());
  ASSERT_TRUE(tuned.Train(docs, &rng_tuned).ok());

  EXPECT_EQ(PhiCells(base, docs.vocab_size()),
            PhiCells(tuned, docs.vocab_size()));
  EXPECT_EQ(rng_base.NextU64(), rng_tuned.NextU64())
      << "train_threads=1 consumed extra caller-RNG draws";
}

TEST(SequentialBitIdentityTest, LdaAtOneThread) {
  LdaConfig config;
  config.num_topics = 4;
  config.train_iterations = 60;
  for (uint64_t seed : {3u, 17u}) {
    ExpectSequentialBitIdentity<Lda>(config, seed);
  }
}

TEST(SequentialBitIdentityTest, LldaAtOneThread) {
  LldaConfig config;
  config.num_latent_topics = 4;
  config.train_iterations = 60;
  for (uint64_t seed : {3u, 17u}) {
    ExpectSequentialBitIdentity<Llda>(config, seed);
  }
}

TEST(SequentialBitIdentityTest, BtmAtOneThread) {
  BtmConfig config;
  config.num_topics = 4;
  config.train_iterations = 30;
  config.window = 5;
  for (uint64_t seed : {3u, 17u}) {
    ExpectSequentialBitIdentity<Btm>(config, seed);
  }
}

TEST(SequentialBitIdentityTest, PlsaAtOneThread) {
  PlsaConfig config;
  config.num_topics = 4;
  config.train_iterations = 20;
  for (uint64_t seed : {3u, 17u}) {
    ExpectSequentialBitIdentity<Plsa>(config, seed);
  }
}

/// Reference reimplementation of the sequential collapsed-Gibbs LDA —
/// draw-for-draw the historical Train() loop — so the threads=1 branch is
/// pinned against the mathematical spec, not just against itself.
std::vector<double> ReferenceLdaPhi(const DocSet& docs,
                                    const LdaConfig& config, uint64_t seed) {
  const size_t K = config.num_topics;
  const size_t V = docs.vocab_size();
  const double alpha = config.ResolvedAlpha();
  const double beta = config.beta;
  const double v_beta = static_cast<double>(V) * beta;
  Rng rng(seed);

  std::vector<TermId> words;
  std::vector<uint32_t> doc_of;
  for (size_t d = 0; d < docs.num_docs(); ++d) {
    for (TermId w : docs.docs()[d].words) {
      words.push_back(w);
      doc_of.push_back(static_cast<uint32_t>(d));
    }
  }
  const size_t N = words.size();
  std::vector<uint32_t> z(N);
  std::vector<uint32_t> n_dk(docs.num_docs() * K, 0);
  std::vector<uint32_t> n_kw(K * V, 0);
  std::vector<uint32_t> n_k(K, 0);
  for (size_t i = 0; i < N; ++i) {
    z[i] = rng.UniformU32(static_cast<uint32_t>(K));
    ++n_dk[doc_of[i] * K + z[i]];
    ++n_kw[static_cast<size_t>(z[i]) * V + words[i]];
    ++n_k[z[i]];
  }
  std::vector<double> weights(K);
  for (int iter = 0; iter < config.train_iterations; ++iter) {
    for (size_t i = 0; i < N; ++i) {
      const uint32_t d = doc_of[i];
      const TermId w = words[i];
      --n_dk[d * K + z[i]];
      --n_kw[static_cast<size_t>(z[i]) * V + w];
      --n_k[z[i]];
      for (size_t k = 0; k < K; ++k) {
        weights[k] = (n_dk[d * K + k] + alpha) * (n_kw[k * V + w] + beta) /
                     (n_k[k] + v_beta);
      }
      z[i] = static_cast<uint32_t>(rng.Categorical(weights.data(), K));
      ++n_dk[d * K + z[i]];
      ++n_kw[static_cast<size_t>(z[i]) * V + w];
      ++n_k[z[i]];
    }
  }
  std::vector<double> phi(K * V);
  for (size_t k = 0; k < K; ++k) {
    const double denom = n_k[k] + v_beta;
    for (size_t w = 0; w < V; ++w) {
      phi[k * V + w] = (n_kw[k * V + w] + beta) / denom;
    }
  }
  return phi;
}

TEST(SequentialBitIdentityTest, LdaMatchesReferenceReimplementation) {
  DocSet docs = MakeTwoTopicCorpus();
  LdaConfig config;
  config.num_topics = 4;
  config.train_iterations = 40;
  for (uint64_t seed : {3u, 17u}) {
    Lda lda(config);
    Rng rng(seed);
    ASSERT_TRUE(lda.Train(docs, &rng).ok());
    EXPECT_EQ(PhiCells(lda, docs.vocab_size()),
              ReferenceLdaPhi(docs, config, seed));
  }
}

// ---------------------------------------------------------------------------
// Pinned posteriors: every trainer through every kernel, thread count and
// merge cadence. Each case pins one hash, so a change to any draw, merge,
// bind or guard of any training path shows up here.

/// FNV-1a (64-bit) over 64-bit words, byte by byte.
class PinHash {
 public:
  void Mix(uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void Mix(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// Hashes the bit pattern of every φ cell, then the caller Rng's next draw
/// (which pins how many draws training consumed).
uint64_t PosteriorHash(const TopicModel& model, size_t vocab, Rng* rng) {
  PinHash hash;
  for (double cell : PhiCells(model, vocab)) hash.Mix(cell);
  hash.Mix(rng->NextU64());
  return hash.value();
}

/// The two-topic corpus with label menus for LLDA: most documents carry
/// their theme's label, every fourth also a shared third label, every
/// third none (latent-only menu). The other models ignore labels.
DocSet MakeLabeledTwoTopicCorpus() {
  DocSet docs = MakeTwoTopicCorpus();
  for (size_t d = 0; d < docs.num_docs(); ++d) {
    std::vector<uint32_t> labels;
    if (d % 3 != 2) labels.push_back(static_cast<uint32_t>(d % 2));
    if (d % 4 == 0) labels.push_back(2);
    docs.SetLabels(d, labels);
  }
  return docs;
}

struct PinCase {
  std::string model;
  SamplerKernel kernel;
  size_t threads;
  int merge_every;
  uint64_t hash;
};

template <typename Model, typename Config>
uint64_t TrainAndHash(const DocSet& docs, Config config, const PinCase& c) {
  config.train.sampler_kernel = c.kernel;
  config.train.train_threads = c.threads;
  config.train.merge_every = c.merge_every;
  Model model(config);
  Rng rng(7);
  const Status status = model.Train(docs, &rng);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return PosteriorHash(model, docs.vocab_size(), &rng);
}

TEST(PosteriorPinTest, EveryTrainerKernelAndThreadCountAsPinned) {
  DocSet docs = MakeLabeledTwoTopicCorpus();
  LdaConfig lda;
  lda.num_topics = 4;
  lda.train_iterations = 20;
  LldaConfig llda;
  llda.num_labels = 3;
  llda.num_latent_topics = 3;
  llda.train_iterations = 20;
  BtmConfig btm;
  btm.num_topics = 4;
  btm.train_iterations = 10;
  btm.window = 5;
  PlsaConfig plsa;
  plsa.num_topics = 4;
  plsa.train_iterations = 10;

  constexpr SamplerKernel kDense = SamplerKernel::kDense;
  constexpr SamplerKernel kSparse = SamplerKernel::kSparse;
  constexpr SamplerKernel kAlias = SamplerKernel::kAlias;
  // A mismatch means a training path changed its draws, merges or guards:
  // update a hash only for an intended change of the draw sequence.
  const std::vector<PinCase> cases = {
      {"LDA", kDense, 1, 1, 0x2ab23d33f11ae22bull},
      {"LDA", kDense, 4, 1, 0xdb7aa6cbf942c537ull},
      {"LDA", kDense, 4, 2, 0x42b0e3c06806bf81ull},
      {"LDA", kSparse, 1, 1, 0xb0e58bf1f55d7a3aull},
      {"LDA", kSparse, 4, 1, 0xbda024963097a32aull},
      {"LDA", kSparse, 4, 2, 0x85105cf3582f50c2ull},
      {"LDA", kAlias, 1, 1, 0xe0a7cbc8e0e56a98ull},
      {"LDA", kAlias, 4, 1, 0x7262a8fc256894f2ull},
      {"LDA", kAlias, 4, 2, 0xff35a6cc9dbf50d1ull},
      {"LLDA", kDense, 1, 1, 0xf8076466f684029eull},
      {"LLDA", kDense, 4, 1, 0xb44cbcf8587cb41eull},
      {"LLDA", kDense, 4, 2, 0xaf24a3d65088b87bull},
      {"LLDA", kSparse, 1, 1, 0x9515e1a90108c908ull},
      {"LLDA", kSparse, 4, 1, 0xed64cfdc3ca8414cull},
      {"LLDA", kSparse, 4, 2, 0x3a31d3e4e60bbb63ull},
      {"LLDA", kAlias, 1, 1, 0xcde61b10157d1bbcull},
      {"LLDA", kAlias, 4, 1, 0x3d7fe6c07ee0323bull},
      {"LLDA", kAlias, 4, 2, 0x4996df0a728e4c51ull},
      {"BTM", kDense, 1, 1, 0x93e879be7fc64eb7ull},
      {"BTM", kDense, 4, 1, 0x145091c0f91fb4d1ull},
      {"BTM", kDense, 4, 2, 0xb8d567fbeb755f68ull},
      {"BTM", kSparse, 1, 1, 0xbf7e121ff74adcc7ull},
      {"BTM", kSparse, 4, 1, 0xf4efea8a3d394f21ull},
      {"BTM", kSparse, 4, 2, 0xc2ca73a0bc893ec0ull},
      {"BTM", kAlias, 1, 1, 0x8cd4e94710932ea8ull},
      {"BTM", kAlias, 4, 1, 0x995386a3a1cf283dull},
      {"BTM", kAlias, 4, 2, 0x9698f72b9d54737ull},
      // PLSA has no draw kernel; its rows pin the EM loop.
      {"PLSA", kDense, 1, 1, 0xa67a491f7f2aae5eull},
      {"PLSA", kDense, 4, 1, 0x4cbeafc6401294c2ull},
  };
  for (const PinCase& c : cases) {
    uint64_t hash = 0;
    if (c.model == "LDA") {
      hash = TrainAndHash<Lda>(docs, lda, c);
    } else if (c.model == "LLDA") {
      hash = TrainAndHash<Llda>(docs, llda, c);
    } else if (c.model == "BTM") {
      hash = TrainAndHash<Btm>(docs, btm, c);
    } else {
      hash = TrainAndHash<Plsa>(docs, plsa, c);
    }
    EXPECT_EQ(hash, c.hash)
        << c.model << " kernel " << SamplerKernelName(c.kernel)
        << " at train_threads=" << c.threads
        << " merge_every=" << c.merge_every << " hashed 0x" << std::hex
        << hash;
  }
}

// ---------------------------------------------------------------------------
// Pinned fold-in: every model's InferDocument at its default settings.

/// Hashes an untrained `model`'s θ (uniform), then trains it sequentially
/// at seed 7 and hashes the θ of every query followed by the caller Rng's
/// next draw (which pins how many draws fold-in consumed).
uint64_t FoldInHash(TopicModel* model, const DocSet& docs) {
  const std::vector<TermId> cat = docs.Lookup(Words().Doc({"cat"}));
  const std::vector<std::vector<TermId>> queries = {
      {},
      cat,
      docs.Lookup(Words().Doc({"cat", "cat", "cat", "cat", "cat"})),
      AnimalQuery(docs),
      FinanceQuery(docs),
  };
  PinHash hash;
  Rng rng(7);
  const auto mix_theta = [&](const std::vector<TermId>& words) {
    const std::vector<double> theta = model->InferDocument(words, &rng);
    hash.Mix(static_cast<uint64_t>(theta.size()));
    for (double p : theta) hash.Mix(p);
  };
  mix_theta(cat);
  const Status status = model->Train(docs, &rng);
  EXPECT_TRUE(status.ok()) << model->name() << ": " << status.ToString();
  for (const std::vector<TermId>& words : queries) mix_theta(words);
  hash.Mix(rng.NextU64());
  return hash.value();
}

TEST(FoldInPinTest, EveryModelInfersAsPinned) {
  DocSet docs = MakeLabeledTwoTopicCorpus();
  LdaConfig lda;
  lda.num_topics = 4;
  lda.train_iterations = 20;
  LldaConfig llda;
  llda.num_labels = 3;
  llda.num_latent_topics = 3;
  llda.train_iterations = 20;
  HdpConfig hdp;
  hdp.train_iterations = 20;
  HldaConfig hlda;
  hlda.train_iterations = 20;
  BtmConfig btm;
  btm.num_topics = 4;
  btm.train_iterations = 10;
  btm.window = 5;
  PlsaConfig plsa;
  plsa.num_topics = 4;
  plsa.train_iterations = 10;

  Lda lda_model(lda);
  Llda llda_model(llda);
  Hdp hdp_model(hdp);
  Hlda hlda_model(hlda);
  Btm btm_model(btm);
  Plsa plsa_model(plsa);
  // A mismatch means a fold-in changed its draws or its arithmetic.
  const std::vector<std::pair<TopicModel*, uint64_t>> cases = {
      {&lda_model, 0xef9bf0258ece4235ull},
      {&llda_model, 0xab8a16d7bfa6caa2ull},
      {&hdp_model, 0x3a18123b34c6ca6eull},
      {&hlda_model, 0x821fd333736e20f5ull},
      {&btm_model, 0x58a0cb2064f03bf2ull},
      {&plsa_model, 0x75b7e72be9f53e44ull},
  };
  for (const auto& [model, pinned] : cases) {
    const uint64_t hash = FoldInHash(model, docs);
    EXPECT_EQ(hash, pinned)
        << model->name() << " fold-in hashed 0x" << std::hex << hash;
  }
}

// ---------------------------------------------------------------------------
// Parallel training through the real samplers.

TEST(ParallelTrainTest, LdaParallelIsDeterministicAndWellFormed) {
  DocSet docs = MakeTwoTopicCorpus();
  LdaConfig config;
  config.num_topics = 4;
  config.train_iterations = 40;
  config.train.train_threads = 4;
  std::vector<double> first;
  for (int run = 0; run < 2; ++run) {
    Lda lda(config);
    Rng rng(9);
    ASSERT_TRUE(lda.Train(docs, &rng).ok());
    std::vector<double> cells = PhiCells(lda, docs.vocab_size());
    for (double cell : cells) {
      ASSERT_GT(cell, 0.0);
      ASSERT_LT(cell, 1.0);
    }
    if (run == 0) {
      first = cells;
    } else {
      EXPECT_EQ(first, cells);  // same (seed, threads, merge_every)
    }
  }
}

TEST(ParallelTrainTest, BtmParallelIsDeterministicAndWellFormed) {
  DocSet docs = MakeTwoTopicCorpus();
  BtmConfig config;
  config.num_topics = 4;
  config.train_iterations = 20;
  config.window = 5;
  config.train.train_threads = 4;
  std::vector<double> first;
  for (int run = 0; run < 2; ++run) {
    Btm btm(config);
    Rng rng(9);
    ASSERT_TRUE(btm.Train(docs, &rng).ok());
    std::vector<double> cells = PhiCells(btm, docs.vocab_size());
    if (run == 0) {
      first = cells;
    } else {
      EXPECT_EQ(first, cells);
    }
  }
}

TEST(ParallelTrainTest, CancelPropagatesThroughParallelPath) {
  DocSet docs = MakeTwoTopicCorpus();
  LdaConfig config;
  config.num_topics = 4;
  config.train_iterations = 500;
  config.train.train_threads = 4;
  resilience::CancelToken token;
  token.Cancel();
  resilience::CancelContext cancel;
  cancel.token = &token;
  config.cancel = &cancel;
  Lda lda(config);
  Rng rng(1);
  EXPECT_FALSE(lda.Train(docs, &rng).ok());
}

}  // namespace
}  // namespace microrec::topic
