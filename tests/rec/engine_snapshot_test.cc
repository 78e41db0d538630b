// Warm-start equivalence: for every model family, an engine restored from
// SaveSnapshot() must score bit-identically (EXPECT_EQ on doubles, no
// tolerance) to the engine that trained — the contract DESIGN.md §8 makes
// for the train-once / recommend-many path. Also exercises the engine-level
// corruption matrix: a truncated, bit-flipped, version-skewed or
// identity-mismatched snapshot must surface as a Status, never as silently
// adopted state.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "rec/engine.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "temp_dir.h"

namespace microrec::rec {
namespace {

using corpus::Source;
using corpus::TweetId;
using corpus::UserId;

// Same miniature cats-vs-stocks world as engine_test.cc: ego retweets cat
// posts, a rival retweets stock posts, so the pooled training corpus
// covers both themes.
class EngineSnapshotFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ego_ = world_.AddUser("ego");
    cats_ = world_.AddUser("cats_feed");
    stocks_ = world_.AddUser("stocks_feed");
    ASSERT_TRUE(world_.graph().AddFollow(ego_, cats_).ok());
    ASSERT_TRUE(world_.graph().AddFollow(ego_, stocks_).ok());

    const char* cat_texts[] = {
        "fluffy cat naps on warm windowsill",
        "my cat chases the red laser dot",
        "cute kitten plays with yarn ball cat",
        "cat purrs softly during long nap",
    };
    const char* stock_texts[] = {
        "stocks rally as markets open higher",
        "bond yields fall after rate decision",
        "tech stocks lead the market rebound",
        "investors rotate into value funds",
    };
    corpus::Timestamp t = 0;
    for (const char* text : cat_texts) {
      cat_posts_.push_back(*world_.AddTweet(cats_, t += 10, text));
    }
    for (const char* text : stock_texts) {
      stock_posts_.push_back(*world_.AddTweet(stocks_, t += 10, text));
    }
    rival_ = world_.AddUser("rival");
    ASSERT_TRUE(world_.graph().AddFollow(rival_, stocks_).ok());
    for (int i = 0; i < 3; ++i) {
      (void)*world_.AddTweet(ego_, t += 10, "", cat_posts_[i]);
      (void)*world_.AddTweet(rival_, t += 10, "", stock_posts_[i]);
    }
    test_cat_ = *world_.AddTweet(cats_, t += 10,
                                 "my sleepy cat naps in the warm sun");
    test_stock_ = *world_.AddTweet(
        stocks_, t += 10, "bond yields rise as tech stocks slip today");
    world_.Finalize();

    pre_ = std::make_unique<PreprocessedCorpus>(
        world_, std::vector<TweetId>{}, /*stop_top_k=*/0);

    train_.docs = world_.RetweetsOf(ego_);
    train_.positive.assign(train_.docs.size(), true);
    rival_train_.docs = world_.RetweetsOf(rival_);
    rival_train_.positive.assign(rival_train_.docs.size(), true);

    users_ = {ego_, rival_};
    ctx_.pre = pre_.get();
    ctx_.source = Source::kR;
    ctx_.users = &users_;
    ctx_.train_set = [this](UserId u) -> const corpus::LabeledTrainSet& {
      return u == ego_ ? train_ : rival_train_;
    };
    ctx_.seed = 11;
    ctx_.iteration_scale = 0.1;
    ctx_.llda_min_hashtag_count = 1;

    dir_ = testutil::UniqueTempDir("microrec_engine_snap");
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// A small but representative configuration per model family.
  static ModelConfig SmallConfig(ModelKind kind) {
    ModelConfig config;
    config.kind = kind;
    switch (kind) {
      case ModelKind::kTN:
        config.bag.kind = bag::NgramKind::kToken;
        config.bag.n = 1;
        config.bag.weighting = bag::Weighting::kTFIDF;
        config.bag.aggregation = bag::Aggregation::kCentroid;
        config.bag.similarity = bag::BagSimilarity::kCosine;
        break;
      case ModelKind::kCN:
        config.bag.kind = bag::NgramKind::kChar;
        config.bag.n = 3;
        config.bag.weighting = bag::Weighting::kTF;
        config.bag.aggregation = bag::Aggregation::kSum;
        config.bag.similarity = bag::BagSimilarity::kGeneralizedJaccard;
        break;
      case ModelKind::kTNG:
        config.graph.kind = bag::NgramKind::kToken;
        config.graph.n = 1;
        config.graph.similarity = graph::GraphSimilarity::kValue;
        break;
      case ModelKind::kCNG:
        config.graph.kind = bag::NgramKind::kChar;
        config.graph.n = 3;
        config.graph.similarity = graph::GraphSimilarity::kContainment;
        break;
      case ModelKind::kHLDA:
        config.topic.iterations = 300;
        config.topic.levels = 3;
        config.topic.alpha = 2.0;
        config.topic.beta = 0.1;
        config.topic.pooling = corpus::Pooling::kNone;
        break;
      default:  // LDA / LLDA / HDP / BTM / PLSA
        config.topic.num_topics = 4;
        config.topic.iterations = 500;
        config.topic.pooling = corpus::Pooling::kNone;
        config.topic.beta = 0.01;
        break;
    }
    return config;
  }

  std::string Path(const std::string& name) const {
    return dir_ + "/" + name + ".snap";
  }

  /// Trains `config` under `ctx`, saves, restores into a fresh engine, and
  /// asserts both test tweets score bit-identically.
  void ExpectBitIdenticalRoundTrip(const ModelConfig& config,
                                   const EngineContext& ctx,
                                   const std::string& tag) {
    SCOPED_TRACE(tag);
    auto trained = MakeEngine(config);
    ASSERT_TRUE(trained->Prepare(ctx).ok());
    ASSERT_TRUE(trained->BuildUser(ego_, train_, ctx).ok());
    const double cat = trained->Score(ego_, test_cat_, ctx);
    const double stock = trained->Score(ego_, test_stock_, ctx);

    const std::string path = Path(tag);
    ASSERT_TRUE(trained->SaveSnapshot(path, ctx).ok());

    auto restored = MakeEngine(config);
    Status load = restored->LoadSnapshot(path, ctx);
    ASSERT_TRUE(load.ok()) << load.ToString();
    // BuildUser must be a no-op for a persisted user.
    ASSERT_TRUE(restored->BuildUser(ego_, train_, ctx).ok());
    EXPECT_EQ(restored->Score(ego_, test_cat_, ctx), cat);
    EXPECT_EQ(restored->Score(ego_, test_stock_, ctx), stock);
  }

  corpus::Corpus world_;
  std::unique_ptr<PreprocessedCorpus> pre_;
  corpus::LabeledTrainSet train_, rival_train_;
  std::vector<UserId> users_;
  EngineContext ctx_;
  UserId ego_ = 0, cats_ = 0, stocks_ = 0, rival_ = 0;
  std::vector<TweetId> cat_posts_, stock_posts_;
  TweetId test_cat_ = 0, test_stock_ = 0;
  std::string dir_;
};

TEST_F(EngineSnapshotFixture, AllNineModelsRoundTripBitIdentically) {
  for (ModelKind kind : kEvaluatedModels) {
    ExpectBitIdenticalRoundTrip(SmallConfig(kind), ctx_,
                                std::string(ModelKindName(kind)));
  }
}

TEST_F(EngineSnapshotFixture, PlsaRoundTripsBitIdentically) {
  ExpectBitIdenticalRoundTrip(SmallConfig(ModelKind::kPLSA), ctx_, "PLSA");
}

TEST_F(EngineSnapshotFixture, TopicModelsRoundTripAcrossSourcesAndSeeds) {
  // The identity header binds (source, seed); the equivalence must hold at
  // every binding, not just the default one.
  for (Source source : {Source::kR, Source::kT}) {
    for (uint64_t seed : {uint64_t{11}, uint64_t{12}}) {
      EngineContext ctx = ctx_;
      ctx.source = source;
      ctx.seed = seed;
      std::string tag = "LDA-" + std::string(corpus::SourceName(source)) +
                        "-seed" + std::to_string(seed);
      ExpectBitIdenticalRoundTrip(SmallConfig(ModelKind::kLDA), ctx, tag);
    }
  }
}

TEST_F(EngineSnapshotFixture, TopicModelsRoundTripAcrossTrainThreads) {
  // train_threads is NOT part of snapshot identity (DESIGN.md §10): a model
  // trained with any thread count must save and restore bit-identically to
  // its own in-memory state. The round trip is exercised at both the
  // sequential path and the sharded path.
  for (size_t train_threads : {size_t{1}, size_t{4}}) {
    for (ModelKind kind : {ModelKind::kLDA, ModelKind::kBTM}) {
      EngineContext ctx = ctx_;
      ctx.train_threads = train_threads;
      std::string tag = std::string(ModelKindName(kind)) + "-threads" +
                        std::to_string(train_threads);
      ExpectBitIdenticalRoundTrip(SmallConfig(kind), ctx, tag);
    }
  }
}

TEST_F(EngineSnapshotFixture, ParallelTrainedSnapshotLoadsIntoSequentialCtx) {
  // The snapshot header binds (source, seed) but not train_threads: a
  // 4-thread-trained snapshot must load under a sequential context and
  // reproduce the saved model's scores exactly.
  EngineContext par_ctx = ctx_;
  par_ctx.train_threads = 4;
  ModelConfig config = SmallConfig(ModelKind::kLDA);
  auto trained = MakeEngine(config);
  ASSERT_TRUE(trained->Prepare(par_ctx).ok());
  ASSERT_TRUE(trained->BuildUser(ego_, train_, par_ctx).ok());
  const double cat = trained->Score(ego_, test_cat_, par_ctx);
  const double stock = trained->Score(ego_, test_stock_, par_ctx);
  const std::string path = Path("cross_threads");
  ASSERT_TRUE(trained->SaveSnapshot(path, par_ctx).ok());

  auto restored = MakeEngine(config);
  Status load = restored->LoadSnapshot(path, ctx_);  // train_threads == 1
  ASSERT_TRUE(load.ok()) << load.ToString();
  ASSERT_TRUE(restored->BuildUser(ego_, train_, ctx_).ok());
  EXPECT_EQ(restored->Score(ego_, test_cat_, ctx_), cat);
  EXPECT_EQ(restored->Score(ego_, test_stock_, ctx_), stock);
}

TEST_F(EngineSnapshotFixture, PrepareWarmStartsFromSnapshot) {
  ModelConfig config = SmallConfig(ModelKind::kBTM);
  auto trained = MakeEngine(config);
  ASSERT_TRUE(trained->Prepare(ctx_).ok());
  ASSERT_TRUE(trained->BuildUser(ego_, train_, ctx_).ok());
  const double cat = trained->Score(ego_, test_cat_, ctx_);
  const std::string path = Path("warm");
  ASSERT_TRUE(trained->SaveSnapshot(path, ctx_).ok());

  EngineContext warm = ctx_;
  warm.warm_start_snapshot = path;
  auto restored = MakeEngine(config);
  ASSERT_TRUE(restored->Prepare(warm).ok());
  ASSERT_TRUE(restored->BuildUser(ego_, train_, warm).ok());
  EXPECT_EQ(restored->Score(ego_, test_cat_, warm), cat);
}

TEST_F(EngineSnapshotFixture, PrepareFallsBackToColdTrainOnMissingSnapshot) {
  EngineContext warm = ctx_;
  warm.warm_start_snapshot = Path("never_written");
  auto engine = MakeEngine(SmallConfig(ModelKind::kTN));
  ASSERT_TRUE(engine->Prepare(warm).ok());
  ASSERT_TRUE(engine->BuildUser(ego_, train_, warm).ok());
  EXPECT_GT(engine->Score(ego_, test_cat_, warm),
            engine->Score(ego_, test_stock_, warm));
}

TEST_F(EngineSnapshotFixture, UserlessBagAndGraphSnapshotsOpenAndBuildCold) {
  // An engine without users has looked up no gram table; its snapshot
  // still records the dictionary of the corpus it was saved over.
  for (ModelKind kind : {ModelKind::kTN, ModelKind::kTNG}) {
    const std::string name(ModelKindName(kind));
    SCOPED_TRACE(name);
    const ModelConfig config = SmallConfig(kind);
    auto userless = MakeEngine(config);
    ASSERT_TRUE(userless->Prepare(ctx_).ok());
    const std::string path = Path("userless-" + name);
    ASSERT_TRUE(userless->SaveSnapshot(path, ctx_).ok());

    auto cold = MakeEngine(config);
    ASSERT_TRUE(cold->Prepare(ctx_).ok());
    ASSERT_TRUE(cold->BuildUser(ego_, train_, ctx_).ok());
    for (bool mapped : {false, true}) {
      SCOPED_TRACE(mapped ? "mmap" : "resident");
      auto restored = MakeEngine(config);
      Status open = mapped ? restored->OpenMapped(path, ctx_)
                           : restored->LoadSnapshot(path, ctx_);
      ASSERT_TRUE(open.ok()) << open.ToString();
      ASSERT_TRUE(restored->BuildUser(ego_, train_, ctx_).ok());  // cold
      EXPECT_EQ(restored->Score(ego_, test_cat_, ctx_),
                cold->Score(ego_, test_cat_, ctx_));
    }
  }
}

// A TN user row: `grams`, then no document frequencies and a profile of
// `terms` with weight 1 each.
std::string BagRow(const std::vector<uint64_t>& grams,
                   const std::vector<uint64_t>& terms = {}) {
  std::string row;
  snapshot::PutDeltaIds(&row, grams);
  snapshot::PutVarint(&row, 0);  // document frequencies
  snapshot::PutVarint(&row, 0);  // train doc count
  snapshot::PutDeltaIds(&row, terms);
  snapshot::PutVarint(&row, terms.size());  // weights
  snapshot::Encoder weights;
  for (size_t e = 0; e < terms.size(); ++e) weights.PutF64(1.0);
  return row + weights.bytes();
}

// A TNG user row over grams {0, 1, 2}: `keys` with weight 1 each.
std::string GraphRow(const std::vector<uint64_t>& keys) {
  std::string row;
  snapshot::PutDeltaIds(&row, {0, 1, 2});
  snapshot::PutDeltaIds(&row, keys);
  snapshot::PutVarint(&row, keys.size());  // weights
  snapshot::Encoder weights;
  for (size_t e = 0; e < keys.size(); ++e) weights.PutF64(1.0);
  return row + weights.bytes();
}

// ---- Engine-level corruption matrix (TN keeps it fast; the container
// layer is shared by every family). ----

class EngineSnapshotCorruptionTest : public EngineSnapshotFixture {
 protected:
  void SetUp() override {
    EngineSnapshotFixture::SetUp();
    config_ = SmallConfig(ModelKind::kTN);
    auto engine = MakeEngine(config_);
    ASSERT_TRUE(engine->Prepare(ctx_).ok());
    ASSERT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
    good_path_ = Path("good");
    ASSERT_TRUE(engine->SaveSnapshot(good_path_, ctx_).ok());
    std::ifstream in(good_path_, std::ios::binary);
    good_bytes_.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    ASSERT_GT(good_bytes_.size(), snapshot::kMagicSize);
  }

  Status LoadBytes(const std::string& bytes, const std::string& name) {
    const std::string path = Path(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    auto engine = MakeEngine(config_);
    return engine->LoadSnapshot(path, ctx_);
  }

  /// Writes `row` as ego's only row under the header of a snapshot of
  /// `config`, and expects both residencies to reject it with
  /// InvalidArgument naming the row (`row_label` and ego's id) and `detail`:
  /// a resident open at once, a mapped one when the row is first decoded.
  void ExpectRowRejected(const ModelConfig& config,
                         const std::string& row_label, const std::string& row,
                         const std::string& detail) {
    Result<snapshot::File> good = snapshot::File::Load(SaveBuilt(config));
    ASSERT_TRUE(good.ok());
    snapshot::TableBuilder table;
    ASSERT_TRUE(table.AddRow(ego_, row).ok());
    snapshot::Writer writer(good->header());
    writer.AddSection("users", std::move(table).Finish());
    const std::string path = Path("bad_row");
    ASSERT_TRUE(writer.Commit(path).ok());
    const std::string row_name = row_label + " " + std::to_string(ego_);

    auto resident = MakeEngine(config);
    Status st = resident->LoadSnapshot(path, ctx_);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(row_name), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find(detail), std::string::npos) << st.ToString();

    auto mapped = MakeEngine(config);
    ASSERT_TRUE(mapped->OpenMapped(path, ctx_).ok());
    st = mapped->BuildUser(ego_, train_, ctx_);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(row_name), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find(detail), std::string::npos) << st.ToString();
  }

  /// Trains and saves `config` with ego built; returns the snapshot's
  /// path.
  std::string SaveBuilt(const ModelConfig& config) {
    auto engine = MakeEngine(config);
    EXPECT_TRUE(engine->Prepare(ctx_).ok());
    EXPECT_TRUE(engine->BuildUser(ego_, train_, ctx_).ok());
    const std::string path = Path(std::string(ModelKindName(config.kind)));
    EXPECT_TRUE(engine->SaveSnapshot(path, ctx_).ok());
    return path;
  }

  /// Replaces an LDA snapshot's vocab section with `grams` and expects both
  /// residencies to reject it with InvalidArgument naming the section and
  /// `detail`: a resident open at once, a mapped one at its first fold-in,
  /// which the build of a user absent from the snapshot (rival) runs.
  void ExpectVocabRejected(const std::vector<uint64_t>& grams,
                           const std::string& detail) {
    Result<snapshot::File> good =
        snapshot::File::Load(SaveBuilt(SmallConfig(ModelKind::kLDA)));
    ASSERT_TRUE(good.ok());
    snapshot::Writer writer(good->header());
    for (const snapshot::Section& section : good->sections()) {
      if (section.name == "header") continue;
      std::string payload = section.payload;
      if (section.name == "vocab") {
        payload.clear();
        snapshot::PutDeltaIds(&payload, grams);
      }
      writer.AddSection(section.name, std::move(payload));
    }
    const std::string path = Path("bad_vocab");
    ASSERT_TRUE(writer.Commit(path).ok());
    const ModelConfig lda = SmallConfig(ModelKind::kLDA);
    const std::string section = "section \"vocab\"";

    auto resident = MakeEngine(lda);
    Status st = resident->LoadSnapshot(path, ctx_);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(section), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find(detail), std::string::npos) << st.ToString();

    auto mapped = MakeEngine(lda);
    ASSERT_TRUE(mapped->OpenMapped(path, ctx_).ok());
    ASSERT_TRUE(mapped->BuildUser(ego_, train_, ctx_).ok());  // persisted
    st = mapped->BuildUser(rival_, rival_train_, ctx_);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(section), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find(detail), std::string::npos) << st.ToString();
  }

  ModelConfig config_;
  std::string good_path_;
  std::string good_bytes_;
};

TEST_F(EngineSnapshotCorruptionTest, TruncationIsAnError) {
  Status st = LoadBytes(good_bytes_.substr(0, good_bytes_.size() / 2),
                        "truncated");
  EXPECT_FALSE(st.ok());
}

TEST_F(EngineSnapshotCorruptionTest, BitFlipIsDataLoss) {
  std::string bytes = good_bytes_;
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
  Status st = LoadBytes(bytes, "bitflip");
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

TEST_F(EngineSnapshotCorruptionTest, VersionSkewIsFailedPrecondition) {
  // The retired "microrec.snap/1\n" and a future "/3\n" alike: retrain.
  for (char version : {'1', '3'}) {
    SCOPED_TRACE(version);
    std::string bytes = good_bytes_;
    bytes[14] = version;
    Status st = LoadBytes(bytes, std::string("skew") + version);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_NE(st.message().find("reader understands microrec.snap/2"),
              std::string::npos)
        << st.ToString();
  }
}

TEST_F(EngineSnapshotCorruptionTest, SeedMismatchIsFailedPrecondition) {
  auto engine = MakeEngine(config_);
  EngineContext other = ctx_;
  other.seed = 12;
  Status st = engine->LoadSnapshot(good_path_, other);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_NE(st.message().find("seed"), std::string::npos) << st.ToString();
}

TEST_F(EngineSnapshotCorruptionTest, VocabFingerprintMismatchRejected) {
  // Re-author a TN and an LDA container with a perturbed vocabulary
  // fingerprint but valid CRCs: only the identity check can catch this one.
  const std::string lda_path = SaveBuilt(SmallConfig(ModelKind::kLDA));
  for (const auto& [config, good_path] :
       {std::pair(config_, good_path_),
        std::pair(SmallConfig(ModelKind::kLDA), lda_path)}) {
    SCOPED_TRACE(ModelKindName(config.kind));
    Result<snapshot::File> file = snapshot::File::Load(good_path);
    ASSERT_TRUE(file.ok());
    snapshot::Header header = file->header();
    header.vocab_fingerprint ^= 1;
    snapshot::Writer writer(header);
    for (const snapshot::Section& section : file->sections()) {
      if (section.name != "header") {
        writer.AddSection(section.name, section.payload);
      }
    }
    const std::string path = Path("vocab_mismatch");
    ASSERT_TRUE(writer.Commit(path).ok());

    // Both residencies check it at open, before any row or section decodes.
    for (bool mapped : {false, true}) {
      SCOPED_TRACE(mapped ? "mmap" : "resident");
      auto engine = MakeEngine(config);
      Status st = mapped ? engine->OpenMapped(path, ctx_)
                         : engine->LoadSnapshot(path, ctx_);
      EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
      EXPECT_NE(st.message().find("fingerprint"), std::string::npos)
          << st.ToString();
    }
  }
}

TEST_F(EngineSnapshotCorruptionTest, GramIdOutsideTheDictionaryRejected) {
  // TN rows and the LDA vocab section index the same (token, 1) table.
  const uint64_t size =
      pre_->Grams(bag::NgramKind::kToken, 1).dictionary().size();
  const std::string detail = "gram " + std::to_string(size) +
                             " is outside the dictionary of " +
                             std::to_string(size);
  ExpectRowRejected(config_, "bag user", BagRow({0, size}), detail);
  ExpectVocabRejected({0, size}, detail);
}

TEST_F(EngineSnapshotCorruptionTest, RepeatedGramIdRejected) {
  ExpectRowRejected(config_, "bag user", BagRow({3, 1, 3}),
                    "repeats gram 3");
  ExpectVocabRejected({3, 1, 3}, "repeats gram 3");
}

TEST_F(EngineSnapshotCorruptionTest, GraphEdgeKeysOutOfOrderRejected) {
  // A graph row is adopted as saved and scored by walking its keys in
  // order, so a descending pair or a repeated key is refused, not re-sorted
  // or summed.
  const ModelConfig tng = SmallConfig(ModelKind::kTNG);
  const uint64_t a = graph::EdgeKey(0, 1);
  const uint64_t b = graph::EdgeKey(0, 2);
  for (const std::vector<uint64_t>& keys :
       {std::vector<uint64_t>{b, a}, std::vector<uint64_t>{a, a}}) {
    SCOPED_TRACE(keys[0] == keys[1] ? "repeated" : "descending");
    ExpectRowRejected(tng, "graph user", GraphRow(keys),
                      "edge keys are not strictly ascending at edge 1");
  }
}

TEST_F(EngineSnapshotCorruptionTest, BagProfileTermsOutOfOrderRejected) {
  // A bag profile is saved in ascending term order, each term once, so a
  // descending pair or a repeated term is refused, not re-sorted or summed.
  for (const std::vector<uint64_t>& terms :
       {std::vector<uint64_t>{1, 0}, std::vector<uint64_t>{2, 2}}) {
    SCOPED_TRACE(terms[0] == terms[1] ? "repeated" : "descending");
    ExpectRowRejected(config_, "bag user", BagRow({0, 1, 2}, terms),
                      "vector term ids are not strictly ascending at entry 1");
  }
}

TEST_F(EngineSnapshotCorruptionTest, TopicVocabLargerThanTheModelRejected) {
  // Every gram of the dictionary, each inside it and none repeated, but
  // more than the words the model was trained on (the test tweets bring
  // words no train tweet has): a fold-in would index phi past its end.
  const size_t size =
      pre_->Grams(bag::NgramKind::kToken, 1).dictionary().size();
  std::vector<uint64_t> every_gram(size);
  std::iota(every_gram.begin(), every_gram.end(), 0);
  ExpectVocabRejected(every_gram, "holds " + std::to_string(size) +
                                      " grams for a model of ");
}

}  // namespace
}  // namespace microrec::rec
