#include "rec/engine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "bag/bag_model.h"
#include "corpus/sources.h"
#include "graph/graph_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rec/llda_labels.h"
#include "resilience/fault.h"
#include "snapshot/codec.h"
#include "snapshot/mapped.h"
#include "snapshot/snapshot.h"
#include "topic/btm.h"
#include "topic/hdp.h"
#include "topic/hlda.h"
#include "topic/lda.h"
#include "topic/llda.h"
#include "topic/plsa.h"
#include "topic/topic_model.h"

namespace microrec::rec {

namespace {

using corpus::TweetId;
using corpus::UserId;

int ScaledIterations(int iterations, double scale) {
  return std::max(5, static_cast<int>(static_cast<double>(iterations) *
                                      scale));
}

// Scoring-latency histogram shared by every engine family (ETime's unit of
// work); per-family attribution comes from the trace spans around scoring.
obs::Histogram* ScoreHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("rec.engine.score_seconds");
  return histogram;
}

obs::Histogram* BuildUserHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "rec.engine.build_user_seconds");
  return histogram;
}

obs::Counter* ScoreCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("rec.engine.scores");
  return counter;
}

// Bag and graph candidates that share nothing with the user model, by
// construction (none of their grams in the user's vocabulary, or an empty
// bag profile) or by the bag kernel's support check, score exactly 0
// without a similarity; run reports read this count as the ranker's
// pruning rate.
obs::Counter* PrunedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("rec.ranker.pruned");
  return counter;
}

// Snapshot traffic counters (warm starts, opens, misses, row errors): off
// the scoring path, so looked up by name.
void IncrementCounter(const char* name) {
  obs::MetricsRegistry::Global().GetCounter(name)->Increment();
}

// ---- Shared snapshot plumbing. ----

// The one writer: every family saves a microrec.snap/2 container.
snapshot::Writer MakeWriter(const ModelConfig& config, const EngineContext& ctx,
                            uint64_t vocab_fingerprint) {
  return snapshot::Writer(
      {.model = std::string(ModelKindName(config.kind)),
       .source = std::string(corpus::SourceName(ctx.source)),
       .seed = ctx.seed,
       .iteration_scale = ctx.iteration_scale,
       .config_fingerprint = config.Fingerprint(),
       .vocab_fingerprint = vocab_fingerprint});
}

Status ReadOnly(const std::string& path) {
  return Status::FailedPrecondition(
      "mapped engines are read-only; cannot save snapshot to " + path);
}

// The corpus gram table `config` fits and scores on. Every family's
// persisted ids index its dictionary.
const GramTable& TableOf(const ModelConfig& config, const EngineContext& ctx) {
  const auto [kind, n] = config.Featurization();
  return ctx.pre->Grams(kind, n);
}

// The one open path of every family. It hits the `snapshot.load` fault site
// once per open in either residency, maps the file, and verifies its
// identity against `ctx` and its vocabulary fingerprint against `grams`,
// the dictionary its ids index. A resident open first verifies every
// section's frame CRC, as the whole-file reader does, so a corrupt byte
// fails the open before any state is adopted.
Result<std::shared_ptr<const snapshot::MappedFile>> OpenSnapshotFile(
    const std::string& path, const ModelConfig& config,
    const EngineContext& ctx, const GramTable& grams, ServeMode residency) {
  MICROREC_FAULT_POINT(resilience::kSiteSnapshotLoad);
  Result<snapshot::MappedFile> file = snapshot::MappedFile::Open(path);
  if (!file.ok()) return file.status();
  if (residency == ServeMode::kResident) {
    MICROREC_RETURN_IF_ERROR(file->VerifyChecksums());
  }
  MICROREC_RETURN_IF_ERROR(snapshot::VerifyIdentity(
      file->header(), file->origin(), std::string(ModelKindName(config.kind)),
      std::string(corpus::SourceName(ctx.source)), ctx.seed,
      ctx.iteration_scale, config.Fingerprint()));
  if (file->header().vocab_fingerprint != grams.fingerprint()) {
    return Status::FailedPrecondition(
        file->origin() + ": vocabulary fingerprint mismatch (snapshot " +
        std::to_string(file->header().vocab_fingerprint) + ", computed " +
        std::to_string(grams.fingerprint()) + ")");
  }
  IncrementCounter(residency == ServeMode::kMmap ? "snapshot.mapped_opens"
                                                  : "snapshot.loads");
  return std::make_shared<const snapshot::MappedFile>(std::move(*file));
}

// A whole section's logical bytes, kept in `*bytes`, behind a decoder whose
// offsets point into the file.
Result<snapshot::Decoder> ReadSection(const snapshot::MappedFile& file,
                                      const char* name, std::string* bytes) {
  Result<const snapshot::MappedFile::MappedSection*> section = file.Find(name);
  if (!section.ok()) return section.status();
  MICROREC_RETURN_IF_ERROR(file.ReadSection(name, bytes));
  return snapshot::Decoder(*bytes, (*section)->payload_offset);
}

// Prepare()'s warm start. A missing snapshot is a counted miss that falls
// back to cold training; any other failure propagates.
Status TryWarmStart(Engine* engine, const EngineContext& ctx, bool* warmed) {
  *warmed = false;
  if (ctx.warm_start_snapshot.empty()) return Status::OK();
  Status loaded = engine->WarmStart(ctx.warm_start_snapshot, ctx);
  if (loaded.code() == StatusCode::kNotFound) {
    IncrementCounter("snapshot.warm_miss");
    return Status::OK();
  }
  *warmed = loaded.ok();
  return loaded;
}

void SaveRngState(const Rng& rng, snapshot::Encoder* enc) {
  Rng::State state = rng.SaveState();
  enc->PutU64(state.state);
  enc->PutU64(state.inc);
  enc->PutU8(state.has_cached_normal ? 1 : 0);
  enc->PutF64(state.cached_normal);
}

Status LoadRngState(snapshot::Decoder* dec, Rng* rng) {
  Rng::State state;
  uint8_t has_cached = 0;
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&state.state));
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&state.inc));
  MICROREC_RETURN_IF_ERROR(dec->ReadU8(&has_cached));
  MICROREC_RETURN_IF_ERROR(dec->ReadF64(&state.cached_normal));
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  state.has_cached_normal = has_cached != 0;
  rng->RestoreState(state);
  return Status::OK();
}

// ---- Row field codecs. ----
//
// Rows are self-contained byte strings built from snapshot/codec.h
// primitives: varint lengths/counts, zigzag-delta id sequences, and raw
// little-endian f64s for weights (weights are incompressible entropy; ids
// and counts are where the size lives).

void PutRowF64s(std::string* out, const std::vector<double>& values) {
  snapshot::PutVarint(out, values.size());
  snapshot::Encoder enc;
  for (double v : values) enc.PutF64(v);
  out->append(enc.bytes());
}

void PutRowVarints(std::string* out, const std::vector<uint32_t>& values) {
  snapshot::PutVarint(out, values.size());
  for (uint32_t v : values) snapshot::PutVarint(out, v);
}

// Reads one row's fields in order. Every error is kDataLoss naming the row
// (`origin` names the file, table and row id) and the row-relative offset.
class RowReader {
 public:
  RowReader(std::string_view row, const std::string& origin)
      : row_(row), origin_(origin) {}

  Status Varint(uint64_t* value, const char* what) {
    return snapshot::GetVarint(row_, &pos_, value, 0, origin_, what);
  }

  Status DeltaIds(std::vector<uint64_t>* ids, const char* what) {
    return snapshot::GetDeltaIds(row_, &pos_, ids, row_.size(), 0, origin_,
                                 what);
  }

  Status F64s(std::vector<double>* values, const char* what) {
    uint64_t count = 0;
    MICROREC_RETURN_IF_ERROR(ReadCount(&count, 8, what));
    values->resize(static_cast<size_t>(count));
    snapshot::Decoder dec(row_.substr(pos_));  // ReadCount() bounded it
    for (double& v : *values) MICROREC_RETURN_IF_ERROR(dec.ReadF64(&v));
    pos_ += 8 * values->size();
    return Status::OK();
  }

  Status U32s(std::vector<uint32_t>* values, const char* what) {
    uint64_t count = 0;
    MICROREC_RETURN_IF_ERROR(ReadCount(&count, 1, what));
    values->clear();
    values->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t v = 0;
      MICROREC_RETURN_IF_ERROR(Varint(&v, what));
      if (v > UINT32_MAX) {
        return Loss(std::string(what) + " value " + std::to_string(v) +
                    " exceeds 32 bits");
      }
      values->push_back(static_cast<uint32_t>(v));
    }
    return Status::OK();
  }

  Status End() const {
    if (pos_ == row_.size()) return Status::OK();
    return Loss(std::to_string(row_.size() - pos_) + " trailing bytes in row");
  }

 private:
  // An element count, bounded by what the rest of the row can hold at
  // `min_bytes` per element, so a flipped count cannot drive an allocation.
  Status ReadCount(uint64_t* count, size_t min_bytes, const char* what) {
    MICROREC_RETURN_IF_ERROR(Varint(count, what));
    if (*count <= (row_.size() - pos_) / min_bytes) return Status::OK();
    return Loss(std::string(what) + " count " + std::to_string(*count) +
                " overruns the row");
  }

  Status Loss(const std::string& message) const {
    return Status::DataLoss(origin_ + ":offset " + std::to_string(pos_) +
                            ": " + message);
  }

  std::string_view row_;
  const std::string& origin_;
  size_t pos_ = 0;
};

// Reads persisted gram ids (a bag or graph row's leading grams, or the
// topic vocab section) into `*vocab` in local-id order, so the local ids
// come back as saved: each must be an id of `table`, once.
Status DecodeGrams(RowReader* reader, const GramTable& table,
                   const std::string& origin, bag::IdVocabulary* vocab) {
  std::vector<uint64_t> grams;
  MICROREC_RETURN_IF_ERROR(reader->DeltaIds(&grams, "grams"));
  for (uint64_t gram : grams) {
    if (gram >= table.size()) {
      return Status::InvalidArgument(
          origin + " gram " + std::to_string(gram) +
          " is outside the dictionary of " + std::to_string(table.size()));
    }
    const size_t local = vocab->size();
    if (vocab->Intern(static_cast<text::TermId>(gram)) != local) {
      return Status::InvalidArgument(origin + " repeats gram " +
                                     std::to_string(gram));
    }
  }
  return Status::OK();
}

std::vector<uint64_t> PersistedGrams(const bag::IdVocabulary& vocab) {
  return {vocab.grams().begin(), vocab.grams().end()};
}

// ---- The row store: the decoded rows of one persisted table. ----
//
// An eager open decodes every row up front, and the mapping can then be
// dropped. A lazy (mmap) open keeps the MappedTable and decodes a row the
// first time it is asked for, behind an LRU of `capacity` rows. Rows the
// engine puts itself (cold builds, fresh inferences) are pinned: the map
// cannot re-materialize them. Eviction bounds memory only; a hit or a miss
// never changes a score, because re-materialization decodes the same
// bytes. A lazy store is for one thread at a time; an eager store's Find()
// only reads, so concurrent lookups are safe while nothing puts or erases.
template <typename Key, typename Row>
class RowStore {
 public:
  using Decode =
      std::function<Result<Row>(std::string_view row, const std::string&)>;

  /// Opens table `table` of `file`. A mapped open keeps the mapped table
  /// and decodes rows on demand (lazy()); otherwise every row is decoded
  /// now.
  Status Open(const std::shared_ptr<const snapshot::MappedFile>& file,
              const char* table, const char* row_label, bool mapped,
              size_t capacity, Decode decode) {
    prefix_ = file->origin() + ": " + row_label + " ";
    decode_ = std::move(decode);
    Result<snapshot::MappedTable> rows =
        snapshot::MappedTable::Open(*file, table);
    if (!rows.ok()) return rows.status();
    // A wider id would alias a smaller key, and each residency would serve
    // a different row for it. Ids ascend, so the last one decides.
    const uint64_t last = rows->row_count() == 0 ? 0 : rows->ids().back();
    if (last > std::numeric_limits<Key>::max()) {
      return Status::InvalidArgument(file->origin() + ": table \"" + table +
                                     "\" row id " + std::to_string(last) +
                                     " is outside the key range");
    }
    if (mapped) {
      file_ = file;
      table_ = std::make_unique<snapshot::MappedTable>(std::move(*rows));
      capacity_ = std::max<size_t>(1, capacity);
      return Status::OK();
    }
    std::string bytes;
    for (size_t i = 0; i < rows->row_count(); ++i) {
      MICROREC_RETURN_IF_ERROR(rows->RowAt(i, &bytes));
      const uint64_t id = rows->id_at(i);
      Result<Row> row = decode_(bytes, prefix_ + std::to_string(id));
      if (!row.ok()) return row.status();
      rows_.insert_or_assign(static_cast<Key>(id), std::move(*row));
    }
    return Status::OK();
  }

  /// The row for `key`; nullptr when absent, invalidated, or corrupt (the
  /// last two only under a lazy open; corruption is counted and kept in
  /// error()). An eagerly opened store answers with one hash lookup.
  Row* Find(Key key) {
    auto it = rows_.find(key);
    if (it != rows_.end()) {
      if (table_ != nullptr) {
        auto pos = lru_pos_.find(key);
        if (pos != lru_pos_.end()) lru_.splice(lru_.end(), lru_, pos->second);
      }
      return &it->second;
    }
    return table_ != nullptr ? Materialize(key) : nullptr;
  }

  /// The outcome of the last materialization: OK when the row was absent
  /// or decoded.
  const Status& error() const { return error_; }

  /// Adds a pinned row (a cold build or a fresh inference).
  Row* Put(Key key, Row row) {
    Unlist(key);
    return &rows_.insert_or_assign(key, std::move(row)).first->second;
  }

  /// Drops `key`. Under a lazy open it also blocks re-materialization: the
  /// mapped row predates the invalidation.
  void Erase(Key key) {
    rows_.erase(key);
    Unlist(key);
    if (table_ != nullptr) blocked_.insert(key);
  }

  bool lazy() const { return table_ != nullptr; }
  const Row& at(Key key) const { return rows_.at(key); }

  std::vector<Key> SortedKeys() const {
    std::vector<Key> keys;
    keys.reserve(rows_.size());
    for (const auto& [key, row] : rows_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Every row, in id order, as a v2 table payload.
  template <typename Encode>
  Result<std::string> Table(Encode encode) const {
    snapshot::TableBuilder table;
    for (Key key : SortedKeys()) {
      MICROREC_RETURN_IF_ERROR(table.AddRow(key, encode(key, rows_.at(key))));
    }
    return std::move(table).Finish();
  }

 private:
  Row* Materialize(Key key) {
    error_ = Status::OK();
    if (blocked_.count(key) > 0) return nullptr;
    bool found = false;
    std::string bytes;
    error_ = table_->Row(key, &found, &bytes);
    if (error_.ok() && !found) return nullptr;
    if (error_.ok()) {
      Result<Row> row = decode_(bytes, prefix_ + std::to_string(key));
      if (row.ok()) {
        Row* out = &rows_.emplace(key, std::move(*row)).first->second;
        lru_.push_back(key);
        lru_pos_[key] = std::prev(lru_.end());
        if (lru_.size() > capacity_) {
          rows_.erase(lru_.front());
          lru_pos_.erase(lru_.front());
          lru_.pop_front();
        }
        return out;
      }
      error_ = row.status();
    }
    // Materialization runs in paths that cannot return a Status (Score,
    // Profile): the row degrades to absent, counted so it is never silent.
    IncrementCounter("snapshot.mapped_row_errors");
    return nullptr;
  }

  void Unlist(Key key) {
    auto pos = lru_pos_.find(key);
    if (pos == lru_pos_.end()) return;
    lru_.erase(pos->second);
    lru_pos_.erase(pos);
  }

  std::unordered_map<Key, Row> rows_;
  std::string prefix_;  // "<file>: <row label> ", for decode errors
  Decode decode_;
  Status error_;
  // Lazy opens only.
  std::shared_ptr<const snapshot::MappedFile> file_;
  std::unique_ptr<snapshot::MappedTable> table_;
  size_t capacity_ = 1;
  std::list<Key> lru_;  // materialized rows, front = least recent
  std::unordered_map<Key, typename std::list<Key>::iterator> lru_pos_;
  std::unordered_set<Key> blocked_;
};

// ---- Bag and graph engines: per-user state in one "users" table. ----
//
// A user row starts with the user's vocabulary: the corpus gram ids of the
// engine's (kind, n) GramTable, in local-id order. The ids mean something
// only over that table's dictionary, so the header's vocabulary fingerprint
// is the dictionary's, checked at every open before any row decodes.

template <typename User>
class UserTableEngine : public Engine {
 public:
  Status Prepare(const EngineContext& ctx) override {
    bool warmed = false;
    return TryWarmStart(this, ctx, &warmed);
  }

  Status BuildUser(UserId u, const corpus::LabeledTrainSet& train,
                   const EngineContext& ctx) override {
    if (loaded_from_snapshot_) {
      // A persisted user is a no-op (under mmap: a row decode, whose
      // corruption surfaces here instead of in a path without a Status).
      if (users_.Find(u) != nullptr) return Status::OK();
      MICROREC_RETURN_IF_ERROR(users_.error());
    }
    if (grams_ == nullptr) grams_ = &TableOf(config_, ctx);
    obs::ScopedHistogramTimer timer(BuildUserHistogram());
    users_.Put(u, Build(train));
    return Status::OK();
  }

  void InvalidateUser(UserId u) override { users_.Erase(u); }

  // Scoring reads the user store, the modeler and the gram table only. A
  // mapped store decodes rows and moves its LRU on lookup, so it scores in
  // order.
  bool ScoresConcurrently() const override { return !users_.lazy(); }

  Status SaveSnapshot(const std::string& path,
                      const EngineContext& ctx) const override {
    if (users_.lazy()) return ReadOnly(path);
    Result<std::string> table = users_.Table(
        [this](UserId, const User& user) { return EncodeRow(user); });
    if (!table.ok()) return table.status();
    // An engine without users has bound no table yet: its rows would index
    // the one `ctx` featurizes.
    const GramTable& grams =
        grams_ != nullptr ? *grams_ : TableOf(config_, ctx);
    snapshot::Writer writer = MakeWriter(config_, ctx, grams.fingerprint());
    writer.AddSection("users", std::move(*table));
    return writer.Commit(path);
  }

 protected:
  UserTableEngine(const ModelConfig& config, const char* row_label)
      : config_(config), row_label_(row_label) {}

  /// The user model built from a labelled train set (a cold build).
  virtual User Build(const corpus::LabeledTrainSet& train) const = 0;
  /// The row encoder.
  virtual std::string EncodeRow(const User& user) const = 0;
  /// The row decoder, with the semantic validation of every field.
  virtual Result<User> DecodeRow(std::string_view row,
                                 const std::string& origin) const = 0;

  ModelConfig config_;
  mutable RowStore<UserId, User> users_;
  // The corpus gram table users are built and candidates scored on: looked
  // up once, by Open() or the first BuildUser(), and only read while
  // scoring.
  const GramTable* grams_ = nullptr;

 private:
  Status Open(const std::string& path, const EngineContext& ctx,
              ServeMode residency) override {
    grams_ = &TableOf(config_, ctx);  // rows index its dictionary
    Result<std::shared_ptr<const snapshot::MappedFile>> file =
        OpenSnapshotFile(path, config_, ctx, *grams_, residency);
    if (!file.ok()) return file.status();
    RowStore<UserId, User> users;
    MICROREC_RETURN_IF_ERROR(users.Open(
        *file, "users", row_label_, residency == ServeMode::kMmap,
        ctx.mapped_user_cache,
        std::bind_front(&UserTableEngine::DecodeRow, this)));
    users_ = std::move(users);
    loaded_from_snapshot_ = true;
    IncrementCounter("snapshot.warm_starts");
    return Status::OK();
  }

  const char* row_label_;
  bool loaded_from_snapshot_ = false;
};

// ---- Bag engine (TN / CN). ----

struct BagUser {
  bag::BagModeler modeler;
  bag::SparseVector vector;
  double magnitude = 0.0;  // of `vector`, for the cosine kernel
};

class BagEngine : public UserTableEngine<BagUser>, public SparseProfileScorer {
 public:
  explicit BagEngine(const ModelConfig& config)
      : UserTableEngine(config, "bag user") {}

  SparseProfileScorer* sparse_scorer() override { return this; }

  const bag::SparseVector* Profile(UserId u) const override {
    const BagUser* user = users_.Find(u);
    return user == nullptr ? nullptr : &user->vector;
  }

  bag::SparseVector Embed(UserId u, TweetId d,
                          const EngineContext&) override {
    const BagUser* user = users_.Find(u);
    if (user == nullptr) return {};  // absent, or a counted corrupt row
    return user->modeler.EmbedDocument(grams_->Of(d));
  }

  double Kernel(UserId u, const bag::SparseVector& profile,
                const bag::SparseVector& doc) const override {
    const BagUser* user = users_.Find(u);
    if (user == nullptr) return 0.0;
    return user->modeler.Kernel(profile, user->magnitude, doc).value_or(0.0);
  }

  double Score(UserId u, TweetId d, const EngineContext&) override {
    obs::ScopedHistogramTimer timer(ScoreHistogram());
    ScoreCounter()->Increment();
    const BagUser* user = users_.Find(u);
    if (user == nullptr) return 0.0;  // absent, or a counted corrupt row
    // An evidence-free profile is disjoint from everything: skip embedding.
    std::optional<double> score;
    if (!user->vector.empty()) {
      score = user->modeler.ScoreDocument(user->vector, user->magnitude,
                                          grams_->Of(d));
    }
    if (!score.has_value()) PrunedCounter()->Increment();
    return score.value_or(0.0);
  }

 private:
  BagUser Build(const corpus::LabeledTrainSet& train) const override {
    BagUser user{bag::BagModeler(config_.bag), {}, 0.0};
    std::vector<bag::GramDoc> docs;
    docs.reserve(train.docs.size());
    for (TweetId id : train.docs) docs.push_back(grams_->Of(id));
    user.modeler.Fit(docs);
    user.vector = user.modeler.BuildUserVector(docs, train.positive);
    user.magnitude = user.vector.Magnitude();
    return user;
  }

  // A bag user row: vocabulary grams, document frequencies and the train
  // doc count, then the profile as delta-coded term ids plus f64 weights.
  std::string EncodeRow(const BagUser& user) const override {
    std::vector<uint64_t> term_ids;
    std::vector<double> weights;
    term_ids.reserve(user.vector.size());
    weights.reserve(user.vector.size());
    for (const auto& [term, weight] : user.vector.entries()) {
      term_ids.push_back(term);
      weights.push_back(weight);
    }
    std::string row;
    snapshot::PutDeltaIds(&row, PersistedGrams(user.modeler.vocabulary()));
    PutRowVarints(&row, user.modeler.doc_frequencies());
    snapshot::PutVarint(&row, user.modeler.num_train_docs());
    snapshot::PutDeltaIds(&row, term_ids);
    PutRowF64s(&row, weights);
    return row;
  }

  Result<BagUser> DecodeRow(std::string_view bytes,
                            const std::string& origin) const override {
    RowReader row(bytes, origin);
    bag::IdVocabulary vocab;
    std::vector<uint32_t> df;
    uint64_t num_train_docs = 0;
    std::vector<uint64_t> term_ids;
    std::vector<double> weights;
    MICROREC_RETURN_IF_ERROR(DecodeGrams(&row, *grams_, origin, &vocab));
    MICROREC_RETURN_IF_ERROR(row.U32s(&df, "document frequencies"));
    MICROREC_RETURN_IF_ERROR(row.Varint(&num_train_docs, "train doc count"));
    MICROREC_RETURN_IF_ERROR(row.DeltaIds(&term_ids, "vector term ids"));
    MICROREC_RETURN_IF_ERROR(row.F64s(&weights, "vector weights"));
    MICROREC_RETURN_IF_ERROR(row.End());
    if (df.size() > vocab.size()) {
      return Status::InvalidArgument(
          origin + " has " + std::to_string(df.size()) +
          " document frequencies for " + std::to_string(vocab.size()) +
          " grams");
    }
    if (term_ids.size() != weights.size()) {
      return Status::InvalidArgument(
          origin + " vector has mismatched term/weight counts");
    }
    std::vector<bag::SparseVector::Entry> entries;
    entries.reserve(term_ids.size());
    for (size_t e = 0; e < term_ids.size(); ++e) {
      if (term_ids[e] >= vocab.size()) {
        return Status::InvalidArgument(
            origin + " vector references term " +
            std::to_string(term_ids[e]) + " outside vocabulary of " +
            std::to_string(vocab.size()));
      }
      // A saved profile ascends, each id once: refuse, not re-sort or sum.
      if (e > 0 && term_ids[e] <= term_ids[e - 1]) {
        return Status::InvalidArgument(
            origin + " vector term ids are not strictly ascending at entry " +
            std::to_string(e));
      }
      entries.emplace_back(static_cast<text::TermId>(term_ids[e]),
                           weights[e]);
    }
    BagUser user{bag::BagModeler(config_.bag), {}, 0.0};
    user.modeler.RestoreFitted(std::move(vocab), std::move(df),
                               num_train_docs);
    user.vector = bag::SparseVector::FromAscending(std::move(entries));
    user.magnitude = user.vector.Magnitude();
    return user;
  }

};

// ---- Graph engine (TNG / CNG). ----

struct GraphUser {
  graph::GraphModeler modeler;
  graph::NgramGraph graph;
};

class GraphEngine : public UserTableEngine<GraphUser> {
 public:
  explicit GraphEngine(const ModelConfig& config)
      : UserTableEngine(config, "graph user") {}

  double Score(UserId u, TweetId d, const EngineContext&) override {
    obs::ScopedHistogramTimer timer(ScoreHistogram());
    ScoreCounter()->Increment();
    const GraphUser* user = users_.Find(u);
    if (user == nullptr) return 0.0;  // absent, or a counted corrupt row
    std::optional<double> score =
        user->modeler.ScoreDocument(user->graph, grams_->Of(d));
    if (!score.has_value()) PrunedCounter()->Increment();
    return score.value_or(0.0);
  }

 private:
  GraphUser Build(const corpus::LabeledTrainSet& train) const override {
    GraphUser user{graph::GraphModeler(config_.graph), {}};
    std::vector<bag::GramDoc> docs;
    docs.reserve(train.docs.size());
    for (TweetId id : train.docs) docs.push_back(grams_->Of(id));
    user.graph = user.modeler.BuildUserGraph(docs);
    return user;
  }

  // A graph user row: vocabulary grams, then the graph's arrays as it holds
  // them: its ascending edge keys, delta-coded (the two packed term ids of
  // adjacent edges share their high halves, so each costs a few bytes), and
  // their f64 weights. A decoded row is validated and adopted as is.
  std::string EncodeRow(const GraphUser& user) const override {
    std::string row;
    snapshot::PutDeltaIds(&row, PersistedGrams(user.modeler.vocabulary()));
    snapshot::PutDeltaIds(&row, user.graph.keys());
    PutRowF64s(&row, user.graph.weights());
    return row;
  }

  Result<GraphUser> DecodeRow(std::string_view bytes,
                              const std::string& origin) const override {
    RowReader row(bytes, origin);
    bag::IdVocabulary vocab;
    std::vector<uint64_t> keys;
    std::vector<double> weights;
    MICROREC_RETURN_IF_ERROR(DecodeGrams(&row, *grams_, origin, &vocab));
    MICROREC_RETURN_IF_ERROR(row.DeltaIds(&keys, "edge keys"));
    MICROREC_RETURN_IF_ERROR(row.F64s(&weights, "edge weights"));
    MICROREC_RETURN_IF_ERROR(row.End());
    if (keys.size() != weights.size()) {
      return Status::InvalidArgument(
          origin + " has mismatched edge key/weight counts");
    }
    const size_t vocab_size = vocab.size();
    for (size_t e = 0; e < keys.size(); ++e) {
      if ((keys[e] >> 32) >= vocab_size ||
          (keys[e] & 0xFFFFFFFFu) >= vocab_size) {
        return Status::InvalidArgument(
            origin + " edge references term outside vocabulary of " +
            std::to_string(vocab_size));
      }
      // Scoring walks the keys in order, so they must ascend, once each.
      if (e > 0 && keys[e] <= keys[e - 1]) {
        return Status::InvalidArgument(
            origin + " edge keys are not strictly ascending at edge " +
            std::to_string(e));
      }
    }
    GraphUser user{graph::GraphModeler(config_.graph),
                   graph::NgramGraph(std::move(keys), std::move(weights))};
    user.modeler.RestoreVocabulary(std::move(vocab));
    return user;
  }

};

// ---- Topic engine (LDA, LLDA, HDP, HLDA, BTM, PLSA). ----

// Both topic tables ("users" and "infer_cache") hold one distribution per
// row: its f64s.
std::string EncodeDist(const std::vector<double>& dist) {
  std::string row;
  PutRowF64s(&row, dist);
  return row;
}

Result<std::vector<double>> DecodeDist(std::string_view bytes,
                                       const std::string& origin) {
  RowReader row(bytes, origin);
  std::vector<double> dist;
  MICROREC_RETURN_IF_ERROR(row.F64s(&dist, "distribution"));
  MICROREC_RETURN_IF_ERROR(row.End());
  return dist;
}

template <typename Key>
using DistStore = RowStore<Key, std::vector<double>>;

class TopicEngine : public Engine {
 public:
  explicit TopicEngine(const ModelConfig& config)
      : config_(config), rng_(0xABCD) {}

  Status Prepare(const EngineContext& ctx) override {
    MICROREC_SPAN("topic_prepare");
    bool warmed = false;
    MICROREC_RETURN_IF_ERROR(TryWarmStart(this, ctx, &warmed));
    if (warmed) return Status::OK();
    rng_ = Rng(ctx.seed, streams::kTopicEngine);
    const auto& pre = *ctx.pre;
    const TopicRunConfig& tc = config_.topic;

    // Union of every user's training tweets for this source.
    std::vector<TweetId> train_ids;
    {
      std::unordered_set<TweetId> seen;
      for (UserId u : *ctx.users) {
        for (TweetId id : ctx.train_set(u).docs) {
          if (seen.insert(id).second) train_ids.push_back(id);
        }
      }
      std::sort(train_ids.begin(), train_ids.end());
    }
    if (train_ids.empty()) {
      return Status::FailedPrecondition("no training tweets for source");
    }

    // Pool into pseudo-documents and assemble the DocSet from the gram ids
    // of their stop-filtered tokens.
    grams_ = &TableOf(config_, ctx);
    std::vector<corpus::PooledDoc> pooled = corpus::PoolTweets(
        pre.corpus(), pre.tokenized(), train_ids, tc.pooling);
    std::unique_ptr<LldaLabelScheme> labels;
    if (config_.kind == ModelKind::kLLDA) {
      labels = std::make_unique<LldaLabelScheme>(LldaLabelScheme::Build(
          pre.tokenized(), train_ids, ctx.llda_min_hashtag_count));
    }
    for (const corpus::PooledDoc& doc : pooled) {
      std::vector<text::TermId> words;
      std::vector<uint32_t> doc_labels;
      std::unordered_set<uint32_t> label_set;
      for (TweetId id : doc.members) {
        const bag::GramDoc tweet = grams_->Of(id);
        words.insert(words.end(), tweet.begin(), tweet.end());
        if (labels != nullptr) {
          for (uint32_t label :
               labels->LabelsFor(id, pre.tokenized().TokensOf(id),
                                 pre.corpus().tweet(id).text)) {
            if (label_set.insert(label).second) doc_labels.push_back(label);
          }
        }
      }
      size_t index = docs_.AddDocument(words);
      if (labels != nullptr) docs_.SetLabels(index, std::move(doc_labels));
    }

    auto& registry = obs::MetricsRegistry::Global();
    registry.GetGauge("topic.docset.vocab_size")
        ->Set(static_cast<double>(docs_.vocab_size()));
    registry.GetGauge("topic.docset.docs")
        ->Set(static_cast<double>(docs_.num_docs()));
    registry.GetGauge("topic.docset.tokens")
        ->Set(static_cast<double>(docs_.total_tokens()));

    MICROREC_RETURN_IF_ERROR(MakeModel(
        ctx, labels != nullptr ? labels->num_labels() : 0, &model_));
    return model_->Train(docs_, &rng_);
  }

 private:
  /// Instantiates (but does not train) the configured model. LLDA's label
  /// count is corpus-derived: Prepare() passes it from the label scheme; a
  /// warm start passes 0 and LoadState adopts the persisted count.
  Status MakeModel(const EngineContext& ctx, size_t llda_num_labels,
                   std::unique_ptr<topic::TopicModel>* model) const {
    const TopicRunConfig& tc = config_.topic;
    const int iters = ScaledIterations(tc.iterations, ctx.iteration_scale);
    // Sharded-training options for the models that support them (LDA, LLDA,
    // BTM, PLSA). HDP and HLDA are sequential by design — see their headers.
    topic::TrainOptions train;
    train.train_threads = ctx.train_threads;
    train.sampler_kernel = ctx.sampler_kernel;
    switch (config_.kind) {
      case ModelKind::kLDA: {
        topic::LdaConfig lc;
        lc.num_topics = tc.num_topics;
        lc.alpha = tc.alpha;
        lc.beta = tc.beta;
        lc.train_iterations = iters;
        lc.train = train;
        lc.cancel = ctx.cancel;
        *model = std::make_unique<topic::Lda>(lc);
        break;
      }
      case ModelKind::kLLDA: {
        topic::LldaConfig lc;
        lc.num_labels = llda_num_labels;
        lc.num_latent_topics = tc.num_topics;
        lc.alpha = tc.alpha;
        lc.beta = tc.beta;
        lc.train_iterations = iters;
        lc.train = train;
        lc.cancel = ctx.cancel;
        *model = std::make_unique<topic::Llda>(lc);
        break;
      }
      case ModelKind::kBTM: {
        topic::BtmConfig bc;
        bc.num_topics = tc.num_topics;
        bc.alpha = tc.alpha;
        bc.beta = tc.beta;
        bc.train_iterations = iters;
        bc.window = tc.pooling == corpus::Pooling::kNone ? 0 : tc.window;
        bc.train = train;
        bc.cancel = ctx.cancel;
        *model = std::make_unique<topic::Btm>(bc);
        break;
      }
      case ModelKind::kHDP: {
        topic::HdpConfig hc;
        hc.alpha = tc.alpha > 0 ? tc.alpha : 1.0;
        hc.gamma = tc.gamma;
        hc.beta = tc.beta;
        hc.train_iterations = iters;
        hc.cancel = ctx.cancel;
        *model = std::make_unique<topic::Hdp>(hc);
        break;
      }
      case ModelKind::kHLDA: {
        topic::HldaConfig hc;
        hc.levels = tc.levels;
        hc.alpha = tc.alpha;
        hc.beta = tc.beta;
        hc.gamma = tc.gamma;
        // nCRP path resampling is an order of magnitude costlier per sweep
        // than flat Gibbs; the paper's time constraint already limited
        // HLDA's budget (Section 4).
        hc.train_iterations = std::max(3, iters / 5);
        hc.cancel = ctx.cancel;
        *model = std::make_unique<topic::Hlda>(hc);
        break;
      }
      case ModelKind::kPLSA: {
        topic::PlsaConfig pc;
        pc.num_topics = tc.num_topics;
        pc.train_iterations = std::max(5, iters / 10);  // EM steps
        pc.train = train;
        pc.cancel = ctx.cancel;
        *model = std::make_unique<topic::Plsa>(pc);
        break;
      }
      default:
        return Status::InvalidArgument("not a topic model");
    }
    return Status::OK();
  }

 public:
  Status BuildUser(UserId u, const corpus::LabeledTrainSet& train,
                   const EngineContext& ctx) override {
    if (loaded_from_snapshot_) {
      if (users_.Find(u) != nullptr) return Status::OK();
      MICROREC_RETURN_IF_ERROR(users_.error());
    }
    // Cold, or absent from the snapshot: fold-in inference needs the model.
    MICROREC_RETURN_IF_ERROR(EnsureModel(ctx));
    obs::ScopedHistogramTimer timer(BuildUserHistogram());
    // Documents with no vocabulary evidence (all words unseen in training)
    // carry no topical information and are excluded from the aggregate.
    std::vector<std::vector<double>> dists;
    std::vector<bool> labels;
    dists.reserve(train.docs.size());
    for (size_t i = 0; i < train.docs.size(); ++i) {
      const std::vector<double>& dist = Infer(train.docs[i], ctx);
      if (dist.empty()) continue;
      dists.push_back(dist);
      labels.push_back(train.positive[i]);
    }
    users_.Put(u, topic::AggregateDistributions(
                      dists, labels,
                      config_.topic.aggregation == TopicAggregation::kRocchio));
    return std::exchange(deferred_error_, Status::OK());
  }

  void InvalidateUser(UserId u) override { users_.Erase(u); }

  double Score(UserId u, TweetId d, const EngineContext& ctx) override {
    obs::ScopedHistogramTimer timer(ScoreHistogram());
    ScoreCounter()->Increment();
    // Absent users and counted corrupt rows score 0, like users without
    // evidence.
    const std::vector<double>* user = users_.Find(u);
    if (user == nullptr || user->empty()) return 0.0;
    const std::vector<double>& doc = Infer(d, ctx);
    // No known words -> no evidence of relevance.
    if (doc.empty()) return 0.0;
    return topic::TopicCosine(*user, doc);
  }

  Status SaveSnapshot(const std::string& path,
                      const EngineContext& ctx) const override {
    if (users_.lazy()) return ReadOnly(path);
    if (model_ == nullptr) {
      return Status::FailedPrecondition("SaveSnapshot() before Prepare()");
    }
    snapshot::Writer writer = MakeWriter(config_, ctx, grams_->fingerprint());
    // The vocabulary's corpus gram ids in word-id order, coded as a bag or
    // graph row's leading grams.
    std::string vocab;
    snapshot::PutDeltaIds(&vocab, PersistedGrams(docs_.vocabulary()));
    writer.AddSection("vocab", std::move(vocab));
    // The model section keeps its fixed-width encoding: a trained phi is
    // topic-major with long runs of the identical smoothing value for
    // zero-count words, which the block compression collapses without a
    // bespoke encoding.
    snapshot::Encoder model;
    model_->SaveState(&model);
    writer.AddSection("model", model.Release());
    // Generator state as of now: a warm-started engine resumes the draw
    // sequence exactly where this one left off, so inference it performs
    // after loading is bit-identical to inference this one would perform.
    snapshot::Encoder rng;
    SaveRngState(rng_, &rng);
    writer.AddSection("rng", rng.Release());
    auto encode = [](uint64_t, const std::vector<double>& dist) {
      return EncodeDist(dist);
    };
    Result<std::string> users = users_.Table(encode);
    if (!users.ok()) return users.status();
    writer.AddSection("users", std::move(*users));
    // The inference cache makes warm scoring of already-seen tweets a
    // lookup instead of a Gibbs fold-in — this is what turns
    // train-once/recommend-many into milliseconds per query.
    Result<std::string> cache = infer_.Table(encode);
    if (!cache.ok()) return cache.status();
    writer.AddSection("infer_cache", std::move(*cache));
    return writer.Commit(path);
  }

 private:
  Status Open(const std::string& path, const EngineContext& ctx,
              ServeMode residency) override {
    grams_ = &TableOf(config_, ctx);  // the vocab section indexes it
    Result<std::shared_ptr<const snapshot::MappedFile>> file =
        OpenSnapshotFile(path, config_, ctx, *grams_, residency);
    if (!file.ok()) return file.status();
    const bool mapped = residency == ServeMode::kMmap;
    // The generator state is tiny and order-sensitive: restore it in both
    // residencies, so the first fresh fold-in draws exactly what the saving
    // engine would have drawn next.
    Rng rng = rng_;
    {
      std::string bytes;
      Result<snapshot::Decoder> dec = ReadSection(**file, "rng", &bytes);
      if (!dec.ok()) return dec.status();
      MICROREC_RETURN_IF_ERROR(LoadRngState(&*dec, &rng));
    }
    DistStore<UserId> users;
    MICROREC_RETURN_IF_ERROR(users.Open(*file, "users", "topic user",
                                        mapped, ctx.mapped_user_cache,
                                        DecodeDist));
    // Cached inferences are smaller than user models but hotter (every
    // candidate in every query); give them the same bound scaled up.
    DistStore<TweetId> infer;
    MICROREC_RETURN_IF_ERROR(infer.Open(*file, "infer_cache",
                                        "cached inference", mapped,
                                        ctx.mapped_user_cache * 4,
                                        DecodeDist));
    const bool lazy = users.lazy();
    if (lazy) {
      model_.reset();
    } else {
      MICROREC_RETURN_IF_ERROR(LoadModel(**file, ctx));
    }
    rng_ = rng;
    users_ = std::move(users);
    infer_ = std::move(infer);
    file_ = lazy ? *file : nullptr;
    deferred_error_ = Status::OK();
    loaded_from_snapshot_ = true;
    IncrementCounter("snapshot.warm_starts");
    return Status::OK();
  }

  /// Decodes the vocabulary and the trained model, adopting both only when
  /// both decode. A resident open calls this eagerly; a mapped one defers
  /// it (EnsureModel) until a fold-in or a cold user build needs the model,
  /// so cache-hit serving never pays for the O(model) sections.
  Status LoadModel(const snapshot::MappedFile& file,
                   const EngineContext& ctx) {
    std::string bytes;
    MICROREC_RETURN_IF_ERROR(file.ReadSection("vocab", &bytes));
    const std::string origin = file.origin() + ": section \"vocab\"";
    RowReader vocab_reader(bytes, origin);
    bag::IdVocabulary vocab;
    MICROREC_RETURN_IF_ERROR(
        DecodeGrams(&vocab_reader, *grams_, origin, &vocab));
    MICROREC_RETURN_IF_ERROR(vocab_reader.End());
    std::unique_ptr<topic::TopicModel> model;
    MICROREC_RETURN_IF_ERROR(MakeModel(ctx, /*llda_num_labels=*/0, &model));
    Result<snapshot::Decoder> state = ReadSection(file, "model", &bytes);
    if (!state.ok()) return state.status();
    MICROREC_RETURN_IF_ERROR(model->LoadState(&*state));
    // Every word id Lookup() hands out must index the model's phi.
    if (vocab.size() != model->vocab_size()) {
      return Status::InvalidArgument(
          origin + " holds " + std::to_string(vocab.size()) +
          " grams for a model of " + std::to_string(model->vocab_size()) +
          " words");
    }
    docs_ = topic::DocSet(std::move(vocab));
    model_ = std::move(model);
    return Status::OK();
  }

  Status EnsureModel(const EngineContext& ctx) {
    if (model_ != nullptr) return Status::OK();
    if (file_ == nullptr) {
      return Status::FailedPrecondition("Prepare() not called");
    }
    return LoadModel(*file_, ctx);
  }

  // Per-tweet topic distributions are shared across users (the same test or
  // train tweet can appear for many users), so inference is cached.
  // Returns the cached topic distribution of a tweet, or an *empty* vector
  // when none of its words appear in the training vocabulary.
  const std::vector<double>& Infer(TweetId id, const EngineContext& ctx) {
    static const std::vector<double> kNoEvidence;
    // A persisted inference is a lookup (under mmap, a row decode) and
    // consumes no generator draws.
    if (const std::vector<double>* cached = infer_.Find(id)) return *cached;
    // A corrupt cached row or a model that fails to load degrades the tweet
    // to no evidence; both are counted and surface from the next BuildUser
    // that folds in.
    Status ready = infer_.error();
    if (ready.ok()) {
      ready = EnsureModel(ctx);
      if (!ready.ok()) IncrementCounter("snapshot.mapped_row_errors");
    }
    if (!ready.ok()) {
      deferred_error_ = ready;
      return kNoEvidence;
    }
    // Absent from the snapshot: fold in fresh, in the same call order (and
    // hence the same rng draw sequence) in both residencies. Fresh
    // inferences are pinned: the map cannot re-materialize them.
    static obs::Histogram* infer_hist =
        obs::MetricsRegistry::Global().GetHistogram("topic.infer_seconds");
    obs::ScopedHistogramTimer timer(infer_hist);
    std::vector<topic::TermId> words = docs_.Lookup(grams_->Of(id));
    std::vector<double> dist;
    if (!words.empty()) dist = model_->InferDocument(words, &rng_);
    return *infer_.Put(id, std::move(dist));
  }

  ModelConfig config_;
  Rng rng_;
  // The (token, 1) corpus gram table documents are read from: bound by a
  // cold Prepare() or by Open().
  const GramTable* grams_ = nullptr;
  topic::DocSet docs_;
  std::unique_ptr<topic::TopicModel> model_;
  DistStore<TweetId> infer_;
  DistStore<UserId> users_;
  bool loaded_from_snapshot_ = false;
  // Under mmap: the snapshot the model is loaded from on first need.
  std::shared_ptr<const snapshot::MappedFile> file_;
  Status deferred_error_;
};

}  // namespace

const char* ServeModeName(ServeMode mode) {
  switch (mode) {
    case ServeMode::kResident:
      return "resident";
    case ServeMode::kMmap:
      return "mmap";
  }
  return "resident";
}

Status ParseServeMode(std::string_view name, ServeMode* mode) {
  if (name == "resident") {
    *mode = ServeMode::kResident;
    return Status::OK();
  }
  if (name == "mmap") {
    *mode = ServeMode::kMmap;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown serve mode \"" + std::string(name) +
                                 "\" (expected \"resident\" or \"mmap\")");
}

std::unique_ptr<Engine> MakeEngine(const ModelConfig& config) {
  switch (config.kind) {
    case ModelKind::kTN:
    case ModelKind::kCN:
      return std::make_unique<BagEngine>(config);
    case ModelKind::kTNG:
    case ModelKind::kCNG:
      return std::make_unique<GraphEngine>(config);
    default:
      return std::make_unique<TopicEngine>(config);
  }
}

}  // namespace microrec::rec
