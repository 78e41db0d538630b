#include "bag/bag_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "text/ngram.h"
#include "util/string_util.h"

namespace microrec::bag {

std::vector<TermId> GramIds(const TokenDoc& doc, NgramKind kind, int n,
                            text::Vocabulary* dictionary) {
  if (kind == NgramKind::kToken) {
    return dictionary->InternAll(text::TokenNgrams(doc, n));
  }
  return dictionary->InternAll(text::CharNgrams(Join(doc, " "), n));
}

TermId IdVocabulary::Intern(TermId gram) {
  const auto [local, inserted] =
      locals_.Insert(gram, static_cast<TermId>(grams_.size()));
  if (local == nullptr) return text::kInvalidTerm;
  if (inserted) grams_.push_back(gram);
  return *local;
}

void IdVocabulary::InternAll(GramDoc doc, std::vector<TermId>* ids) {
  ids->clear();
  for (TermId gram : doc) ids->push_back(Intern(gram));
}

bool IdVocabulary::ContainsAny(GramDoc doc) const {
  return std::any_of(doc.begin(), doc.end(), [this](TermId gram) {
    return locals_.Find(gram) != nullptr;
  });
}

void IdVocabulary::Translate(GramDoc doc, std::vector<TermId>* ids) const {
  ids->clear();
  ids->reserve(doc.size());
  // In order of first appearance. A tweet has few unseen grams, so a scan
  // beats hashing.
  std::vector<TermId> unseen;
  for (TermId gram : doc) {
    if (const TermId* local = locals_.Find(gram)) {
      ids->push_back(*local);
      continue;
    }
    auto pos = std::find(unseen.begin(), unseen.end(), gram);
    ids->push_back(static_cast<TermId>(size() + (pos - unseen.begin())));
    if (pos == unseen.end()) unseen.push_back(gram);
  }
}

void BagModeler::Fit(const std::vector<GramDoc>& docs) {
  num_train_docs_ = docs.size();
  std::vector<size_t> counted;  // per term: 1 + the last document counted
  std::vector<TermId> terms;
  for (size_t d = 0; d < docs.size(); ++d) {
    vocab_.InternAll(docs[d], &terms);
    df_.resize(vocab_.size(), 0);
    counted.resize(vocab_.size(), 0);
    for (TermId term : terms) {
      if (counted[term] == d + 1) continue;
      counted[term] = d + 1;
      ++df_[term];
    }
  }
}

SparseVector BagModeler::EmbedDocument(GramDoc doc) const {
  std::vector<TermId> terms;
  vocab_.Translate(doc, &terms);
  return Weigh(terms);
}

std::optional<double> BagModeler::ScoreDocument(const SparseVector& profile,
                                                double profile_magnitude,
                                                GramDoc doc) const {
  if (!vocab_.ContainsAny(doc)) return std::nullopt;
  return Kernel(profile, profile_magnitude, EmbedDocument(doc));
}

SparseVector BagModeler::Weigh(const std::vector<TermId>& terms) const {
  SparseVector counts = SparseVector::FromCounts(terms);
  if (counts.empty()) return counts;

  const double doc_len = static_cast<double>(terms.size());
  switch (config_.weighting) {
    case Weighting::kBF:
      counts.Transform([](TermId, double) { return 1.0; });
      break;
    case Weighting::kTF:
      counts.Transform(
          [doc_len](TermId, double freq) { return freq / doc_len; });
      break;
    case Weighting::kTFIDF: {
      const double num_docs = static_cast<double>(num_train_docs_);
      counts.Transform([this, doc_len, num_docs](TermId term, double freq) {
        const uint32_t df = term < df_.size() ? df_[term] : 0;
        double idf = std::log(num_docs / (static_cast<double>(df) + 1.0));
        // Terms present in (almost) every document get idf <= 0; clamping at
        // zero keeps GJS's non-negativity requirement intact.
        if (idf < 0.0) idf = 0.0;
        return freq / doc_len * idf;
      });
      counts.PruneZeros();
      break;
    }
  }
  return counts;
}

SparseVector BagModeler::BuildUserVector(const std::vector<GramDoc>& docs,
                                         const std::vector<bool>& positive) {
  assert(docs.size() == positive.size());
  const bool rocchio = config_.aggregation == Aggregation::kRocchio;
  // One sum per local id and side (Rocchio's negatives are side 1), added
  // to in document order: each term's value is the chain of IEEE sums that
  // merging one document vector at a time gives, as 0.0 + x == x.
  std::vector<double> sums[2];
  size_t used[2] = {0, 0};
  std::vector<TermId> terms;
  for (size_t i = 0; i < docs.size(); ++i) {
    vocab_.InternAll(docs[i], &terms);
    const SparseVector vec = Weigh(terms);
    double factor = 1.0;
    if (config_.aggregation != Aggregation::kSum) {
      const double mag = vec.Magnitude();
      if (mag == 0.0) continue;
      factor = 1.0 / mag;
    }
    const int side = rocchio && !positive[i] ? 1 : 0;
    sums[side].resize(vocab_.size(), 0.0);
    for (const auto& [term, weight] : vec.entries()) {
      sums[side][term] += weight * factor;
    }
    ++used[side];
  }
  // Each side's final scale, applied only when it has documents: 1/used
  // for centroid, alpha/|P| and -beta/|N| for Rocchio.
  const double share[2] = {rocchio ? config_.rocchio_alpha : 1.0,
                           -config_.rocchio_beta};
  double scale[2] = {1.0, 0.0};
  for (int side : {0, 1}) {
    if (config_.aggregation != Aggregation::kSum && used[side] > 0) {
      scale[side] = share[side] / static_cast<double>(used[side]);
    }
  }
  sums[0].resize(vocab_.size(), 0.0);
  if (rocchio) sums[1].resize(vocab_.size(), 0.0);
  std::vector<SparseVector::Entry> entries;
  for (size_t term = 0; term < sums[0].size(); ++term) {
    double value = sums[0][term] * scale[0];
    if (rocchio) value += sums[1][term] * scale[1];
    if (value != 0.0) entries.emplace_back(static_cast<TermId>(term), value);
  }
  return SparseVector::FromUnsorted(std::move(entries));
}

std::optional<double> BagModeler::Kernel(const SparseVector& profile,
                                         double profile_magnitude,
                                         const SparseVector& doc) const {
  const auto& entries = profile.entries();
  auto it = entries.begin();
  double dot = 0.0;
  double doc_squares = 0.0;
  size_t shared = 0;
  for (const auto& [term, weight] : doc.entries()) {
    doc_squares += weight * weight;
    it = std::lower_bound(
        it, entries.end(), term,
        [](const SparseVector::Entry& e, TermId t) { return e.first < t; });
    if (it != entries.end() && it->first == term) {
      dot += it->second * weight;
      ++shared;
    }
  }
  if (shared == 0) return std::nullopt;
  switch (config_.similarity) {
    case BagSimilarity::kCosine: {
      const double denom = profile_magnitude * std::sqrt(doc_squares);
      return denom == 0.0 ? 0.0 : dot / denom;
    }
    case BagSimilarity::kJaccard:
      return static_cast<double>(shared) /
             static_cast<double>(profile.size() + doc.size() - shared);
    case BagSimilarity::kGeneralizedJaccard:
      return SparseVector::GeneralizedJaccard(profile, doc);
  }
  return 0.0;
}

void BagModeler::RestoreFitted(IdVocabulary vocab, std::vector<uint32_t> df,
                               size_t num_train_docs) {
  vocab_ = std::move(vocab);
  df_ = std::move(df);
  num_train_docs_ = num_train_docs;
}

}  // namespace microrec::bag
