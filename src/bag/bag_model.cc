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
  std::vector<TermId> terms;
  for (GramDoc doc : docs) {
    vocab_.InternAll(doc, &terms);
    SparseVector counts = SparseVector::FromCounts(terms);
    df_.resize(vocab_.size(), 0);
    for (const auto& [term, count] : counts.entries()) {
      (void)count;
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

SparseVector BagModeler::InternAndWeigh(GramDoc doc) {
  std::vector<TermId> terms;
  vocab_.InternAll(doc, &terms);
  return Weigh(terms);
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
  SparseVector user;
  switch (config_.aggregation) {
    case Aggregation::kSum: {
      for (GramDoc doc : docs) {
        user.AddScaled(InternAndWeigh(doc), 1.0);
      }
      break;
    }
    case Aggregation::kCentroid: {
      size_t used = 0;
      for (GramDoc doc : docs) {
        SparseVector vec = InternAndWeigh(doc);
        double mag = vec.Magnitude();
        if (mag == 0.0) continue;
        user.AddScaled(vec, 1.0 / mag);
        ++used;
      }
      if (used > 0) user.Scale(1.0 / static_cast<double>(used));
      break;
    }
    case Aggregation::kRocchio: {
      SparseVector pos_sum, neg_sum;
      size_t num_pos = 0, num_neg = 0;
      for (size_t i = 0; i < docs.size(); ++i) {
        SparseVector vec = InternAndWeigh(docs[i]);
        double mag = vec.Magnitude();
        if (mag == 0.0) continue;
        if (positive[i]) {
          pos_sum.AddScaled(vec, 1.0 / mag);
          ++num_pos;
        } else {
          neg_sum.AddScaled(vec, 1.0 / mag);
          ++num_neg;
        }
      }
      if (num_pos > 0) {
        user.AddScaled(pos_sum,
                       config_.rocchio_alpha / static_cast<double>(num_pos));
      }
      if (num_neg > 0) {
        user.AddScaled(neg_sum,
                       -config_.rocchio_beta / static_cast<double>(num_neg));
      }
      break;
    }
  }
  user.PruneZeros();
  return user;
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
