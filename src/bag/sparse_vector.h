// Sparse vectors over interned term ids — the storage of the bag models
// (TN / CN). Tweets have a handful of n-grams each, so all similarity and
// aggregation kernels are sorted-merge joins, never dense scans.
#ifndef MICROREC_BAG_SPARSE_VECTOR_H_
#define MICROREC_BAG_SPARSE_VECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "text/vocabulary.h"

namespace microrec::bag {

using text::TermId;

/// A sparse vector: entries sorted by term id, unique ids, weights > 0
/// unless explicitly zeroed (Rocchio can produce negative weights).
class SparseVector {
 public:
  using Entry = std::pair<TermId, double>;

  SparseVector() = default;

  /// Builds from unsorted (id, weight) pairs; duplicate ids are summed.
  static SparseVector FromUnsorted(std::vector<Entry> entries);

  /// Adopts entries whose ids already ascend strictly (asserted in debug
  /// builds), without sorting them again.
  static SparseVector FromAscending(std::vector<Entry> entries);

  /// Builds a term-frequency count vector from a term-id sequence.
  static SparseVector FromCounts(const std::vector<TermId>& terms);

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Sum of all weights.
  double Sum() const;
  /// Euclidean magnitude.
  double Magnitude() const;

  /// Scales every weight in place.
  void Scale(double factor);
  /// Divides by the magnitude; no-op on the zero vector.
  void Normalize();
  /// Adds `other * factor` into this vector.
  void AddScaled(const SparseVector& other, double factor);
  /// Applies `fn(term, weight)` to every entry, replacing the weight.
  template <typename Fn>
  void Transform(Fn fn) {
    for (auto& [term, weight] : entries_) weight = fn(term, weight);
  }
  /// Removes entries with weight == 0.
  void PruneZeros();

  /// Dot product (sorted merge).
  static double Dot(const SparseVector& a, const SparseVector& b);

  /// Jaccard similarity on the *supports* (non-zero patterns):
  /// |A ∩ B| / |A ∪ B|.
  static double JaccardSupport(const SparseVector& a, const SparseVector& b);

  /// Generalized Jaccard: Σ min(a_i, b_i) / Σ max(a_i, b_i). Weights are
  /// assumed non-negative.
  static double GeneralizedJaccard(const SparseVector& a,
                                   const SparseVector& b);

 private:
  std::vector<Entry> entries_;
};

}  // namespace microrec::bag

#endif  // MICROREC_BAG_SPARSE_VECTOR_H_
