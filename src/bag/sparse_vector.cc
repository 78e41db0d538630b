#include "bag/sparse_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace microrec::bag {

SparseVector SparseVector::FromUnsorted(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  SparseVector out;
  out.entries_.reserve(entries.size());
  for (const Entry& entry : entries) {
    if (!out.entries_.empty() && out.entries_.back().first == entry.first) {
      out.entries_.back().second += entry.second;
    } else {
      out.entries_.push_back(entry);
    }
  }
  return out;
}

SparseVector SparseVector::FromAscending(std::vector<Entry> entries) {
  assert(std::adjacent_find(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.first >= b.first;
                            }) == entries.end());
  SparseVector out;
  out.entries_ = std::move(entries);
  return out;
}

SparseVector SparseVector::FromCounts(const std::vector<TermId>& terms) {
  std::vector<Entry> entries;
  entries.reserve(terms.size());
  for (TermId term : terms) entries.emplace_back(term, 1.0);
  return FromUnsorted(std::move(entries));
}

double SparseVector::Sum() const {
  double total = 0.0;
  for (const auto& [term, weight] : entries_) total += weight;
  return total;
}

double SparseVector::Magnitude() const {
  double total = 0.0;
  for (const auto& [term, weight] : entries_) total += weight * weight;
  return std::sqrt(total);
}

void SparseVector::Scale(double factor) {
  for (auto& [term, weight] : entries_) weight *= factor;
}

void SparseVector::Normalize() {
  double mag = Magnitude();
  if (mag > 0.0) Scale(1.0 / mag);
}

void SparseVector::AddScaled(const SparseVector& other, double factor) {
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() &&
         entries_[i].first < other.entries_[j].first)) {
      merged.push_back(entries_[i++]);
    } else if (i >= entries_.size() ||
               other.entries_[j].first < entries_[i].first) {
      merged.emplace_back(other.entries_[j].first,
                          other.entries_[j].second * factor);
      ++j;
    } else {
      merged.emplace_back(entries_[i].first,
                          entries_[i].second + other.entries_[j].second * factor);
      ++i;
      ++j;
    }
  }
  entries_ = std::move(merged);
}

void SparseVector::PruneZeros() {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [](const Entry& e) { return e.second == 0.0; }),
                 entries_.end());
}

double SparseVector::Dot(const SparseVector& a, const SparseVector& b) {
  double total = 0.0;
  size_t i = 0, j = 0;
  while (i < a.entries_.size() && j < b.entries_.size()) {
    TermId ta = a.entries_[i].first;
    TermId tb = b.entries_[j].first;
    if (ta < tb) {
      ++i;
    } else if (tb < ta) {
      ++j;
    } else {
      total += a.entries_[i].second * b.entries_[j].second;
      ++i;
      ++j;
    }
  }
  return total;
}

double SparseVector::JaccardSupport(const SparseVector& a,
                                    const SparseVector& b) {
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < a.entries_.size() && j < b.entries_.size()) {
    TermId ta = a.entries_[i].first;
    TermId tb = b.entries_[j].first;
    if (ta < tb) {
      ++i;
    } else if (tb < ta) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  size_t uni = a.entries_.size() + b.entries_.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double SparseVector::GeneralizedJaccard(const SparseVector& a,
                                        const SparseVector& b) {
  double min_sum = 0.0;
  double max_sum = 0.0;
  size_t i = 0, j = 0;
  while (i < a.entries_.size() || j < b.entries_.size()) {
    if (j >= b.entries_.size() ||
        (i < a.entries_.size() && a.entries_[i].first < b.entries_[j].first)) {
      max_sum += a.entries_[i].second;
      ++i;
    } else if (i >= a.entries_.size() ||
               b.entries_[j].first < a.entries_[i].first) {
      max_sum += b.entries_[j].second;
      ++j;
    } else {
      min_sum += std::min(a.entries_[i].second, b.entries_[j].second);
      max_sum += std::max(a.entries_[i].second, b.entries_[j].second);
      ++i;
      ++j;
    }
  }
  return max_sum == 0.0 ? 0.0 : min_sum / max_sum;
}

}  // namespace microrec::bag
