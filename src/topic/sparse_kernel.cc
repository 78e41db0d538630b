#include "topic/sparse_kernel.h"

#include <algorithm>
#include <cmath>

namespace microrec::topic {

const char* SamplerKernelName(SamplerKernel kernel) {
  switch (kernel) {
    case SamplerKernel::kDense:
      return "dense";
    case SamplerKernel::kSparse:
      return "sparse";
    case SamplerKernel::kAlias:
      return "alias";
  }
  return "dense";
}

bool ParseSamplerKernel(std::string_view text, SamplerKernel* out) {
  if (text == "dense") {
    *out = SamplerKernel::kDense;
  } else if (text == "sparse") {
    *out = SamplerKernel::kSparse;
  } else if (text == "alias") {
    *out = SamplerKernel::kAlias;
  } else {
    return false;
  }
  return true;
}

std::vector<size_t> FlattenDocs(const DocSet& docs,
                                std::vector<TermId>* words) {
  std::vector<size_t> doc_begin = {0};
  doc_begin.reserve(docs.num_docs() + 1);
  words->reserve(docs.total_tokens());
  for (const TopicDoc& doc : docs.docs()) {
    words->insert(words->end(), doc.words.begin(), doc.words.end());
    doc_begin.push_back(words->size());
  }
  return doc_begin;
}

// ---------------------------------------------------------------------------
// TopicCountList

void TopicCountList::Assign(const uint32_t* counts, size_t num_topics,
                            size_t stride) {
  entries_.clear();
  for (size_t k = 0; k < num_topics; ++k) {
    const uint32_t c = counts[k * stride];
    if (c > 0) entries_.push_back({static_cast<uint32_t>(k), c});
  }
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.count != b.count) return a.count > b.count;
                     return a.topic < b.topic;
                   });
}

void TopicCountList::Increment(uint32_t topic) {
  size_t i = 0;
  const size_t n = entries_.size();
  while (i < n && entries_[i].topic != topic) ++i;
  if (i == n) {
    entries_.push_back({topic, 1});
  } else {
    ++entries_[i].count;
  }
  // Bubble toward the front past entries with a strictly smaller count.
  while (i > 0 && entries_[i - 1].count < entries_[i].count) {
    std::swap(entries_[i - 1], entries_[i]);
    --i;
  }
}

bool TopicCountList::Decrement(uint32_t topic) {
  size_t i = 0;
  const size_t n = entries_.size();
  while (i < n && entries_[i].topic != topic) ++i;
  if (i == n) return false;
  if (--entries_[i].count == 0) {
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
    return true;
  }
  while (i + 1 < entries_.size() &&
         entries_[i + 1].count > entries_[i].count) {
    std::swap(entries_[i + 1], entries_[i]);
    ++i;
  }
  return true;
}

// ---------------------------------------------------------------------------
// GibbsSparseSweeper

GibbsSparseSweeper::GibbsSparseSweeper(size_t num_topics, size_t vocab,
                                       double alpha, double beta)
    : SweeperBase(num_topics, vocab, alpha, beta),
      word_lists_(vocab),
      c_(num_topics, 0.0),
      q_coeff_(num_topics, 0.0),
      in_menu_(num_topics, 0) {}

void GibbsSparseSweeper::Bind(uint32_t* n_dk, uint32_t* n_kw, uint32_t* n_k) {
  n_dk_ = n_dk;
  n_kw_ = n_kw;
  n_k_ = n_k;
  for (size_t k = 0; k < num_topics_; ++k) {
    c_[k] = 1.0 / (static_cast<double>(n_k_[k]) + v_beta_);
  }
  for (size_t w = 0; w < vocab_; ++w) {
    word_lists_[w].Assign(n_kw_ + w, num_topics_, vocab_);
  }
  // Invalidate per-document state; the caller must BeginDoc before drawing.
  std::fill(q_coeff_.begin(), q_coeff_.end(), 0.0);
  std::fill(in_menu_.begin(), in_menu_.end(), 0);
  cur_menu_ = nullptr;
  doc_list_.Clear();
  s_ck_sum_ = 0.0;
  r_nc_sum_ = 0.0;
}

void GibbsSparseSweeper::BeginDoc(size_t doc,
                                  const std::vector<uint32_t>* menu) {
  // Clear the previous document's coefficients. With a full-K menu the set
  // loop below overwrites everything, so only restricted menus need it.
  if (cur_menu_ != nullptr) {
    for (uint32_t k : *cur_menu_) {
      q_coeff_[k] = 0.0;
      in_menu_[k] = 0;
    }
  }
  dk_ = n_dk_ + doc * num_topics_;
  cur_menu_ = menu;

  s_ck_sum_ = 0.0;
  if (menu == nullptr) {
    for (uint32_t k = 0; k < num_topics_; ++k) {
      q_coeff_[k] = (static_cast<double>(dk_[k]) + alpha_) * c_[k];
      s_ck_sum_ += c_[k];
    }
  } else {
    for (uint32_t k : *menu) {
      if (in_menu_[k]) continue;  // tolerate duplicate menu entries
      in_menu_[k] = 1;
      q_coeff_[k] = (static_cast<double>(dk_[k]) + alpha_) * c_[k];
      s_ck_sum_ += c_[k];
    }
  }

  doc_list_.Assign(dk_, num_topics_, 1);
  r_nc_sum_ = 0.0;
  for (const auto& e : doc_list_) {
    r_nc_sum_ += static_cast<double>(e.count) * c_[e.topic];
  }
}

void GibbsSparseSweeper::RemoveToken(TermId w, uint32_t topic) {
  // Retire the topic's bucket contributions before mutating, re-add after:
  // both n_dk and c_k change.
  const double old_dk = static_cast<double>(dk_[topic]);
  s_ck_sum_ -= c_[topic];
  r_nc_sum_ -= old_dk * c_[topic];

  RemoveTokenCounts(dk_, w, topic);
  counts_ok_ &= doc_list_.Decrement(topic);
  counts_ok_ &= word_lists_[w].Decrement(topic);

  c_[topic] = 1.0 / (static_cast<double>(n_k_[topic]) + v_beta_);
  const double new_dk = static_cast<double>(dk_[topic]);
  s_ck_sum_ += c_[topic];
  r_nc_sum_ += new_dk * c_[topic];
  q_coeff_[topic] = (new_dk + alpha_) * c_[topic];
}

void GibbsSparseSweeper::AddToken(TermId w, uint32_t topic) {
  const double old_dk = static_cast<double>(dk_[topic]);
  s_ck_sum_ -= c_[topic];
  r_nc_sum_ -= old_dk * c_[topic];

  AddTokenCounts(dk_, w, topic);
  doc_list_.Increment(topic);
  word_lists_[w].Increment(topic);

  c_[topic] = 1.0 / (static_cast<double>(n_k_[topic]) + v_beta_);
  const double new_dk = old_dk + 1.0;
  s_ck_sum_ += c_[topic];
  r_nc_sum_ += new_dk * c_[topic];
  q_coeff_[topic] = (new_dk + alpha_) * c_[topic];
}

uint32_t GibbsSparseSweeper::FallbackTopic() const {
  return cur_menu_ == nullptr ? 0 : (*cur_menu_)[0];
}

uint32_t GibbsSparseSweeper::DrawTopic(TermId w, uint32_t /*old*/, Rng* rng) {
  const TopicCountList& wl = word_lists_[w];
  q_scratch_.resize(wl.size());
  double q_mass = 0.0;
  for (size_t i = 0; i < wl.size(); ++i) {
    // q_coeff_ is zero off the menu, so disallowed topics contribute 0.
    const double qk =
        static_cast<double>(wl.entry(i).count) * q_coeff_[wl.entry(i).topic];
    q_scratch_[i] = qk;
    q_mass += qk;
  }
  const double s_mass = alpha_ * beta_ * s_ck_sum_;
  const double r_mass = beta_ * r_nc_sum_;
  const double total = q_mass + r_mass + s_mass;
  last_mass_ = total;
  if (!(total > 0.0) || !std::isfinite(total)) {
    rng->DegenerateFallback(num_topics_);
    return FallbackTopic();
  }

  double u = rng->UniformDouble() * total;
  // Largest bucket first: q usually dominates after burn-in, then r, s. A
  // bucket whose weights are all dust passes the draw on to the next.
  if (u < q_mass) {
    const size_t i = ScanCumulative(
        wl.size(), u, [&](size_t j) { return q_scratch_[j]; });
    if (i != kNoPick) return wl.entry(i).topic;
  }
  u -= q_mass;
  if (u < r_mass) {
    const size_t i = ScanCumulative(doc_list_.size(), u, [&](size_t j) {
      const TopicCountList::Entry& e = doc_list_.entry(j);
      return beta_ * static_cast<double>(e.count) * c_[e.topic];
    });
    if (i != kNoPick) return doc_list_.entry(i).topic;
  }
  u -= r_mass;
  const double ab = alpha_ * beta_;
  if (cur_menu_ == nullptr) {
    const size_t k =
        ScanCumulative(num_topics_, u, [&](size_t j) { return ab * c_[j]; });
    if (k != kNoPick) return static_cast<uint32_t>(k);
  } else {
    const std::vector<uint32_t>& menu = *cur_menu_;
    const size_t m = ScanCumulative(
        menu.size(), u, [&](size_t j) { return ab * c_[menu[j]]; });
    if (m != kNoPick) return menu[m];
  }
  return FallbackTopic();
}

void GibbsSparseSweeper::BucketMasses(TermId w, double* s, double* r,
                                      double* q) const {
  *s = alpha_ * beta_ * s_ck_sum_;
  *r = beta_ * r_nc_sum_;
  double q_mass = 0.0;
  const TopicCountList& wl = word_lists_[w];
  for (const auto& e : wl) {
    q_mass += static_cast<double>(e.count) * q_coeff_[e.topic];
  }
  *q = q_mass;
}

// ---------------------------------------------------------------------------
// GibbsAliasSweeper

GibbsAliasSweeper::GibbsAliasSweeper(size_t num_topics, size_t vocab,
                                     double alpha, double beta,
                                     size_t latent_begin)
    : SweeperBase(num_topics, vocab, alpha, beta),
      latent_begin_(latent_begin),
      c_(num_topics, 0.0),
      tables_(vocab) {}

void GibbsAliasSweeper::Bind(uint32_t* n_dk, uint32_t* n_kw, uint32_t* n_k) {
  n_dk_ = n_dk;
  n_kw_ = n_kw;
  n_k_ = n_k;
  for (size_t k = 0; k < num_topics_; ++k) {
    c_[k] = 1.0 / (static_cast<double>(n_k_[k]) + v_beta_);
  }
  // Stale tables are intentionally NOT invalidated: they remain valid
  // proposals under the MH correction, which always evaluates p() against
  // the freshly bound live counts.
  doc_list_.Clear();
  label_menu_.clear();
}

void GibbsAliasSweeper::BeginDoc(size_t doc,
                                 const std::vector<uint32_t>* menu) {
  dk_ = n_dk_ + doc * num_topics_;
  doc_list_.Assign(dk_, num_topics_, 1);
  label_menu_.clear();
  if (menu != nullptr) {
    for (uint32_t k : *menu) {
      if (k >= latent_begin_) continue;
      if (std::find(label_menu_.begin(), label_menu_.end(), k) !=
          label_menu_.end()) {
        continue;  // tolerate duplicate menu entries
      }
      label_menu_.push_back(k);
    }
  }
}

void GibbsAliasSweeper::RemoveToken(TermId w, uint32_t topic) {
  RemoveTokenCounts(dk_, w, topic);
  counts_ok_ &= doc_list_.Decrement(topic);
  c_[topic] = 1.0 / (static_cast<double>(n_k_[topic]) + v_beta_);
}

void GibbsAliasSweeper::AddToken(TermId w, uint32_t topic) {
  AddTokenCounts(dk_, w, topic);
  doc_list_.Increment(topic);
  c_[topic] = 1.0 / (static_cast<double>(n_k_[topic]) + v_beta_);
}

double GibbsAliasSweeper::TrueDensity(TermId w, uint32_t k) const {
  // Off-menu topics have zero posterior mass in LLDA: latent topics are in
  // every menu, label topics only when the document carries the label.
  if (k < latent_begin_ &&
      std::find(label_menu_.begin(), label_menu_.end(), k) ==
          label_menu_.end()) {
    return 0.0;
  }
  const double n_dk = static_cast<double>(dk_[k]);
  const double n_kw = static_cast<double>(kw(k, w));
  return (n_dk + alpha_) * (n_kw + beta_) * c_[k];
}

double GibbsAliasSweeper::ProposalDensity(TermId w, uint32_t k,
                                          const AliasTable& table) const {
  const double n_kw = static_cast<double>(kw(k, w));
  const double word_part = (n_kw + beta_) * c_[k];
  double g = static_cast<double>(dk_[k]) * word_part;
  if (k < latent_begin_) {
    if (std::find(label_menu_.begin(), label_menu_.end(), k) !=
        label_menu_.end()) {
      g += alpha_ * word_part;
    }
  } else if (!table.empty()) {
    g += table.weight(k - latent_begin_);
  }
  return g;
}

uint32_t GibbsAliasSweeper::Propose(double exact_mass,
                                    const AliasTable& table, Rng* rng) const {
  const double total = exact_mass + table.total();
  double u = rng->UniformDouble() * total;
  if (u < exact_mass || table.empty()) {
    const size_t i = ScanCumulative(
        exact_.size(), u, [&](size_t j) { return exact_[j].second; });
    if (i != kNoPick) return exact_[i].first;
    // exact_mass was all floating-point dust; fall through to the table.
  }
  return static_cast<uint32_t>(table.Sample(rng) + latent_begin_);
}

uint32_t GibbsAliasSweeper::DrawTopic(TermId w, uint32_t old, Rng* rng) {
  // Live exact components: the document's topics and (LLDA) its labels'
  // α-prior, both cheap because both lists are short. A label topic with
  // n_dk > 0 contributes through both entries; ProposalDensity sums the
  // same way, so g() matches the drawn mixture exactly.
  exact_.clear();
  double exact_mass = 0.0;
  for (const auto& e : doc_list_) {
    const double n_kw = static_cast<double>(kw(e.topic, w));
    const double weight =
        static_cast<double>(e.count) * (n_kw + beta_) * c_[e.topic];
    exact_.emplace_back(e.topic, weight);
    exact_mass += weight;
  }
  for (uint32_t k : label_menu_) {
    const double n_kw = static_cast<double>(kw(k, w));
    const double weight = alpha_ * (n_kw + beta_) * c_[k];
    exact_.emplace_back(k, weight);
    exact_mass += weight;
  }

  AliasTable& table = tables_.Get(w, [&](std::vector<double>* weights) {
    weights->reserve(num_topics_ - latent_begin_);
    for (size_t k = latent_begin_; k < num_topics_; ++k) {
      const double n_kw =
          static_cast<double>(n_kw_[k * vocab_ + w]);
      weights->push_back(alpha_ * (n_kw + beta_) * c_[k]);
    }
  });

  const double g_total = exact_mass + table.total();
  last_mass_ = g_total;
  if (!(g_total > 0.0) || !std::isfinite(g_total)) {
    rng->DegenerateFallback(num_topics_);
    return label_menu_.empty() ? static_cast<uint32_t>(latent_begin_)
                               : label_menu_[0];
  }

  return MetropolisHastings(
      old, rng, [&] { return Propose(exact_mass, table, rng); },
      [&](uint32_t k) { return TrueDensity(w, k); },
      [&](uint32_t k) { return ProposalDensity(w, k, table); });
}

// ---------------------------------------------------------------------------
// BtmSparseSweeper

BtmSparseSweeper::BtmSparseSweeper(size_t num_topics, size_t vocab,
                                   double alpha, double beta)
    : BitermCoefSweeper(num_topics, vocab, alpha, beta), word_lists_(vocab) {}

void BtmSparseSweeper::Bind(uint32_t* n_z, uint32_t* n_kw) {
  BindCoef(n_z, n_kw);
  coef_sum_ = 0.0;
  for (double coef : coef_) coef_sum_ += coef;
  for (size_t w = 0; w < vocab_; ++w) {
    word_lists_[w].Assign(n_kw_ + w, num_topics_, vocab_);
  }
}

void BtmSparseSweeper::RemoveBiterm(TermId w1, TermId w2, uint32_t topic) {
  coef_sum_ -= coef_[topic];
  RemoveBitermCounts(w1, w2, topic);
  counts_ok_ &= word_lists_[w1].Decrement(topic);
  counts_ok_ &= word_lists_[w2].Decrement(topic);
  RefreshCoef(topic);
  coef_sum_ += coef_[topic];
}

void BtmSparseSweeper::AddBiterm(TermId w1, TermId w2, uint32_t topic) {
  coef_sum_ -= coef_[topic];
  AddBitermCounts(w1, w2, topic);
  word_lists_[w1].Increment(topic);
  word_lists_[w2].Increment(topic);
  RefreshCoef(topic);
  coef_sum_ += coef_[topic];
}

uint32_t BtmSparseSweeper::DrawTopic(TermId w1, TermId w2, uint32_t /*old*/,
                                     Rng* rng) {
  // p(k) ∝ coef_k (n1+β)(n2+β) = coef_k n1 (n2+β) + β coef_k n2 + β² coef_k
  // — the three buckets below. Exact for w1 == w2 as well:
  // n(n+β) + βn + β² = (n+β)².
  const TopicCountList& wl1 = word_lists_[w1];
  const TopicCountList& wl2 = word_lists_[w2];
  q_scratch1_.resize(wl1.size());
  q_scratch2_.resize(wl2.size());
  double q1_mass = 0.0;
  for (size_t i = 0; i < wl1.size(); ++i) {
    const uint32_t k = wl1.entry(i).topic;
    const double n2 = static_cast<double>(kw(k, w2));
    const double qk =
        static_cast<double>(wl1.entry(i).count) * (n2 + beta_) * coef_[k];
    q_scratch1_[i] = qk;
    q1_mass += qk;
  }
  double q2_mass = 0.0;
  for (size_t i = 0; i < wl2.size(); ++i) {
    const uint32_t k = wl2.entry(i).topic;
    const double qk =
        beta_ * static_cast<double>(wl2.entry(i).count) * coef_[k];
    q_scratch2_[i] = qk;
    q2_mass += qk;
  }
  const double s_mass = beta_ * beta_ * coef_sum_;
  const double total = q1_mass + q2_mass + s_mass;
  last_mass_ = total;
  if (!(total > 0.0) || !std::isfinite(total)) {
    rng->DegenerateFallback(num_topics_);
    return 0;
  }

  double u = rng->UniformDouble() * total;
  if (u < q1_mass) {
    const size_t i = ScanCumulative(
        wl1.size(), u, [&](size_t j) { return q_scratch1_[j]; });
    if (i != kNoPick) return wl1.entry(i).topic;
  }
  u -= q1_mass;
  if (u < q2_mass) {
    const size_t i = ScanCumulative(
        wl2.size(), u, [&](size_t j) { return q_scratch2_[j]; });
    if (i != kNoPick) return wl2.entry(i).topic;
  }
  u -= q2_mass;
  const double bb = beta_ * beta_;
  const size_t k =
      ScanCumulative(num_topics_, u, [&](size_t j) { return bb * coef_[j]; });
  return k == kNoPick ? 0 : static_cast<uint32_t>(k);
}

void BtmSparseSweeper::BucketMasses(TermId w1, TermId w2, double* s,
                                    double* q1, double* q2) const {
  *s = beta_ * beta_ * coef_sum_;
  double mass1 = 0.0;
  for (const auto& e : word_lists_[w1]) {
    const double n2 = static_cast<double>(kw(e.topic, w2));
    mass1 += static_cast<double>(e.count) * (n2 + beta_) * coef_[e.topic];
  }
  *q1 = mass1;
  double mass2 = 0.0;
  for (const auto& e : word_lists_[w2]) {
    mass2 += beta_ * static_cast<double>(e.count) * coef_[e.topic];
  }
  *q2 = mass2;
}

// ---------------------------------------------------------------------------
// BtmAliasSweeper

BtmAliasSweeper::BtmAliasSweeper(size_t num_topics, size_t vocab,
                                 double alpha, double beta)
    : BitermCoefSweeper(num_topics, vocab, alpha, beta), tables_(vocab) {}

void BtmAliasSweeper::Bind(uint32_t* n_z, uint32_t* n_kw) {
  BindCoef(n_z, n_kw);
}

void BtmAliasSweeper::RemoveBiterm(TermId w1, TermId w2, uint32_t topic) {
  RemoveBitermCounts(w1, w2, topic);
  RefreshCoef(topic);
}

void BtmAliasSweeper::AddBiterm(TermId w1, TermId w2, uint32_t topic) {
  AddBitermCounts(w1, w2, topic);
  RefreshCoef(topic);
}

double BtmAliasSweeper::TrueDensity(TermId w1, TermId w2, uint32_t k) const {
  const double n1 = static_cast<double>(kw(k, w1));
  const double n2 = static_cast<double>(kw(k, w2));
  return coef_[k] * (n1 + beta_) * (n2 + beta_);
}

uint32_t BtmAliasSweeper::DrawTopic(TermId w1, TermId w2, uint32_t old,
                                    Rng* rng) {
  // Both words' stale tables; for w1 == w2 both references name the same
  // slot, which is fine — the mixture just doubles that table's mass, and
  // the density query below sums both terms consistently.
  const auto fill = [&](TermId w) {
    return [this, w](std::vector<double>* weights) {
      weights->reserve(num_topics_);
      for (size_t k = 0; k < num_topics_; ++k) {
        const double n_z = static_cast<double>(n_k_[k]);
        const double n_kw = static_cast<double>(n_kw_[k * vocab_ + w]);
        weights->push_back((n_z + alpha_) * (n_kw + beta_) /
                           (2.0 * n_z + v_beta_));
      }
    };
  };
  AliasTable& t1 = tables_.Get(w1, fill(w1));
  AliasTable& t2 = tables_.Get(w2, fill(w2));

  const double g_total = t1.total() + t2.total();
  last_mass_ = g_total;
  if (!(g_total > 0.0) || !std::isfinite(g_total)) {
    rng->DegenerateFallback(num_topics_);
    return 0;
  }
  const auto g_density = [&](uint32_t k) {
    double g = 0.0;
    if (!t1.empty()) g += t1.weight(k);
    if (!t2.empty()) g += t2.weight(k);
    return g;
  };
  const auto propose = [&]() -> uint32_t {
    const double u = rng->UniformDouble() * g_total;
    const AliasTable& t = (u < t1.total() && !t1.empty()) ? t1 : t2;
    return static_cast<uint32_t>(t.Sample(rng));
  };
  return MetropolisHastings(
      old, rng, propose,
      [&](uint32_t k) { return TrueDensity(w1, w2, k); }, g_density);
}

}  // namespace microrec::topic
