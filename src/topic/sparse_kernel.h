// Per-token draw kernels ("sweepers") for the collapsed Gibbs samplers of
// LDA, LLDA and BTM, and the one training loop that runs them (RunGibbs).
//
// Three families, selected by TrainOptions::sampler_kernel (DESIGN.md §15):
//
//  - kDense: the O(K) cumulative scan over
//      p(k) ∝ (n_dk + α)(n_kw + β) / (n_k + Vβ)
//    (GibbsDenseSweeper, BtmDenseSweeper). Its sequential draw sequence is
//    the paper sampler's, bit for bit (tests/topic/parallel_gibbs_test.cc
//    pins it).
//
//  - kSparse (SparseLDA; Yao, Mimno & McCallum 2009): the same mass
//    splits into three buckets with c_k = 1/(n_k + Vβ):
//      s = αβ Σ c_k            (smoothing-only; shared by every token)
//      r = β  Σ n_dk c_k       (document; nonzero only on the doc's topics)
//      q = Σ n_kw (n_dk+α) c_k (topic-word; nonzero only on the word's
//                               topics)
//    s and r are maintained incrementally; q is a scan of the word's
//    sorted-by-count topic list with the per-doc coefficient (n_dk+α)c_k
//    cached dense. Buckets are scanned largest-first (q, r, s), so a draw
//    costs O(|word topics| + |doc topics|) instead of O(K). Exact: the
//    bucket sum equals the dense mass, draw for draw.
//
//  - kAlias (AliasLDA, Li et al. 2014 / LightLDA, Yuan et al. 2015): the
//    α-smoothed topic-word part is served from a *stale* per-word Walker
//    alias table (util/alias_table.h) rebuilt only every kAliasStaleBudget
//    draws; the document part is computed exactly. Staleness is corrected
//    by Metropolis-Hastings: each token takes two independence-sampler
//    steps whose acceptance ratio p(new)g(old) / (p(old)g(new)) uses live
//    counts for p, so the stationary distribution is the exact posterior
//    despite O(1) proposals.
//
// Every sweeper implements one protocol (Bind, BeginDoc, RemoveToken /
// RemoveBiterm, DrawTopic, AddToken / AddBiterm, counts_ok, last_mass), and
// RunGibbs trains through it at any thread count: sequentially on the
// caller's Rng, or with one sweeper per topic::ParallelGibbs shard bound to
// that shard's count replicas (rebound at merge-block boundaries), so
// determinism for fixed (seed, train_threads, merge_every, sampler_kernel)
// is preserved. kSparse and kAlias are not bit-identical to kDense — they
// consume different draw sequences — and both are covered by the same
// statistical-equivalence contract as parallel training
// (tests/topic/stat_equiv_test.cc).
#ifndef MICROREC_TOPIC_SPARSE_KERNEL_H_
#define MICROREC_TOPIC_SPARSE_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "topic/doc_set.h"
#include "topic/parallel_gibbs.h"
#include "topic/topic_model.h"
#include "util/alias_table.h"
#include "util/rng.h"

namespace microrec::topic {

/// "dense", "sparse" or "alias" — the CLI / env spelling.
const char* SamplerKernelName(SamplerKernel kernel);
/// Parses the spelling above; false (out untouched) on anything else.
bool ParseSamplerKernel(std::string_view text, SamplerKernel* out);

/// A topic-count row (one document's topics, or one word's topics) kept
/// sorted by count descending, so cumulative bucket scans meet the draw
/// target after the fewest entries. Increment/Decrement preserve the order
/// by bubbling the touched entry; zero-count entries are erased.
class TopicCountList {
 public:
  struct Entry {
    uint32_t topic;
    uint32_t count;
  };

  /// Rebuilds the list from `num_topics` counts at `counts[k * stride]`
  /// (stride 1: an n_dk row; stride V: an n_kw column). Sorted by (count
  /// desc, topic asc) — a pure function of the counts, independent of any
  /// prior increment history.
  void Assign(const uint32_t* counts, size_t num_topics, size_t stride);

  void Clear() { entries_.clear(); }

  /// Adds one to `topic`, inserting it at count 1 if absent.
  void Increment(uint32_t topic);

  /// Removes one from `topic`; false if the topic is not in the list (the
  /// list disagrees with the backing counts — corrupt state).
  bool Decrement(uint32_t topic);

  size_t size() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + entries_.size(); }

 private:
  std::vector<Entry> entries_;
};

/// Draws a kAlias kernel serves from a word's stale alias table before
/// rebuilding it from live counts. This keeps a typical word's table
/// roughly one-to-two sweeps stale. Larger budgets measurably slow mixing
/// (budgets near 256 most of all): the MH correction keeps the stationary
/// distribution exact but rejects more as the proposal drifts, which shows
/// up as worse perplexity at a fixed iteration count well before the
/// stat-equiv bands catch it (DESIGN.md §15).
inline constexpr int kAliasStaleBudget = 32;

/// The per-word stale alias tables of a kAlias kernel: one lazily built
/// slot per vocabulary word, rebuilt from live counts after
/// kAliasStaleBudget draws have been served. Slots are allocated up front
/// so references stay valid across Get() calls on other words (BTM queries
/// two words per biterm).
class WordAliasTables {
 public:
  explicit WordAliasTables(size_t vocab) : slots_(vocab) {}

  /// Returns word `w`'s table, rebuilding it first when its budget is
  /// spent. `fill(&weights)` must append the table's weight vector; a
  /// degenerate fill leaves the table empty (callers treat an empty table
  /// as zero proposal mass). Each call consumes one unit of budget.
  template <typename FillFn>
  AliasTable& Get(TermId w, const FillFn& fill) {
    Slot& slot = slots_[w];
    if (slot.remaining <= 0) {
      scratch_.clear();
      fill(&scratch_);
      slot.table.Build(scratch_);
      slot.remaining = kAliasStaleBudget;
    }
    --slot.remaining;
    return slot.table;
  }

 private:
  struct Slot {
    AliasTable table;
    int remaining = 0;
  };
  std::vector<Slot> slots_;
  std::vector<double> scratch_;
};

/// The dense O(K) kernel for LDA and LLDA: the historical collapsed-Gibbs
/// arithmetic, operation for operation, behind the sweeper protocol. LDA
/// passes a null menu to BeginDoc and the draw scans all K topics; LLDA
/// passes the document's label+latent menu and the draw scans only it.
///
/// Protocol per token i of the bound counts' document d:
///   BeginDoc(d, menu)   — once per document
///   RemoveToken(w, z_i) → z_i' = DrawTopic(w, z_i, rng) → AddToken(w, z_i')
/// Bind must follow any external mutation of the count arrays, e.g. a
/// ParallelGibbs merge barrier: the sparse and alias sweepers derive state
/// from them.
class GibbsDenseSweeper {
 public:
  GibbsDenseSweeper(size_t num_topics, size_t vocab, double alpha,
                    double beta)
      : num_topics_(num_topics),
        vocab_(vocab),
        alpha_(alpha),
        beta_(beta),
        v_beta_(static_cast<double>(vocab) * beta) {}

  void Bind(uint32_t* n_dk, uint32_t* n_kw, uint32_t* n_k) {
    n_dk_ = n_dk;
    n_kw_ = n_kw;
    n_k_ = n_k;
  }

  void BeginDoc(size_t doc, const std::vector<uint32_t>* menu) {
    dk_ = n_dk_ + doc * num_topics_;
    menu_ = menu;
  }

  void RemoveToken(TermId w, uint32_t topic) {
    counts_ok_ &= GuardedDecrement(&dk_[topic]);
    counts_ok_ &=
        GuardedDecrement(&n_kw_[static_cast<size_t>(topic) * vocab_ + w]);
    counts_ok_ &= GuardedDecrement(&n_k_[topic]);
  }

  uint32_t DrawTopic(TermId w, uint32_t /*old*/, Rng* rng) {
    if (menu_ == nullptr) {
      weights_.resize(num_topics_);
      for (size_t k = 0; k < num_topics_; ++k) weights_[k] = Weight(w, k);
      return static_cast<uint32_t>(
          rng->Categorical(weights_.data(), num_topics_));
    }
    const std::vector<uint32_t>& menu = *menu_;
    weights_.resize(menu.size());
    for (size_t m = 0; m < menu.size(); ++m) {
      weights_[m] = Weight(w, menu[m]);
    }
    return menu[rng->Categorical(weights_.data(), menu.size())];
  }

  void AddToken(TermId w, uint32_t topic) {
    ++dk_[topic];
    ++n_kw_[static_cast<size_t>(topic) * vocab_ + w];
    ++n_k_[topic];
  }

  /// False once any count decrement would have underflowed; surfaces as
  /// kDataLoss.
  bool counts_ok() const { return counts_ok_; }
  /// Sum of the last draw's weights, for the per-sweep finiteness guard.
  double last_mass() const {
    double total = 0.0;
    for (double weight : weights_) total += weight;
    return total;
  }

 private:
  double Weight(TermId w, size_t k) const {
    return (dk_[k] + alpha_) * (n_kw_[k * vocab_ + w] + beta_) /
           (n_k_[k] + v_beta_);
  }

  const size_t num_topics_;
  const size_t vocab_;
  const double alpha_;
  const double beta_;
  const double v_beta_;

  uint32_t* n_dk_ = nullptr;
  uint32_t* n_kw_ = nullptr;
  uint32_t* n_k_ = nullptr;
  uint32_t* dk_ = nullptr;  // the current document's n_dk row
  const std::vector<uint32_t>* menu_ = nullptr;  // null → all topics
  std::vector<double> weights_;  // the last draw's weights

  bool counts_ok_ = true;
};

/// SparseLDA kernel for LDA and LLDA. LDA passes a null menu to BeginDoc
/// (all K topics allowed); LLDA passes the document's label+latent menu and
/// the buckets restrict to it. Exact: equivalent in distribution to the
/// dense scan over the same counts.
///
/// Same protocol as GibbsDenseSweeper.
class GibbsSparseSweeper {
 public:
  GibbsSparseSweeper(size_t num_topics, size_t vocab, double alpha,
                     double beta);

  /// Binds the (mutable, caller-owned) count arrays and rebuilds all
  /// derived state — per-word topic lists, the c_k cache — from them.
  void Bind(uint32_t* n_dk, uint32_t* n_kw, uint32_t* n_k);

  void BeginDoc(size_t doc, const std::vector<uint32_t>* menu);
  void RemoveToken(TermId w, uint32_t topic);
  /// Draws the token's new topic. `old` is unused (the sparse draw is
  /// exact); the parameter keeps the kernel interface uniform with the
  /// MH-based alias sweeper.
  uint32_t DrawTopic(TermId w, uint32_t old, Rng* rng);
  void AddToken(TermId w, uint32_t topic);

  /// False once any count decrement would have underflowed or a topic list
  /// disagreed with its backing counts; surfaces as kDataLoss.
  bool counts_ok() const { return counts_ok_; }
  /// Total mass of the most recent draw, for the per-sweep finiteness
  /// guard.
  double last_mass() const { return last_mass_; }

  /// Test hook: the three bucket masses for word `w` in the current
  /// document. s + r + q must equal the dense mass over the same counts.
  void BucketMasses(TermId w, double* s, double* r, double* q) const;

 private:
  uint32_t FallbackTopic() const;

  const size_t num_topics_;
  const size_t vocab_;
  const double alpha_;
  const double beta_;
  const double v_beta_;

  uint32_t* n_dk_ = nullptr;
  uint32_t* n_kw_ = nullptr;
  uint32_t* n_k_ = nullptr;

  std::vector<TopicCountList> word_lists_;  // one per word, over n_kw
  std::vector<double> c_;                   // c_k = 1 / (n_k + Vβ), live
  std::vector<double> q_coeff_;  // (n_dk + α) c_k on the menu, else 0
  TopicCountList doc_list_;      // current document's topics, over n_dk
  std::vector<double> q_scratch_;

  size_t cur_doc_ = 0;
  const std::vector<uint32_t>* cur_menu_ = nullptr;  // null → all topics
  std::vector<uint8_t> in_menu_;
  double s_ck_sum_ = 0.0;  // Σ_{k ∈ menu} c_k        (s = αβ · this)
  double r_nc_sum_ = 0.0;  // Σ_{k ∈ doc} n_dk c_k    (r = β  · this)

  bool counts_ok_ = true;
  double last_mass_ = 0.0;
};

/// Alias-table kernel for LDA (latent_begin = 0) and LLDA (latent_begin =
/// num_labels; the stale table covers only the shared latent block, label
/// topics are handled exactly since menus are small). See the file comment
/// for the proposal / MH-correction scheme.
class GibbsAliasSweeper {
 public:
  GibbsAliasSweeper(size_t num_topics, size_t vocab, double alpha,
                    double beta, size_t latent_begin);

  void Bind(uint32_t* n_dk, uint32_t* n_kw, uint32_t* n_k);
  void BeginDoc(size_t doc, const std::vector<uint32_t>* menu);
  void RemoveToken(TermId w, uint32_t topic);
  /// Two MH steps from `old` (the just-removed assignment) against the
  /// mixed exact-document / stale-word proposal.
  uint32_t DrawTopic(TermId w, uint32_t old, Rng* rng);
  void AddToken(TermId w, uint32_t topic);

  bool counts_ok() const { return counts_ok_; }
  double last_mass() const { return last_mass_; }

 private:
  double TrueDensity(TermId w, uint32_t k) const;
  double ProposalDensity(TermId w, uint32_t k, const AliasTable& table) const;
  uint32_t Propose(double exact_mass, const AliasTable& table,
                   Rng* rng) const;

  const size_t num_topics_;
  const size_t vocab_;
  const double alpha_;
  const double beta_;
  const double v_beta_;
  const size_t latent_begin_;

  uint32_t* n_dk_ = nullptr;
  uint32_t* n_kw_ = nullptr;
  uint32_t* n_k_ = nullptr;

  std::vector<double> c_;  // live 1 / (n_k + Vβ)
  TopicCountList doc_list_;
  WordAliasTables tables_;

  size_t cur_doc_ = 0;
  std::vector<uint32_t> label_menu_;  // current doc's label topics
  // Exact proposal components of the current token (doc topics + labels).
  mutable std::vector<std::pair<uint32_t, double>> exact_;

  bool counts_ok_ = true;
  double last_mass_ = 0.0;
};

/// The dense O(K) kernel for BTM: the historical biterm arithmetic,
///   p(k) ∝ (n_z+α)(n_kw1+β)(n_kw2+β) / ((2n_z+Vβ)(2n_z+Vβ+1)),
/// operation for operation, behind the sweeper protocol. Per biterm i:
///   RemoveBiterm(w1, w2, z_i) → z_i' = DrawTopic(w1, w2, z_i, rng)
///   → AddBiterm(w1, w2, z_i')
class BtmDenseSweeper {
 public:
  BtmDenseSweeper(size_t num_topics, size_t vocab, double alpha, double beta)
      : num_topics_(num_topics),
        vocab_(vocab),
        alpha_(alpha),
        beta_(beta),
        v_beta_(static_cast<double>(vocab) * beta),
        weights_(num_topics, 0.0) {}

  void Bind(uint32_t* n_z, uint32_t* n_kw) {
    n_z_ = n_z;
    n_kw_ = n_kw;
  }

  void RemoveBiterm(TermId w1, TermId w2, uint32_t topic) {
    counts_ok_ &= GuardedDecrement(&n_z_[topic]);
    counts_ok_ &=
        GuardedDecrement(&n_kw_[static_cast<size_t>(topic) * vocab_ + w1]);
    counts_ok_ &=
        GuardedDecrement(&n_kw_[static_cast<size_t>(topic) * vocab_ + w2]);
  }

  uint32_t DrawTopic(TermId w1, TermId w2, uint32_t /*old*/, Rng* rng) {
    for (size_t k = 0; k < num_topics_; ++k) {
      const double denom = 2.0 * n_z_[k] + v_beta_;
      weights_[k] = (n_z_[k] + alpha_) * (n_kw_[k * vocab_ + w1] + beta_) /
                    denom * (n_kw_[k * vocab_ + w2] + beta_) / (denom + 1.0);
    }
    return static_cast<uint32_t>(
        rng->Categorical(weights_.data(), num_topics_));
  }

  void AddBiterm(TermId w1, TermId w2, uint32_t topic) {
    ++n_z_[topic];
    ++n_kw_[static_cast<size_t>(topic) * vocab_ + w1];
    ++n_kw_[static_cast<size_t>(topic) * vocab_ + w2];
  }

  bool counts_ok() const { return counts_ok_; }
  /// Sum of the last draw's weights, for the per-sweep finiteness guard.
  double last_mass() const {
    double total = 0.0;
    for (double weight : weights_) total += weight;
    return total;
  }

 private:
  const size_t num_topics_;
  const size_t vocab_;
  const double alpha_;
  const double beta_;
  const double v_beta_;

  uint32_t* n_z_ = nullptr;
  uint32_t* n_kw_ = nullptr;
  std::vector<double> weights_;  // the last draw's weights

  bool counts_ok_ = true;
};

/// SparseLDA-style kernel for BTM. The biterm mass
///   p(k) ∝ (n_z+α)(n_kw1+β)(n_kw2+β) / ((2n_z+Vβ)(2n_z+Vβ+1))
/// factors over coef_k = (n_z+α) / ((2n_z+Vβ)(2n_z+Vβ+1)) into
///   q1 = Σ n_kw1 (n_kw2+β) coef_k   (first word's topic list)
///   q2 = β Σ n_kw2 coef_k           (second word's topic list)
///   s  = β² Σ coef_k                (smoothing; incremental)
/// — the biterm's two words play the role LDA's document bucket plays.
/// The decomposition is exact, including the w1 == w2 case.
class BtmSparseSweeper {
 public:
  BtmSparseSweeper(size_t num_topics, size_t vocab, double alpha,
                   double beta);

  void Bind(uint32_t* n_z, uint32_t* n_kw);
  void RemoveBiterm(TermId w1, TermId w2, uint32_t topic);
  uint32_t DrawTopic(TermId w1, TermId w2, uint32_t old, Rng* rng);
  void AddBiterm(TermId w1, TermId w2, uint32_t topic);

  bool counts_ok() const { return counts_ok_; }
  double last_mass() const { return last_mass_; }

  /// Test hook: the bucket masses for a biterm; s + q1 + q2 must equal the
  /// dense mass.
  void BucketMasses(TermId w1, TermId w2, double* s, double* q1,
                    double* q2) const;

 private:
  void RefreshCoef(uint32_t k);

  const size_t num_topics_;
  const size_t vocab_;
  const double alpha_;
  const double beta_;
  const double v_beta_;

  uint32_t* n_z_ = nullptr;
  uint32_t* n_kw_ = nullptr;

  std::vector<TopicCountList> word_lists_;
  std::vector<double> coef_;  // live (n_z+α)/((2n_z+Vβ)(2n_z+Vβ+1))
  double coef_sum_ = 0.0;     // Σ coef_k (s = β² · this)
  std::vector<double> q_scratch1_;
  std::vector<double> q_scratch2_;

  bool counts_ok_ = true;
  double last_mass_ = 0.0;
};

/// Alias-table kernel for BTM: the proposal is the even mixture of the two
/// words' stale tables, each built from
///   q̃_w(k) = (n_z+α)(n_kw+β) / (2n_z+Vβ)
/// over all K topics, with the same two-step MH correction against the
/// live biterm density as the LDA alias sweeper.
class BtmAliasSweeper {
 public:
  BtmAliasSweeper(size_t num_topics, size_t vocab, double alpha,
                  double beta);

  void Bind(uint32_t* n_z, uint32_t* n_kw);
  void RemoveBiterm(TermId w1, TermId w2, uint32_t topic);
  uint32_t DrawTopic(TermId w1, TermId w2, uint32_t old, Rng* rng);
  void AddBiterm(TermId w1, TermId w2, uint32_t topic);

  bool counts_ok() const { return counts_ok_; }
  double last_mass() const { return last_mass_; }

 private:
  double TrueDensity(TermId w1, TermId w2, uint32_t k) const;
  void RefreshCoef(uint32_t k);

  const size_t num_topics_;
  const size_t vocab_;
  const double alpha_;
  const double beta_;
  const double v_beta_;

  uint32_t* n_z_ = nullptr;
  uint32_t* n_kw_ = nullptr;

  std::vector<double> coef_;  // live, same factor as BtmSparseSweeper
  WordAliasTables tables_;

  bool counts_ok_ = true;
  double last_mass_ = 0.0;
};

/// Flattens `docs` doc-major into `words` and returns each document's token
/// offset: document d owns tokens [doc_begin[d], doc_begin[d + 1]).
std::vector<size_t> FlattenDocs(const DocSet& docs,
                                std::vector<TermId>* words);

/// Sweeps documents [doc_begin_idx, doc_end_idx) of the flattened corpus
/// through `sweeper` (a GibbsDense-, GibbsSparse- or GibbsAliasSweeper):
/// remove → draw → add per token. `menus` is null for LDA; for LLDA it
/// holds each document's allowed-topic menu.
template <typename Sweeper>
void SweepDocRange(Sweeper& sweeper, size_t doc_begin_idx, size_t doc_end_idx,
                   const std::vector<size_t>& doc_begin,
                   const std::vector<TermId>& words,
                   const std::vector<std::vector<uint32_t>>* menus,
                   uint32_t* z, Rng* rng) {
  for (size_t d = doc_begin_idx; d < doc_end_idx; ++d) {
    sweeper.BeginDoc(d, menus == nullptr ? nullptr : &(*menus)[d]);
    for (size_t i = doc_begin[d]; i < doc_begin[d + 1]; ++i) {
      const TermId w = words[i];
      sweeper.RemoveToken(w, z[i]);
      z[i] = sweeper.DrawTopic(w, z[i], rng);
      sweeper.AddToken(w, z[i]);
    }
  }
}

/// BTM equivalent of SweepDocRange over a flat biterm range.
template <typename Sweeper>
void SweepBitermRange(Sweeper& sweeper, size_t begin, size_t end,
                      const std::vector<std::pair<TermId, TermId>>& biterms,
                      uint32_t* z, Rng* rng) {
  for (size_t i = begin; i < end; ++i) {
    const auto [w1, w2] = biterms[i];
    sweeper.RemoveBiterm(w1, w2, z[i]);
    z[i] = sweeper.DrawTopic(w1, w2, z[i], rng);
    sweeper.AddBiterm(w1, w2, z[i]);
  }
}

/// Calls `run(make_sweeper)` with the factory of `kernel`'s LDA/LLDA
/// sweeper. `latent_begin` is the first latent topic (0 for LDA, the label
/// count for LLDA): the alias kernel's stale tables cover only the latent
/// block.
template <typename RunFn>
Status WithDocSweeper(SamplerKernel kernel, size_t num_topics, size_t vocab,
                      double alpha, double beta, size_t latent_begin,
                      const RunFn& run) {
  switch (kernel) {
    case SamplerKernel::kSparse:
      return run([&] {
        return GibbsSparseSweeper(num_topics, vocab, alpha, beta);
      });
    case SamplerKernel::kAlias:
      return run([&] {
        return GibbsAliasSweeper(num_topics, vocab, alpha, beta,
                                 latent_begin);
      });
    case SamplerKernel::kDense:
      break;
  }
  return run(
      [&] { return GibbsDenseSweeper(num_topics, vocab, alpha, beta); });
}

/// BTM counterpart of WithDocSweeper.
template <typename RunFn>
Status WithBitermSweeper(SamplerKernel kernel, size_t num_topics,
                         size_t vocab, double alpha, double beta,
                         const RunFn& run) {
  switch (kernel) {
    case SamplerKernel::kSparse:
      return run(
          [&] { return BtmSparseSweeper(num_topics, vocab, alpha, beta); });
    case SamplerKernel::kAlias:
      return run(
          [&] { return BtmAliasSweeper(num_topics, vocab, alpha, beta); });
    case SamplerKernel::kDense:
      break;
  }
  return run([&] { return BtmDenseSweeper(num_topics, vocab, alpha, beta); });
}

/// The one collapsed-Gibbs training loop of LDA, LLDA and BTM: `iterations`
/// sweeps over `num_items` items (documents, or biterms) through sweepers
/// made by `make_sweeper`. `sweep(sweeper, begin, end, rng)` sweeps items
/// [begin, end); `bind(sweeper, a, b)` binds a sweeper to the two count
/// arrays of `replicated` (or to a shard's replicas of them) plus any
/// item-owned arrays the caller binds directly.
///
///  - train_threads <= 1: one sweeper, bound once, drawing from the
///    caller's `rng` — no extra draw, so the historical draw sequence.
///  - Otherwise a ParallelGibbs seeded from one rng->NextU64() shards the
///    items and replicates `replicated`; each shard runs its own sweeper,
///    rebound to the shard's replicas at every merge-block boundary.
///
/// Both branches run the same guards in the same order: each sweep starts
/// with GuardSweep on every sweeper's last draw mass from the previous
/// sweep, and ends with count underflow → kDataLoss, then degenerate draws
/// → kInternal; after the last sweep CheckPosteriorMass checks the final
/// masses before the caller freezes φ.
template <typename MakeSweeper, typename BindFn, typename SweepFn>
Status RunGibbs(const char* model, const TrainOptions& options,
                int iterations, const resilience::CancelContext* cancel,
                obs::Histogram* sweep_hist, Rng* rng, size_t num_items,
                std::pair<std::vector<uint32_t>*, std::vector<uint32_t>*>
                    replicated,
                const MakeSweeper& make_sweeper, const BindFn& bind,
                const SweepFn& sweep) {
  std::optional<ParallelGibbs> driver;
  size_t h_a = 0;
  size_t h_b = 0;
  if (options.train_threads > 1) {
    driver.emplace(num_items, options, rng->NextU64());
    h_a = driver->AddCounts(replicated.first);
    h_b = driver->AddCounts(replicated.second);
  }
  // Each shard's sweeper on its own cache lines: sweepers write their
  // state at every token, and shards run on different cores.
  struct alignas(64) ShardSweeper {
    decltype(make_sweeper()) sweeper;
  };
  const size_t num_shards = driver ? driver->num_shards() : 1;
  std::vector<ShardSweeper> sweepers;
  sweepers.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    sweepers.push_back(ShardSweeper{make_sweeper()});
  }
  if (!driver) {
    bind(sweepers[0].sweeper, replicated.first->data(),
         replicated.second->data());
  }

  std::vector<double> mass(num_shards, 0.0);
  std::vector<uint64_t> degenerate(num_shards, 0);
  const auto sweep_shard = [&](size_t s, size_t begin, size_t end,
                               Rng* shard_rng) {
    auto& sweeper = sweepers[s].sweeper;
    const uint64_t before = shard_rng->degenerate_draws();
    sweep(sweeper, begin, end, shard_rng);
    mass[s] = sweeper.last_mass();
    degenerate[s] += shard_rng->degenerate_draws() - before;
  };
  const int merge_every = std::max(1, options.merge_every);
  for (int iter = 0; iter < iterations; ++iter) {
    MICROREC_RETURN_IF_ERROR(GuardSweep(
        model, iter, cancel, iter == 0 ? nullptr : mass.data(), num_shards));
    obs::ScopedHistogramTimer sweep_timer(sweep_hist);
    if (!driver) {
      sweep_shard(0, 0, num_items, rng);
    } else {
      driver->RunIteration(iter, [&](const ParallelGibbs::Shard& shard) {
        if (iter % merge_every == 0) {
          bind(sweepers[shard.index].sweeper, shard.Counts(h_a),
               shard.Counts(h_b));
        }
        sweep_shard(shard.index, shard.begin, shard.end, shard.rng);
      });
    }
    for (const ShardSweeper& shard : sweepers) {
      if (!shard.sweeper.counts_ok()) return CountUnderflowError(model, iter);
    }
    uint64_t draws = 0;
    for (uint64_t& d : degenerate) {
      draws += d;
      d = 0;
    }
    MICROREC_RETURN_IF_ERROR(GuardDegenerateDraws(model, iter, draws));
  }
  if (driver) driver->FlushMerge();
  return CheckPosteriorMass(model, iterations, mass.data(), num_shards);
}

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_SPARSE_KERNEL_H_
