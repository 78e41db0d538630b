#include "topic/hlda.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace microrec::topic {

namespace {

// One tree node during sampling. Nodes are never re-indexed mid-training;
// dead nodes (no documents) are skipped and compacted at freeze time.
struct Node {
  int parent = -1;
  int level = 0;
  std::vector<int> children;
  uint32_t n_docs = 0;  // documents whose path passes through this node
  std::unordered_map<TermId, uint32_t> n_w;
  uint32_t n_total = 0;
  bool alive = true;
};

// Dirichlet-multinomial predictive log-likelihood of adding the word
// multiset `add` (word -> count) to a node with counts (n_w, n_total).
double NodeLogLikelihood(const Node& node,
                         const std::unordered_map<TermId, uint32_t>& add,
                         double beta, double v_beta) {
  if (add.empty()) return 0.0;
  uint32_t m = 0;
  double ll = 0.0;
  for (const auto& [w, count] : add) {
    auto it = node.n_w.find(w);
    double base = (it == node.n_w.end() ? 0.0 : it->second) + beta;
    ll += std::lgamma(base + count) - std::lgamma(base);
    m += count;
  }
  ll += std::lgamma(node.n_total + v_beta) -
        std::lgamma(node.n_total + m + v_beta);
  return ll;
}

}  // namespace

Status Hlda::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("hlda_train");
  if (trained_) return Status::FailedPrecondition("Train called twice");
  if (config_.levels < 1) {
    return Status::InvalidArgument("levels must be >= 1");
  }
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  MICROREC_RETURN_IF_ERROR(ValidateHyperparameters(
      "HLDA", config_.alpha, config_.beta, config_.gamma));
  vocab_size_ = docs.vocab_size();
  const size_t D = docs.num_docs();
  const int L = config_.levels;
  const double alpha = config_.alpha;
  const double beta = config_.beta;
  const double gamma = config_.gamma;
  const double v_beta = static_cast<double>(vocab_size_) * beta;

  std::vector<Node> nodes;
  nodes.emplace_back();  // root, level 0

  auto new_node = [&nodes](int parent, int level) {
    int id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    nodes[id].parent = parent;
    nodes[id].level = level;
    if (parent >= 0) nodes[parent].children.push_back(id);
    return id;
  };

  // Per-document state.
  std::vector<std::vector<int>> path(D);
  std::vector<std::vector<uint8_t>> level_of(D);

  // Initialise: every document starts on a random existing-or-new path and
  // uniform level assignments.
  const uint64_t degenerate_init = rng->degenerate_draws();
  for (size_t d = 0; d < D; ++d) {
    path[d].resize(L);
    path[d][0] = 0;
    for (int l = 1; l < L; ++l) {
      Node& parent = nodes[path[d][l - 1]];
      // CRP choice among existing children or a new one.
      std::vector<double> weights;
      std::vector<int> options;
      for (int child : parent.children) {
        weights.push_back(static_cast<double>(nodes[child].n_docs));
        options.push_back(child);
      }
      weights.push_back(gamma);
      options.push_back(-1);
      size_t pick = rng->Categorical(weights.data(), weights.size());
      path[d][l] = options[pick] >= 0 ? options[pick]
                                      : new_node(path[d][l - 1], l);
    }
    const auto& words = docs.docs()[d].words;
    level_of[d].resize(words.size());
    for (size_t i = 0; i < words.size(); ++i) {
      int l = static_cast<int>(rng->UniformU32(static_cast<uint32_t>(L)));
      level_of[d][i] = static_cast<uint8_t>(l);
      Node& node = nodes[path[d][l]];
      ++node.n_w[words[i]];
      ++node.n_total;
    }
    for (int l = 0; l < L; ++l) ++nodes[path[d][l]].n_docs;
  }
  MICROREC_RETURN_IF_ERROR(GuardDegenerateDraws(
      "HLDA", 0, rng->degenerate_draws() - degenerate_init));

  // Words of a doc grouped by level (recomputed per doc per sweep).
  std::vector<std::unordered_map<TermId, uint32_t>> by_level(L);
  // Level posterior scratch, hoisted so the per-sweep guard can inspect
  // the previous sweep's last sample for numeric blow-ups.
  std::vector<double> level_weights(L);

  obs::Histogram* sweep_hist =
      obs::MetricsRegistry::Global().GetHistogram("topic.hlda.sweep_seconds");
  for (int iter = 0; iter < config_.train_iterations; ++iter) {
    MICROREC_RETURN_IF_ERROR(GuardSweep(
        "HLDA", iter, config_.cancel,
        iter == 0 ? nullptr : level_weights.data(), level_weights.size()));
    obs::ScopedHistogramTimer sweep_timer(sweep_hist);
    const uint64_t degenerate_before = rng->degenerate_draws();
    for (size_t d = 0; d < D; ++d) {
      const auto& words = docs.docs()[d].words;

      // ---- (a) Detach the document from the tree. ----
      for (int l = 0; l < L; ++l) by_level[l].clear();
      for (size_t i = 0; i < words.size(); ++i) {
        ++by_level[level_of[d][i]][words[i]];
      }
      for (int l = 0; l < L; ++l) {
        Node& node = nodes[path[d][l]];
        --node.n_docs;
        for (const auto& [w, count] : by_level[l]) {
          auto it = node.n_w.find(w);
          it->second -= count;
          node.n_total -= count;
          if (it->second == 0) node.n_w.erase(it);
        }
      }
      // Prune now-empty branches (bottom-up).
      for (int l = L - 1; l >= 1; --l) {
        Node& node = nodes[path[d][l]];
        if (node.n_docs == 0 && node.children.empty()) {
          node.alive = false;
          Node& parent = nodes[node.parent];
          auto& siblings = parent.children;
          siblings.erase(
              std::find(siblings.begin(), siblings.end(), path[d][l]));
        }
      }

      // ---- (b) Sample a new path by DFS over candidate paths. ----
      // Each candidate is (log prior + log likelihood); new nodes beyond a
      // branch point contribute empty-node likelihoods.
      struct Candidate {
        double log_weight;
        std::vector<int> prefix;  // existing nodes (>= 1: root)
      };
      std::vector<Candidate> candidates;
      Node empty_node;  // stands in for any not-yet-created node

      // Iterative DFS carrying (node, level, log_prior_so_far, prefix).
      struct Frame {
        int node;
        int level;
        double log_w;
        std::vector<int> prefix;
      };
      std::vector<Frame> stack;
      stack.push_back(
          {0, 0, NodeLogLikelihood(nodes[0], by_level[0], beta, v_beta), {0}});
      while (!stack.empty()) {
        Frame frame = std::move(stack.back());
        stack.pop_back();
        if (frame.level == L - 1) {
          candidates.push_back({frame.log_w, std::move(frame.prefix)});
          continue;
        }
        const Node& node = nodes[frame.node];
        const double denom = static_cast<double>(node.n_docs) + gamma;
        // New-child branch: all deeper nodes are new, so likelihood at the
        // remaining levels uses empty nodes.
        double log_new = frame.log_w + std::log(gamma / denom);
        for (int l = frame.level + 1; l < L; ++l) {
          log_new += NodeLogLikelihood(empty_node, by_level[l], beta, v_beta);
        }
        candidates.push_back({log_new, frame.prefix});
        // Existing children.
        for (int child : node.children) {
          Frame next;
          next.node = child;
          next.level = frame.level + 1;
          next.log_w =
              frame.log_w +
              std::log(static_cast<double>(nodes[child].n_docs) / denom) +
              NodeLogLikelihood(nodes[child], by_level[next.level], beta,
                                v_beta);
          next.prefix = frame.prefix;
          next.prefix.push_back(child);
          stack.push_back(std::move(next));
        }
      }

      // Normalise in log space and sample a candidate.
      double max_log = candidates[0].log_weight;
      for (const auto& cand : candidates) {
        max_log = std::max(max_log, cand.log_weight);
      }
      std::vector<double> probs(candidates.size());
      for (size_t c = 0; c < candidates.size(); ++c) {
        probs[c] = std::exp(candidates[c].log_weight - max_log);
      }
      const Candidate& chosen =
          candidates[rng->Categorical(probs.data(), probs.size())];

      // Materialise the chosen path, creating new nodes below the prefix.
      for (size_t l = 0; l < chosen.prefix.size(); ++l) {
        path[d][l] = chosen.prefix[l];
      }
      for (int l = static_cast<int>(chosen.prefix.size()); l < L; ++l) {
        path[d][l] = new_node(path[d][l - 1], l);
      }

      // ---- (c) Re-attach the document. ----
      for (int l = 0; l < L; ++l) {
        Node& node = nodes[path[d][l]];
        ++node.n_docs;
        for (const auto& [w, count] : by_level[l]) {
          node.n_w[w] += count;
          node.n_total += count;
        }
      }

      // ---- (d) Resample level assignments along the (new) path. ----
      std::vector<uint32_t> n_dl(L, 0);
      for (size_t i = 0; i < words.size(); ++i) ++n_dl[level_of[d][i]];
      for (size_t i = 0; i < words.size(); ++i) {
        const TermId w = words[i];
        const int old = level_of[d][i];
        {
          Node& node = nodes[path[d][old]];
          --n_dl[old];
          auto it = node.n_w.find(w);
          --it->second;
          --node.n_total;
          if (it->second == 0) node.n_w.erase(it);
        }
        for (int l = 0; l < L; ++l) {
          const Node& node = nodes[path[d][l]];
          auto it = node.n_w.find(w);
          double count = it == node.n_w.end() ? 0.0 : it->second;
          level_weights[l] = (n_dl[l] + alpha) * (count + beta) /
                             (node.n_total + v_beta);
        }
        int fresh = static_cast<int>(
            rng->Categorical(level_weights.data(), level_weights.size()));
        level_of[d][i] = static_cast<uint8_t>(fresh);
        Node& node = nodes[path[d][fresh]];
        ++n_dl[fresh];
        ++node.n_w[w];
        ++node.n_total;
      }
    }
    MICROREC_RETURN_IF_ERROR(GuardDegenerateDraws(
        "HLDA", iter, rng->degenerate_draws() - degenerate_before));
  }

  // The sweep guard only ever sees the *previous* iteration's sample; check
  // the final sweep's mass once more before freezing the tree.
  MICROREC_RETURN_IF_ERROR(CheckPosteriorMass(
      "HLDA", config_.train_iterations,
      config_.train_iterations == 0 ? nullptr : level_weights.data(),
      level_weights.size()));

  // ---- Freeze: compact live nodes and record root-to-leaf paths. ----
  std::vector<int> remap(nodes.size(), -1);
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (!nodes[n].alive || nodes[n].n_docs == 0) continue;
    remap[n] = static_cast<int>(node_words_.size());
    node_words_.push_back(std::move(nodes[n].n_w));
    node_totals_.push_back(nodes[n].n_total);
  }
  std::unordered_map<uint64_t, size_t> seen_paths;
  for (size_t d = 0; d < D; ++d) {
    std::vector<uint32_t> compact(L);
    uint64_t key = 0;
    for (int l = 0; l < L; ++l) {
      compact[l] = static_cast<uint32_t>(remap[path[d][l]]);
      key = key * 1000003u + compact[l];
    }
    auto [it, inserted] = seen_paths.emplace(key, paths_.size());
    if (inserted) {
      paths_.push_back(std::move(compact));
      path_docs_.push_back(0);
    }
    ++path_docs_[it->second];
  }
  trained_ = true;
  return Status::OK();
}

double Hlda::TopicWordProb(size_t topic, TermId word) const {
  if (!trained_ || topic >= node_words_.size()) return 0.0;
  const auto& counts = node_words_[topic];
  auto it = counts.find(word);
  double count = it == counts.end() ? 0.0 : it->second;
  double v_beta = static_cast<double>(vocab_size_) * config_.beta;
  return (count + config_.beta) / (node_totals_[topic] + v_beta);
}

std::vector<double> Hlda::InferDocument(const std::vector<TermId>& words,
                                        Rng* rng) const {
  const size_t num_nodes = std::max<size_t>(node_words_.size(), 1);
  std::vector<double> theta(num_nodes, 1.0 / static_cast<double>(num_nodes));
  if (!trained_ || words.empty() || paths_.empty()) return theta;
  std::fill(theta.begin(), theta.end(), 0.0);
  const size_t L = static_cast<size_t>(config_.levels);

  // MAP path: CRP prior (doc usage) + word likelihood with uniform levels.
  size_t total_docs = 0;
  for (uint32_t count : path_docs_) total_docs += count;
  size_t best_path = 0;
  double best_score = -1e300;
  for (size_t p = 0; p < paths_.size(); ++p) {
    double score = std::log(static_cast<double>(path_docs_[p]) /
                            static_cast<double>(total_docs));
    for (TermId w : words) {
      double mix = 0.0;
      for (size_t l = 0; l < L; ++l) {
        mix += TopicWordProb(paths_[p][l], w) / static_cast<double>(L);
      }
      score += std::log(mix);
    }
    if (score > best_score) {
      best_score = score;
      best_path = p;
    }
  }

  // Fold-in over the levels of the chosen path, added onto its nodes.
  const std::vector<uint32_t>& chosen = paths_[best_path];
  std::vector<double> probs(words.size() * L);
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t l = 0; l < L; ++l) {
      probs[i * L + l] = TopicWordProb(chosen[l], words[i]);
    }
  }
  const std::vector<double> level_theta =
      GibbsFoldIn(std::vector<double>(L, config_.alpha),
                  static_cast<double>(L) * config_.alpha, probs, rng);
  for (size_t l = 0; l < L; ++l) theta[chosen[l]] += level_theta[l];
  return theta;
}

void Hlda::SaveState(snapshot::Encoder* enc) const {
  enc->PutU64(vocab_size_);
  enc->PutU64(node_words_.size());
  for (const auto& node : node_words_) {
    // unordered_map iteration order is not stable across processes; sort by
    // TermId so the same tree always serializes to the same bytes.
    std::vector<std::pair<TermId, uint32_t>> entries(node.begin(), node.end());
    std::sort(entries.begin(), entries.end());
    std::vector<uint32_t> terms;
    std::vector<uint32_t> counts;
    terms.reserve(entries.size());
    counts.reserve(entries.size());
    for (const auto& [term, count] : entries) {
      terms.push_back(term);
      counts.push_back(count);
    }
    enc->PutVecU32(terms);
    enc->PutVecU32(counts);
  }
  enc->PutVecU32(node_totals_);
  enc->PutU64(paths_.size());
  for (const std::vector<uint32_t>& path : paths_) enc->PutVecU32(path);
  enc->PutVecU32(path_docs_);
}

Status Hlda::LoadState(snapshot::Decoder* dec) {
  uint64_t vocab = 0;
  uint64_t num_nodes = 0;
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&vocab));
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&num_nodes));
  // Every node costs at least two 8-byte vector length prefixes.
  if (num_nodes > dec->remaining() / 16) {
    return Status::InvalidArgument(
        "HLDA snapshot node count " + std::to_string(num_nodes) +
        " exceeds remaining bytes at offset " + std::to_string(dec->offset()));
  }
  std::vector<std::unordered_map<TermId, uint32_t>> node_words(num_nodes);
  for (uint64_t n = 0; n < num_nodes; ++n) {
    std::vector<uint32_t> terms;
    std::vector<uint32_t> counts;
    MICROREC_RETURN_IF_ERROR(dec->ReadVecU32(&terms));
    MICROREC_RETURN_IF_ERROR(dec->ReadVecU32(&counts));
    if (terms.size() != counts.size()) {
      return Status::InvalidArgument(
          "HLDA snapshot node " + std::to_string(n) + " has " +
          std::to_string(terms.size()) + " terms but " +
          std::to_string(counts.size()) + " counts");
    }
    node_words[n].reserve(terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
      if (terms[i] >= vocab) {
        return Status::InvalidArgument(
            "HLDA snapshot node " + std::to_string(n) + " references term " +
            std::to_string(terms[i]) + " outside vocabulary of " +
            std::to_string(vocab));
      }
      node_words[n][terms[i]] = counts[i];
    }
  }
  std::vector<uint32_t> node_totals;
  MICROREC_RETURN_IF_ERROR(dec->ReadVecU32(&node_totals));
  if (node_totals.size() != num_nodes) {
    return Status::InvalidArgument(
        "HLDA snapshot has " + std::to_string(node_totals.size()) +
        " node totals for " + std::to_string(num_nodes) + " nodes");
  }
  uint64_t num_paths = 0;
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&num_paths));
  if (num_paths > dec->remaining() / 8) {
    return Status::InvalidArgument(
        "HLDA snapshot path count " + std::to_string(num_paths) +
        " exceeds remaining bytes at offset " + std::to_string(dec->offset()));
  }
  std::vector<std::vector<uint32_t>> paths(num_paths);
  for (uint64_t p = 0; p < num_paths; ++p) {
    MICROREC_RETURN_IF_ERROR(dec->ReadVecU32(&paths[p]));
    // InferDocument reads one node per level of every path.
    if (paths[p].size() != static_cast<size_t>(config_.levels)) {
      return Status::InvalidArgument(
          "HLDA snapshot path " + std::to_string(p) + " has length " +
          std::to_string(paths[p].size()) + ", not the model's " +
          std::to_string(config_.levels) + " levels");
    }
    for (uint32_t node : paths[p]) {
      if (node >= num_nodes) {
        return Status::InvalidArgument(
            "HLDA snapshot path " + std::to_string(p) + " references node " +
            std::to_string(node) + " outside tree of " +
            std::to_string(num_nodes));
      }
    }
  }
  std::vector<uint32_t> path_docs;
  MICROREC_RETURN_IF_ERROR(dec->ReadVecU32(&path_docs));
  if (path_docs.size() != num_paths) {
    return Status::InvalidArgument(
        "HLDA snapshot has " + std::to_string(path_docs.size()) +
        " path document counts for " + std::to_string(num_paths) + " paths");
  }
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  vocab_size_ = vocab;
  node_words_ = std::move(node_words);
  node_totals_ = std::move(node_totals);
  paths_ = std::move(paths);
  path_docs_ = std::move(path_docs);
  trained_ = true;
  return Status::OK();
}

}  // namespace microrec::topic
