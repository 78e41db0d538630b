#include "topic/hdp.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace microrec::topic {

namespace {

// Topics the sampler starts from; it adds and removes from here.
constexpr size_t kInitialTopics = 2;

// Mutable sampler state for one active topic.
struct TopicState {
  std::vector<uint32_t> n_w;  // word counts
  uint32_t n_total = 0;
  double b = 0.0;  // global stick weight β_k

  TopicState() = default;
  explicit TopicState(size_t vocab) : n_w(vocab, 0) {}
};

}  // namespace

Status Hdp::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("hdp_train");
  if (!phi_.empty()) return Status::FailedPrecondition("Train called twice");
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  MICROREC_RETURN_IF_ERROR(ValidateHyperparameters(
      "HDP", config_.alpha, config_.beta, config_.gamma));
  const size_t V = docs.vocab_size();
  const size_t D = docs.num_docs();
  const double alpha = config_.alpha;
  const double gamma = config_.gamma;
  const double beta = config_.beta;
  const double v_beta = static_cast<double>(V) * beta;

  size_t total_words = docs.total_tokens();
  if (total_words == 0) {
    return Status::FailedPrecondition("empty training corpus");
  }

  // Initial topics with equal global weights; b_new holds the remaining
  // stick mass for future topics.
  std::vector<TopicState> topics;
  double b_new = 1.0 / static_cast<double>(kInitialTopics + 1);
  for (size_t k = 0; k < kInitialTopics; ++k) {
    topics.emplace_back(V);
    topics.back().b = (1.0 - b_new) / static_cast<double>(kInitialTopics);
  }

  // Assignments and per-doc topic counts (dense rows resized with K).
  std::vector<std::vector<uint32_t>> z(D);
  std::vector<std::vector<uint32_t>> n_dk(D);
  for (size_t d = 0; d < D; ++d) {
    const auto& words = docs.docs()[d].words;
    z[d].resize(words.size());
    n_dk[d].assign(topics.size(), 0);
    for (size_t i = 0; i < words.size(); ++i) {
      uint32_t k = rng->UniformU32(static_cast<uint32_t>(topics.size()));
      z[d][i] = k;
      ++n_dk[d][k];
      ++topics[k].n_w[words[i]];
      ++topics[k].n_total;
    }
  }

  std::vector<double> weights;
  const auto sweep = [&](int /*iter*/, uint64_t* degenerate_draws) {
    const uint64_t degenerate_before = rng->degenerate_draws();
    // --- Sweep: resample every word's topic (direct assignment). ---
    for (size_t d = 0; d < D; ++d) {
      const auto& words = docs.docs()[d].words;
      for (size_t i = 0; i < words.size(); ++i) {
        const TermId w = words[i];
        const uint32_t old = z[d][i];
        --n_dk[d][old];
        --topics[old].n_w[w];
        --topics[old].n_total;

        const size_t K = topics.size();
        weights.resize(K + 1);
        for (size_t k = 0; k < K; ++k) {
          weights[k] = (n_dk[d][k] + alpha * topics[k].b) *
                       (topics[k].n_w[w] + beta) /
                       (topics[k].n_total + v_beta);
        }
        // Fresh topic: its predictive word likelihood is the base measure.
        weights[K] = alpha * b_new / static_cast<double>(V);
        if (topics.size() >= config_.max_topics) weights[K] = 0.0;

        size_t pick = rng->Categorical(weights.data(), K + 1);
        if (pick == K) {
          // Instantiate a new topic by breaking the remaining stick.
          topics.emplace_back(V);
          double nu = rng->Beta(1.0, gamma);
          topics.back().b = nu * b_new;
          b_new *= (1.0 - nu);
          for (size_t dd = 0; dd < D; ++dd) n_dk[dd].push_back(0);
        }
        z[d][i] = static_cast<uint32_t>(pick);
        ++n_dk[d][pick];
        ++topics[pick].n_w[w];
        ++topics[pick].n_total;
      }
    }

    // --- Drop empty topics (their stick mass returns to b_new). ---
    {
      std::vector<uint32_t> remap(topics.size());
      size_t kept = 0;
      for (size_t k = 0; k < topics.size(); ++k) {
        if (topics[k].n_total > 0) {
          remap[k] = static_cast<uint32_t>(kept);
          if (kept != k) topics[kept] = std::move(topics[k]);
          ++kept;
        } else {
          remap[k] = UINT32_MAX;
          b_new += topics[k].b;
        }
      }
      if (kept != topics.size()) {
        topics.resize(kept);
        for (size_t d = 0; d < D; ++d) {
          std::vector<uint32_t> fresh_counts(kept, 0);
          for (size_t i = 0; i < z[d].size(); ++i) {
            z[d][i] = remap[z[d][i]];
            ++fresh_counts[z[d][i]];
          }
          n_dk[d] = std::move(fresh_counts);
        }
      }
    }

    // --- Resample global weights via Antoniak table counts. ---
    {
      const size_t K = topics.size();
      std::vector<double> m(K + 1, 0.0);
      for (size_t d = 0; d < D; ++d) {
        for (size_t k = 0; k < K; ++k) {
          uint32_t count = n_dk[d][k];
          if (count == 0) continue;
          // Number of tables serving dish k in restaurant d: sequentially
          // seat `count` customers (Antoniak sampling).
          double concentration = alpha * topics[k].b;
          uint32_t tables = 0;
          for (uint32_t c = 0; c < count; ++c) {
            if (rng->Bernoulli(concentration /
                               (concentration + static_cast<double>(c)))) {
              ++tables;
            }
          }
          m[k] += tables;
        }
      }
      m[K] = gamma;
      std::vector<double> draw = rng->Dirichlet(m);
      for (size_t k = 0; k < K; ++k) topics[k].b = draw[k];
      b_new = draw[K];
    }

    *degenerate_draws = rng->degenerate_draws() - degenerate_before;
    return Status::OK();
  };
  MICROREC_RETURN_IF_ERROR(RunGuardedSweeps(
      "HDP", config_.train_iterations, config_.cancel,
      obs::MetricsRegistry::Global().GetHistogram("topic.hdp.sweep_seconds"),
      weights, sweep));

  // Freeze the posterior sample.
  phi_.Assign(topics.size(), V);
  global_b_.resize(topics.size());
  for (size_t k = 0; k < topics.size(); ++k) {
    global_b_[k] = topics[k].b;
    phi_.SetRow(k, topics[k].n_w.data(), beta, topics[k].n_total + v_beta);
  }
  return Status::OK();
}

std::vector<double> Hdp::InferDocument(const std::vector<TermId>& words,
                                       Rng* rng) const {
  const size_t K = phi_.num_topics();
  if (phi_.empty() || words.empty()) {
    const size_t n = std::max<size_t>(K, 1);
    return std::vector<double>(n, 1.0 / static_cast<double>(n));
  }
  const double alpha = config_.alpha;
  std::vector<double> prior(K);
  double b_mass = 0.0;
  for (size_t k = 0; k < K; ++k) {
    prior[k] = alpha * global_b_[k];
    b_mass += global_b_[k];
  }
  return GibbsFoldIn(prior, alpha * b_mass, phi_.TokenProbs(words), rng);
}

void Hdp::SaveState(snapshot::Encoder* enc) const {
  phi_.Save(enc);
  enc->PutVecF64(global_b_);
}

Status Hdp::LoadState(snapshot::Decoder* dec) {
  FlatPhi phi;
  MICROREC_RETURN_IF_ERROR(phi.Load(dec, "HDP"));
  const size_t topics = phi.num_topics();
  if (topics > config_.max_topics) {
    return Status::FailedPrecondition(
        "HDP snapshot has " + std::to_string(topics) +
        " topics, above the configured ceiling of " +
        std::to_string(config_.max_topics));
  }
  std::vector<double> global_b;
  MICROREC_RETURN_IF_ERROR(dec->ReadVecF64(&global_b));
  if (global_b.size() != topics) {
    return Status::InvalidArgument(
        "HDP snapshot stick weights have " +
        std::to_string(global_b.size()) + " entries for " +
        std::to_string(topics) + " topics");
  }
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  phi_ = std::move(phi);
  global_b_ = std::move(global_b);
  return Status::OK();
}

}  // namespace microrec::topic
