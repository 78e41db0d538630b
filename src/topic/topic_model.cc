#include "topic/topic_model.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "resilience/fault.h"

namespace microrec::topic {

bool FinitePosteriorMass(const double* weights, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += weights[i];
  return std::isfinite(total);
}

Status ValidateHyperparameters(const char* model, double alpha, double beta,
                               double gamma) {
  if (!std::isfinite(alpha) || alpha < 0.0) {
    return Status::InvalidArgument(std::string(model) +
                                   ": alpha must be finite and >= 0");
  }
  if (!std::isfinite(beta) || beta <= 0.0) {
    return Status::InvalidArgument(std::string(model) +
                                   ": beta must be finite and > 0");
  }
  if (!std::isfinite(gamma) || gamma <= 0.0) {
    return Status::InvalidArgument(std::string(model) +
                                   ": gamma must be finite and > 0");
  }
  return Status::OK();
}

Status GuardSweep(const char* model, int sweep,
                  const resilience::CancelContext* cancel,
                  const double* weights, size_t n) {
  MICROREC_FAULT_POINT(resilience::kSiteTopicGibbsSweep);
  if (cancel != nullptr) {
    MICROREC_RETURN_IF_ERROR(cancel->Check(model));
  }
  if (weights != nullptr) {
    MICROREC_RETURN_IF_ERROR(CheckPosteriorMass(model, sweep, weights, n));
  }
  return Status::OK();
}

Status CheckPosteriorMass(const char* model, int sweep, const double* weights,
                          size_t n) {
  if (weights != nullptr && !FinitePosteriorMass(weights, n)) {
    obs::MetricsRegistry::Global()
        .GetCounter("topic.posterior.non_finite")
        ->Increment();
    return Status::Internal(std::string(model) +
                            ": non-finite posterior mass after sweep " +
                            std::to_string(sweep));
  }
  return Status::OK();
}

Status GuardDegenerateDraws(const char* model, int sweep, uint64_t draws) {
  if (draws == 0) return Status::OK();
  return Status::Internal(std::string(model) + ": " + std::to_string(draws) +
                          " degenerate-mass draw(s) in sweep " +
                          std::to_string(sweep) +
                          " (see rng.degenerate_draws)");
}

Status CountUnderflowError(const char* model, int sweep) {
  return Status::DataLoss(std::string(model) +
                          ": topic count underflow in sweep " +
                          std::to_string(sweep) +
                          " (corrupt assignment state)");
}

double TopicCosine(const std::vector<double>& a,
                   const std::vector<double>& b) {
  assert(a.size() == b.size());
  double dot = 0.0, mag_a = 0.0, mag_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    mag_a += a[i] * a[i];
    mag_b += b[i] * b[i];
  }
  double denom = std::sqrt(mag_a) * std::sqrt(mag_b);
  return denom == 0.0 ? 0.0 : dot / denom;
}

double Perplexity(const TopicModel& model,
                  const std::vector<std::vector<TermId>>& docs, Rng* rng) {
  double log_likelihood = 0.0;
  size_t total_words = 0;
  for (const auto& words : docs) {
    if (words.empty()) continue;
    std::vector<double> theta = model.InferDocument(words, rng);
    for (TermId w : words) {
      double p = 0.0;
      for (size_t z = 0; z < theta.size(); ++z) {
        if (theta[z] > 0.0) p += theta[z] * model.TopicWordProb(z, w);
      }
      log_likelihood += std::log(std::max(p, 1e-300));
      ++total_words;
    }
  }
  if (total_words == 0) return 0.0;
  return std::exp(-log_likelihood / static_cast<double>(total_words));
}

std::vector<double> AggregateDistributions(
    const std::vector<std::vector<double>>& dists,
    const std::vector<bool>& positive, bool rocchio, double alpha,
    double beta) {
  if (dists.empty()) return {};
  const size_t dim = dists[0].size();
  std::vector<double> user(dim, 0.0);
  if (!rocchio) {
    for (const auto& dist : dists) {
      for (size_t i = 0; i < dim; ++i) user[i] += dist[i];
    }
    for (double& v : user) v /= static_cast<double>(dists.size());
    return user;
  }

  assert(positive.size() == dists.size());
  std::vector<double> pos_sum(dim, 0.0), neg_sum(dim, 0.0);
  size_t num_pos = 0, num_neg = 0;
  for (size_t d = 0; d < dists.size(); ++d) {
    double mag = 0.0;
    for (double v : dists[d]) mag += v * v;
    mag = std::sqrt(mag);
    if (mag == 0.0) continue;
    auto& target = positive[d] ? pos_sum : neg_sum;
    for (size_t i = 0; i < dim; ++i) target[i] += dists[d][i] / mag;
    (positive[d] ? num_pos : num_neg) += 1;
  }
  for (size_t i = 0; i < dim; ++i) {
    double value = 0.0;
    if (num_pos > 0) value += alpha * pos_sum[i] / static_cast<double>(num_pos);
    if (num_neg > 0) value -= beta * neg_sum[i] / static_cast<double>(num_neg);
    user[i] = value;
  }
  return user;
}

void FlatPhi::Assign(size_t num_topics, size_t vocab_size) {
  num_topics_ = num_topics;
  vocab_size_ = vocab_size;
  cells_.assign(num_topics * vocab_size, 0.0);
}

void FlatPhi::Adopt(size_t num_topics, size_t vocab_size,
                    std::vector<double> cells) {
  assert(cells.size() == num_topics * vocab_size);
  num_topics_ = num_topics;
  vocab_size_ = vocab_size;
  cells_ = std::move(cells);
}

void FlatPhi::SetRow(size_t topic, const uint32_t* counts, double beta,
                     double denom) {
  double* row = cells_.data() + topic * vocab_size_;
  for (size_t w = 0; w < vocab_size_; ++w) row[w] = (counts[w] + beta) / denom;
}

std::vector<double> FlatPhi::TokenProbs(
    const std::vector<TermId>& words) const {
  std::vector<double> probs(words.size() * num_topics_);
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t k = 0; k < num_topics_; ++k) {
      probs[i * num_topics_ + k] = cells_[k * vocab_size_ + words[i]];
    }
  }
  return probs;
}

void FlatPhi::Save(snapshot::Encoder* enc) const {
  enc->PutU64(vocab_size_);
  enc->PutU64(num_topics_);
  enc->PutVecF64(cells_);
}

Status FlatPhi::Load(snapshot::Decoder* dec, const char* model) {
  uint64_t vocab = 0;
  uint64_t topics = 0;
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&vocab));
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&topics));
  // The cell count must equal vocab * topics; compute the product with an
  // overflow guard so a corrupted dimension cannot wrap it into a match.
  if (vocab != 0 && topics > SIZE_MAX / vocab) {
    return Status::InvalidArgument(
        std::string(model) + " snapshot dimensions overflow at offset " +
        std::to_string(dec->offset()));
  }
  std::vector<double> cells;
  MICROREC_RETURN_IF_ERROR(dec->ReadVecF64(&cells));
  if (cells.size() != vocab * topics) {
    return Status::InvalidArgument(
        std::string(model) + " snapshot phi has " +
        std::to_string(cells.size()) + " cells, dimensions say " +
        std::to_string(vocab) + " x " + std::to_string(topics) +
        " (at offset " + std::to_string(dec->offset()) + ")");
  }
  Adopt(topics, vocab, std::move(cells));
  return Status::OK();
}

Status FlatPhi::ExpectTopics(const char* model, size_t num_topics) const {
  if (num_topics_ == num_topics) return Status::OK();
  return Status::FailedPrecondition(
      std::string(model) + " snapshot trained with " +
      std::to_string(num_topics_) + " topics, configuration expects " +
      std::to_string(num_topics));
}

std::vector<double> GibbsFoldIn(const std::vector<double>& prior,
                                double prior_mass,
                                const std::vector<double>& token_probs,
                                Rng* rng) {
  const size_t K = prior.size();
  assert(K > 0 && token_probs.size() % K == 0);
  const size_t N = token_probs.size() / K;
  std::vector<uint32_t> z(N);
  std::vector<uint32_t> n_k(K, 0);
  std::vector<double> weights(K);
  for (size_t i = 0; i < N; ++i) {
    z[i] = rng->UniformU32(static_cast<uint32_t>(K));
    ++n_k[z[i]];
  }
  for (int iter = 0; iter < kFoldInIterations; ++iter) {
    for (size_t i = 0; i < N; ++i) {
      const double* probs = token_probs.data() + i * K;
      --n_k[z[i]];
      for (size_t k = 0; k < K; ++k) {
        weights[k] = (n_k[k] + prior[k]) * probs[k];
      }
      z[i] = static_cast<uint32_t>(rng->Categorical(weights.data(), K));
      ++n_k[z[i]];
    }
  }
  const double denom = static_cast<double>(N) + prior_mass;
  std::vector<double> theta(K);
  for (size_t k = 0; k < K; ++k) theta[k] = (n_k[k] + prior[k]) / denom;
  return theta;
}

}  // namespace microrec::topic
