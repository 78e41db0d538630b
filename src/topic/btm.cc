#include "topic/btm.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topic/sparse_kernel.h"

namespace microrec::topic {

std::vector<std::pair<TermId, TermId>> Btm::ExtractBiterms(
    const std::vector<TermId>& words, int window) {
  std::vector<std::pair<TermId, TermId>> biterms;
  const size_t n = words.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    size_t last = window <= 0
                      ? n
                      : std::min(n, i + static_cast<size_t>(window) + 1);
    for (size_t j = i + 1; j < last; ++j) {
      TermId a = words[i];
      TermId b = words[j];
      if (a > b) std::swap(a, b);  // biterms are unordered
      biterms.emplace_back(a, b);
    }
  }
  return biterms;
}

Status Btm::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("btm_train");
  if (!phi_.empty()) return Status::FailedPrecondition("Train called twice");
  if (config_.num_topics == 0) {
    return Status::InvalidArgument("num_topics must be positive");
  }
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  MICROREC_RETURN_IF_ERROR(ValidateHyperparameters(
      "BTM", config_.ResolvedAlpha(), config_.beta));
  const size_t K = config_.num_topics;
  const size_t V = docs.vocab_size();
  const double alpha = config_.ResolvedAlpha();
  const double beta = config_.beta;
  const double v_beta = static_cast<double>(V) * beta;

  // The corpus is a flat bag of biterms (Section 3.2).
  std::vector<std::pair<TermId, TermId>> biterms;
  for (const TopicDoc& doc : docs.docs()) {
    auto doc_biterms = ExtractBiterms(doc.words, config_.window);
    biterms.insert(biterms.end(), doc_biterms.begin(), doc_biterms.end());
  }
  num_train_biterms_ = biterms.size();
  if (biterms.empty()) {
    return Status::FailedPrecondition("no biterms in training corpus");
  }

  const size_t B = biterms.size();
  std::vector<uint32_t> z(B);
  std::vector<uint32_t> n_z(K, 0);
  std::vector<uint32_t> n_kw(K * V, 0);

  for (size_t i = 0; i < B; ++i) {
    uint32_t topic = rng->UniformU32(static_cast<uint32_t>(K));
    z[i] = topic;
    ++n_z[topic];
    ++n_kw[static_cast<size_t>(topic) * V + biterms[i].first];
    ++n_kw[static_cast<size_t>(topic) * V + biterms[i].second];
  }

  // Biterms are exchangeable, so the flat list itself is sharded; both
  // count tables are replicated.
  MICROREC_RETURN_IF_ERROR(WithBitermSweeper(
      config_.train.sampler_kernel, K, V, alpha, beta,
      [&](const auto& make_sweeper) {
        return RunGibbs(
            "BTM", config_.train, config_.train_iterations, config_.cancel,
            obs::MetricsRegistry::Global().GetHistogram(
                "topic.btm.sweep_seconds"),
            rng, B, {&n_z, &n_kw}, make_sweeper,
            [](auto& sweeper, uint32_t* z_counts, uint32_t* kw) {
              sweeper.Bind(z_counts, kw);
            },
            [&](auto& sweeper, size_t begin, size_t end, Rng* sweep_rng) {
              SweepBitermRange(sweeper, begin, end, biterms, z.data(),
                               sweep_rng);
            });
      }));

  theta_.assign(K, 0.0);
  phi_.Assign(K, V);
  const double b_denom =
      static_cast<double>(B) + static_cast<double>(K) * alpha;
  for (size_t k = 0; k < K; ++k) {
    theta_[k] = (n_z[k] + alpha) / b_denom;
    phi_.SetRow(k, n_kw.data() + k * V, beta, 2.0 * n_z[k] + v_beta);
  }
  return Status::OK();
}

std::vector<double> Btm::InferDocument(const std::vector<TermId>& words,
                                       Rng* rng) const {
  (void)rng;  // inference is deterministic
  const size_t K = config_.num_topics;
  std::vector<double> theta(K, 1.0 / static_cast<double>(K));
  if (phi_.empty() || words.empty()) return theta;

  // A tweet's window is the tweet itself (Section 4): unbounded here, since
  // the caller passes individual tweets at inference time.
  auto biterms = ExtractBiterms(words, 0);
  std::fill(theta.begin(), theta.end(), 0.0);
  std::vector<double> pz(K);

  if (biterms.empty()) {
    // Single-word fallback: P(z|w) ∝ θ_z φ_zw.
    const TermId w = words[0];
    double total = 0.0;
    for (size_t k = 0; k < K; ++k) {
      theta[k] = theta_[k] * phi_.TopicWordProb(k, w);
      total += theta[k];
    }
    if (total > 0.0) {
      for (double& v : theta) v /= total;
    } else {
      std::fill(theta.begin(), theta.end(), 1.0 / static_cast<double>(K));
    }
    return theta;
  }

  // P(z|d) = Σ_b P(z|b) P(b|d) with P(b|d) uniform over d's biterms.
  for (const auto& [w1, w2] : biterms) {
    double total = 0.0;
    for (size_t k = 0; k < K; ++k) {
      pz[k] = theta_[k] * phi_.TopicWordProb(k, w1) *
              phi_.TopicWordProb(k, w2);
      total += pz[k];
    }
    if (total <= 0.0) continue;
    for (size_t k = 0; k < K; ++k) {
      theta[k] += pz[k] / total / static_cast<double>(biterms.size());
    }
  }
  double mass = 0.0;
  for (double v : theta) mass += v;
  if (mass <= 0.0) {
    std::fill(theta.begin(), theta.end(), 1.0 / static_cast<double>(K));
  }
  return theta;
}

void Btm::SaveState(snapshot::Encoder* enc) const {
  phi_.Save(enc);
  enc->PutVecF64(theta_);
  enc->PutU64(num_train_biterms_);
}

Status Btm::LoadState(snapshot::Decoder* dec) {
  FlatPhi phi;
  MICROREC_RETURN_IF_ERROR(phi.Load(dec, "BTM"));
  MICROREC_RETURN_IF_ERROR(phi.ExpectTopics("BTM", config_.num_topics));
  std::vector<double> theta;
  MICROREC_RETURN_IF_ERROR(dec->ReadVecF64(&theta));
  if (theta.size() != phi.num_topics()) {
    return Status::InvalidArgument(
        "BTM snapshot theta has " + std::to_string(theta.size()) +
        " entries for " + std::to_string(phi.num_topics()) + " topics");
  }
  uint64_t biterms = 0;
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&biterms));
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  phi_ = std::move(phi);
  theta_ = std::move(theta);
  num_train_biterms_ = biterms;
  return Status::OK();
}

}  // namespace microrec::topic
