#include "topic/plsa.h"

#include <cmath>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace microrec::topic {

size_t Plsa::EstimateMemoryBytes(size_t num_docs, size_t vocab_size,
                                 size_t num_topics, size_t avg_doc_terms) {
  // θ: |D|·|Z| doubles, φ: |Z|·|V| doubles, plus equally sized M-step
  // accumulators, plus the E-step posterior table P(z|d,w) with one row per
  // (document, distinct word) pair.
  size_t parameters =
      2 * (num_docs * num_topics + num_topics * vocab_size) * sizeof(double);
  size_t posterior =
      num_docs * avg_doc_terms * num_topics * sizeof(double);
  return parameters + posterior;
}

Status Plsa::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("plsa_train");
  if (!phi_.empty()) return Status::FailedPrecondition("Train called twice");
  if (config_.num_topics == 0) {
    return Status::InvalidArgument("num_topics must be positive");
  }
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  const size_t K = config_.num_topics;
  const size_t V = docs.vocab_size();
  const size_t D = docs.num_docs();
  if (docs.total_tokens() == 0) {
    return Status::FailedPrecondition("empty training corpus");
  }

  // Random (normalised) initialisation.
  std::vector<double> theta(D * K);
  std::vector<double> phi(K * V);
  for (size_t d = 0; d < D; ++d) {
    auto draw = rng->DirichletSymmetric(1.0, K);
    std::copy(draw.begin(), draw.end(), theta.begin() + d * K);
  }
  for (size_t k = 0; k < K; ++k) {
    auto draw = rng->DirichletSymmetric(1.0, V);
    std::copy(draw.begin(), draw.end(), phi.begin() + k * V);
  }

  std::vector<double> theta_acc(D * K);
  std::vector<double> phi_acc(K * V);

  // train_threads > 1 shards the E-step over documents: θ accumulator rows
  // are document-owned (written directly by the owning shard); the φ
  // accumulator receives contributions from every shard, so it is
  // registered with the driver and reduced in shard order at the barrier.
  // EM is deterministic given the initialisation, so the sharded E-step
  // differs from the sequential one only in that reduction order
  // (shard-ordered, hence deterministic). The driver's RNG substreams go
  // unused — EM draws nothing after initialisation — but the seed draw
  // keeps the caller-rng state consistent with the Gibbs models' sharded
  // paths.
  std::optional<ParallelGibbs> driver;
  size_t h_phi = 0;
  if (config_.train.train_threads > 1) {
    driver.emplace(D, config_.train, rng->NextU64());
    h_phi = driver->AddAccumulator(&phi_acc);
  }
  // One E-step posterior scratch per shard; post[0] is the one checked
  // between steps (a NaN in θ or φ propagates into it within one step).
  std::vector<std::vector<double>> post(driver ? driver->num_shards() : 1,
                                        std::vector<double>(K));

  // E-step over documents [begin, end): P(z|d,w) ∝ θ_dz φ_zw, accumulated
  // into theta_acc rows and `phi_sums`.
  const auto e_step = [&](size_t begin, size_t end, double* posterior,
                          double* phi_sums) {
    for (size_t d = begin; d < end; ++d) {
      for (TermId w : docs.docs()[d].words) {
        double total = 0.0;
        for (size_t k = 0; k < K; ++k) {
          posterior[k] = theta[d * K + k] * phi[k * V + w];
          total += posterior[k];
        }
        if (total <= 0.0) continue;
        for (size_t k = 0; k < K; ++k) {
          double r = posterior[k] / total;
          theta_acc[d * K + k] += r;
          phi_sums[k * V + w] += r;
        }
      }
    }
  };

  // EM draws nothing after initialisation, so a step reports no degenerate
  // draws.
  const auto step = [&](int iter, uint64_t* /*degenerate_draws*/) {
    std::fill(theta_acc.begin(), theta_acc.end(), 0.0);
    if (!driver) {
      std::fill(phi_acc.begin(), phi_acc.end(), 0.0);
      e_step(0, D, post[0].data(), phi_acc.data());
    } else {
      driver->RunIteration(iter, [&](const ParallelGibbs::Shard& shard) {
        e_step(shard.begin, shard.end, post[shard.index].data(),
               shard.Accumulator(h_phi));
      });
    }
    // M-step: renormalise. It stays sequential: it is O(|D|·|Z| + |Z|·|V|)
    // against the E-step's O(tokens·|Z|), and it mutates θ and φ that the
    // next iteration's shards all read.
    for (size_t d = 0; d < D; ++d) {
      double total = 0.0;
      for (size_t k = 0; k < K; ++k) total += theta_acc[d * K + k];
      if (total <= 0.0) continue;
      for (size_t k = 0; k < K; ++k) {
        theta[d * K + k] = theta_acc[d * K + k] / total;
      }
    }
    for (size_t k = 0; k < K; ++k) {
      double total = 0.0;
      for (size_t w = 0; w < V; ++w) total += phi_acc[k * V + w];
      if (total <= 0.0) continue;
      for (size_t w = 0; w < V; ++w) {
        phi[k * V + w] = phi_acc[k * V + w] / total;
      }
    }
    return Status::OK();
  };
  MICROREC_RETURN_IF_ERROR(RunGuardedSweeps(
      "PLSA", config_.train_iterations, config_.cancel,
      obs::MetricsRegistry::Global().GetHistogram("topic.plsa.step_seconds"),
      post[0], step));
  phi_.Adopt(K, V, std::move(phi));
  return Status::OK();
}

std::vector<double> Plsa::InferDocument(const std::vector<TermId>& words,
                                        Rng* rng) const {
  (void)rng;
  const size_t K = config_.num_topics;
  std::vector<double> theta(K, 1.0 / static_cast<double>(K));
  if (phi_.empty() || words.empty()) return theta;

  // Folding-in EM: update θ_d only.
  const std::vector<double> probs = phi_.TokenProbs(words);
  std::vector<double> acc(K);
  std::vector<double> post(K);
  for (int iter = 0; iter < kFoldInIterations; ++iter) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (size_t i = 0; i < words.size(); ++i) {
      double total = 0.0;
      for (size_t k = 0; k < K; ++k) {
        post[k] = theta[k] * probs[i * K + k];
        total += post[k];
      }
      if (total <= 0.0) continue;
      for (size_t k = 0; k < K; ++k) acc[k] += post[k] / total;
    }
    double total = 0.0;
    for (double v : acc) total += v;
    if (total <= 0.0) break;
    for (size_t k = 0; k < K; ++k) theta[k] = acc[k] / total;
  }
  return theta;
}

void Plsa::SaveState(snapshot::Encoder* enc) const { phi_.Save(enc); }

Status Plsa::LoadState(snapshot::Decoder* dec) {
  FlatPhi phi;
  MICROREC_RETURN_IF_ERROR(phi.Load(dec, "PLSA"));
  MICROREC_RETURN_IF_ERROR(phi.ExpectTopics("PLSA", config_.num_topics));
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  phi_ = std::move(phi);
  return Status::OK();
}

}  // namespace microrec::topic
