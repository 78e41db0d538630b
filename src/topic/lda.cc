#include "topic/lda.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topic/sparse_kernel.h"

namespace microrec::topic {

Status Lda::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("lda_train");
  if (trained_) return Status::FailedPrecondition("Train called twice");
  if (config_.num_topics == 0) {
    return Status::InvalidArgument("num_topics must be positive");
  }
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  MICROREC_RETURN_IF_ERROR(ValidateHyperparameters(
      "LDA", config_.ResolvedAlpha(), config_.beta));
  vocab_size_ = docs.vocab_size();
  const size_t K = config_.num_topics;
  const size_t V = vocab_size_;
  const size_t D = docs.num_docs();
  const double alpha = config_.ResolvedAlpha();
  const double beta = config_.beta;
  const double v_beta = static_cast<double>(V) * beta;

  // Flatten the corpus for cache-friendly sweeps.
  std::vector<TermId> words;
  std::vector<size_t> doc_begin = FlattenDocs(docs, &words);
  const size_t N = words.size();
  if (N == 0) return Status::FailedPrecondition("empty training corpus");

  std::vector<uint32_t> z(N);
  std::vector<uint32_t> n_dk(D * K, 0);
  std::vector<uint32_t> n_kw(K * V, 0);
  std::vector<uint32_t> n_k(K, 0);

  for (size_t d = 0; d < D; ++d) {
    for (size_t i = doc_begin[d]; i < doc_begin[d + 1]; ++i) {
      uint32_t topic = rng->UniformU32(static_cast<uint32_t>(K));
      z[i] = topic;
      ++n_dk[d * K + topic];
      ++n_kw[static_cast<size_t>(topic) * V + words[i]];
      ++n_k[topic];
    }
  }

  // Documents are sharded; n_dk rows and z slots are document-owned and
  // written in place, n_kw and n_k are replicated.
  MICROREC_RETURN_IF_ERROR(WithDocSweeper(
      config_.train.sampler_kernel, K, V, alpha, beta, /*latent_begin=*/0,
      [&](const auto& make_sweeper) {
        return RunGibbs(
            "LDA", config_.train, config_.train_iterations, config_.cancel,
            obs::MetricsRegistry::Global().GetHistogram(
                "topic.lda.sweep_seconds"),
            rng, D, {&n_kw, &n_k}, make_sweeper,
            [&](auto& sweeper, uint32_t* kw, uint32_t* k) {
              sweeper.Bind(n_dk.data(), kw, k);
            },
            [&](auto& sweeper, size_t begin, size_t end, Rng* sweep_rng) {
              SweepDocRange(sweeper, begin, end, doc_begin, words, nullptr,
                            z.data(), sweep_rng);
            });
      }));

  phi_.assign(K * V, 0.0);
  for (size_t k = 0; k < K; ++k) {
    const double denom = n_k[k] + v_beta;
    for (size_t w = 0; w < V; ++w) {
      phi_[k * V + w] = (n_kw[k * V + w] + beta) / denom;
    }
  }
  trained_ = true;
  return Status::OK();
}

std::vector<double> Lda::InferDocument(const std::vector<TermId>& words,
                                       Rng* rng) const {
  const size_t K = config_.num_topics;
  std::vector<double> theta(K, 1.0 / static_cast<double>(K));
  if (!trained_ || words.empty()) return theta;

  const double alpha = config_.ResolvedAlpha();
  std::vector<uint32_t> z(words.size());
  std::vector<uint32_t> n_dk(K, 0);
  std::vector<double> weights(K);

  for (size_t i = 0; i < words.size(); ++i) {
    uint32_t topic = rng->UniformU32(static_cast<uint32_t>(K));
    z[i] = topic;
    ++n_dk[topic];
  }
  for (int iter = 0; iter < config_.infer_iterations; ++iter) {
    for (size_t i = 0; i < words.size(); ++i) {
      const TermId w = words[i];
      --n_dk[z[i]];
      for (size_t k = 0; k < K; ++k) {
        weights[k] = (n_dk[k] + alpha) * phi_[k * vocab_size_ + w];
      }
      z[i] = static_cast<uint32_t>(rng->Categorical(weights.data(), K));
      ++n_dk[z[i]];
    }
  }
  const double denom = static_cast<double>(words.size()) +
                       static_cast<double>(K) * alpha;
  for (size_t k = 0; k < K; ++k) {
    theta[k] = (n_dk[k] + alpha) / denom;
  }
  return theta;
}

std::vector<double> Lda::TopicWordDistribution(size_t topic) const {
  std::vector<double> out(vocab_size_, 0.0);
  if (!trained_) return out;
  for (size_t w = 0; w < vocab_size_; ++w) {
    out[w] = phi_[topic * vocab_size_ + w];
  }
  return out;
}

void Lda::SaveState(snapshot::Encoder* enc) const {
  SaveFlatPhi(enc, vocab_size_, config_.num_topics, phi_);
}

Status Lda::LoadState(snapshot::Decoder* dec) {
  size_t vocab = 0;
  size_t topics = 0;
  std::vector<double> phi;
  MICROREC_RETURN_IF_ERROR(LoadFlatPhi(dec, "LDA", &vocab, &topics, &phi));
  if (topics != config_.num_topics) {
    return Status::FailedPrecondition(
        "LDA snapshot trained with " + std::to_string(topics) +
        " topics, configuration expects " +
        std::to_string(config_.num_topics));
  }
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  vocab_size_ = vocab;
  phi_ = std::move(phi);
  trained_ = true;
  return Status::OK();
}

}  // namespace microrec::topic
