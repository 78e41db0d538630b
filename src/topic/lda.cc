#include "topic/lda.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topic/sparse_kernel.h"

namespace microrec::topic {

Status TrainDocGibbs(const char* model, const DocSet& docs, size_t num_topics,
                     double alpha, double beta, int iterations,
                     const TrainOptions& options,
                     const resilience::CancelContext* cancel,
                     const std::vector<std::vector<uint32_t>>* menus,
                     size_t latent_begin, const char* sweep_metric, Rng* rng,
                     FlatPhi* phi) {
  const size_t K = num_topics;
  const size_t V = docs.vocab_size();
  const size_t D = docs.num_docs();
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
    const std::vector<uint32_t>* menu =
        menus == nullptr ? nullptr : &(*menus)[d];
    for (size_t i = doc_begin[d]; i < doc_begin[d + 1]; ++i) {
      const uint32_t topic =
          menu == nullptr
              ? rng->UniformU32(static_cast<uint32_t>(K))
              : (*menu)[rng->UniformU32(static_cast<uint32_t>(menu->size()))];
      z[i] = topic;
      ++n_dk[d * K + topic];
      ++n_kw[static_cast<size_t>(topic) * V + words[i]];
      ++n_k[topic];
    }
  }

  // Documents are sharded; n_dk rows and z slots are document-owned and
  // written in place, n_kw and n_k are replicated.
  MICROREC_RETURN_IF_ERROR(WithDocSweeper(
      options.sampler_kernel, K, V, alpha, beta, latent_begin,
      [&](const auto& make_sweeper) {
        return RunGibbs(
            model, options, iterations, cancel,
            obs::MetricsRegistry::Global().GetHistogram(sweep_metric), rng, D,
            {&n_kw, &n_k}, make_sweeper,
            [&](auto& sweeper, uint32_t* kw, uint32_t* k) {
              sweeper.Bind(n_dk.data(), kw, k);
            },
            [&](auto& sweeper, size_t begin, size_t end, Rng* sweep_rng) {
              SweepDocRange(sweeper, begin, end, doc_begin, words, menus,
                            z.data(), sweep_rng);
            });
      }));

  phi->Assign(K, V);
  for (size_t k = 0; k < K; ++k) {
    phi->SetRow(k, n_kw.data() + k * V, beta, n_k[k] + v_beta);
  }
  return Status::OK();
}

Status Lda::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("lda_train");
  if (!phi_.empty()) return Status::FailedPrecondition("Train called twice");
  if (config_.num_topics == 0) {
    return Status::InvalidArgument("num_topics must be positive");
  }
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  MICROREC_RETURN_IF_ERROR(ValidateHyperparameters(
      "LDA", config_.ResolvedAlpha(), config_.beta));
  return TrainDocGibbs(
      "LDA", docs, config_.num_topics, config_.ResolvedAlpha(), config_.beta,
      config_.train_iterations, config_.train, config_.cancel,
      /*menus=*/nullptr, /*latent_begin=*/0, "topic.lda.sweep_seconds", rng,
      &phi_);
}

std::vector<double> Lda::InferDocument(const std::vector<TermId>& words,
                                       Rng* rng) const {
  const size_t K = config_.num_topics;
  if (phi_.empty() || words.empty()) {
    return std::vector<double>(K, 1.0 / static_cast<double>(K));
  }
  const double alpha = config_.ResolvedAlpha();
  return GibbsFoldIn(std::vector<double>(K, alpha),
                     static_cast<double>(K) * alpha, phi_.TokenProbs(words),
                     rng);
}

std::vector<double> Lda::TopicWordDistribution(size_t topic) const {
  std::vector<double> out(phi_.vocab_size());
  for (size_t w = 0; w < out.size(); ++w) {
    out[w] = phi_.TopicWordProb(topic, static_cast<TermId>(w));
  }
  return out;
}

void Lda::SaveState(snapshot::Encoder* enc) const { phi_.Save(enc); }

Status Lda::LoadState(snapshot::Decoder* dec) {
  FlatPhi phi;
  MICROREC_RETURN_IF_ERROR(phi.Load(dec, "LDA"));
  MICROREC_RETURN_IF_ERROR(phi.ExpectTopics("LDA", config_.num_topics));
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  phi_ = std::move(phi);
  return Status::OK();
}

}  // namespace microrec::topic
