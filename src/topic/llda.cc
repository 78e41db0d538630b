#include "topic/llda.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topic/sparse_kernel.h"

namespace microrec::topic {

Status Llda::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("llda_train");
  if (trained_) return Status::FailedPrecondition("Train called twice");
  if (config_.num_latent_topics == 0) {
    return Status::InvalidArgument("need at least one latent topic");
  }
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  MICROREC_RETURN_IF_ERROR(ValidateHyperparameters(
      "LLDA", config_.ResolvedAlpha(), config_.beta));
  vocab_size_ = docs.vocab_size();
  const size_t K = config_.TotalTopics();
  const size_t V = vocab_size_;
  const size_t num_labels = config_.num_labels;
  const double alpha = config_.ResolvedAlpha();
  const double beta = config_.beta;
  const double v_beta = static_cast<double>(V) * beta;

  // Allowed topics per document: its labels plus every latent topic.
  const size_t D = docs.num_docs();
  std::vector<std::vector<uint32_t>> allowed(D);
  for (size_t d = 0; d < D; ++d) {
    const TopicDoc& doc = docs.docs()[d];
    allowed[d].reserve(doc.labels.size() + config_.num_latent_topics);
    for (uint32_t label : doc.labels) {
      if (label < num_labels) allowed[d].push_back(label);
    }
    for (size_t k = 0; k < config_.num_latent_topics; ++k) {
      allowed[d].push_back(static_cast<uint32_t>(num_labels + k));
    }
  }

  std::vector<TermId> words;
  std::vector<size_t> doc_begin = FlattenDocs(docs, &words);
  const size_t N = words.size();
  if (N == 0) return Status::FailedPrecondition("empty training corpus");

  std::vector<uint32_t> z(N);
  std::vector<uint32_t> n_dk(D * K, 0);
  std::vector<uint32_t> n_kw(K * V, 0);
  std::vector<uint32_t> n_k(K, 0);

  for (size_t d = 0; d < D; ++d) {
    const auto& menu = allowed[d];
    for (size_t i = doc_begin[d]; i < doc_begin[d + 1]; ++i) {
      uint32_t topic =
          menu[rng->UniformU32(static_cast<uint32_t>(menu.size()))];
      z[i] = topic;
      ++n_dk[d * K + topic];
      ++n_kw[static_cast<size_t>(topic) * V + words[i]];
      ++n_k[topic];
    }
  }

  // Sharded like LDA; each sweep carries the document's menu.
  MICROREC_RETURN_IF_ERROR(WithDocSweeper(
      config_.train.sampler_kernel, K, V, alpha, beta,
      /*latent_begin=*/num_labels, [&](const auto& make_sweeper) {
        return RunGibbs(
            "LLDA", config_.train, config_.train_iterations, config_.cancel,
            obs::MetricsRegistry::Global().GetHistogram(
                "topic.llda.sweep_seconds"),
            rng, D, {&n_kw, &n_k}, make_sweeper,
            [&](auto& sweeper, uint32_t* kw, uint32_t* k) {
              sweeper.Bind(n_dk.data(), kw, k);
            },
            [&](auto& sweeper, size_t begin, size_t end, Rng* sweep_rng) {
              SweepDocRange(sweeper, begin, end, doc_begin, words, &allowed,
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

std::vector<double> Llda::InferDocument(const std::vector<TermId>& words,
                                        Rng* rng) const {
  const size_t K = config_.TotalTopics();
  std::vector<double> theta(K, 1.0 / static_cast<double>(K));
  if (!trained_ || words.empty()) return theta;

  const double alpha = config_.ResolvedAlpha();
  std::vector<uint32_t> z(words.size());
  std::vector<uint32_t> n_dk(K, 0);
  std::vector<double> weights(K);

  for (size_t i = 0; i < words.size(); ++i) {
    z[i] = rng->UniformU32(static_cast<uint32_t>(K));
    ++n_dk[z[i]];
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
  for (size_t k = 0; k < K; ++k) theta[k] = (n_dk[k] + alpha) / denom;
  return theta;
}

void Llda::SaveState(snapshot::Encoder* enc) const {
  enc->PutU64(config_.num_labels);
  enc->PutU64(config_.num_latent_topics);
  SaveFlatPhi(enc, vocab_size_, config_.TotalTopics(), phi_);
}

Status Llda::LoadState(snapshot::Decoder* dec) {
  uint64_t num_labels = 0;
  uint64_t num_latent = 0;
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&num_labels));
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&num_latent));
  if (num_latent != config_.num_latent_topics) {
    return Status::FailedPrecondition(
        "LLDA snapshot trained with " + std::to_string(num_latent) +
        " latent topics, configuration expects " +
        std::to_string(config_.num_latent_topics));
  }
  size_t vocab = 0;
  size_t topics = 0;
  std::vector<double> phi;
  MICROREC_RETURN_IF_ERROR(LoadFlatPhi(dec, "LLDA", &vocab, &topics, &phi));
  if (topics != num_labels + num_latent) {
    return Status::InvalidArgument(
        "LLDA snapshot topic count " + std::to_string(topics) +
        " does not equal labels + latent (" + std::to_string(num_labels) +
        " + " + std::to_string(num_latent) + ")");
  }
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  config_.num_labels = num_labels;
  vocab_size_ = vocab;
  phi_ = std::move(phi);
  trained_ = true;
  return Status::OK();
}

}  // namespace microrec::topic
