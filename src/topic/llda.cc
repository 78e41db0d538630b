#include "topic/llda.h"

#include "obs/trace.h"

namespace microrec::topic {

Status Llda::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("llda_train");
  if (!phi_.empty()) return Status::FailedPrecondition("Train called twice");
  if (config_.num_latent_topics == 0) {
    return Status::InvalidArgument("need at least one latent topic");
  }
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  MICROREC_RETURN_IF_ERROR(ValidateHyperparameters(
      "LLDA", config_.ResolvedAlpha(), config_.beta));
  const size_t num_labels = config_.num_labels;

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
  return TrainDocGibbs("LLDA", docs, config_.TotalTopics(),
                       config_.ResolvedAlpha(), config_.beta,
                       config_.train_iterations, config_.train,
                       config_.cancel, &allowed, /*latent_begin=*/num_labels,
                       "topic.llda.sweep_seconds", rng, &phi_);
}

std::vector<double> Llda::InferDocument(const std::vector<TermId>& words,
                                        Rng* rng) const {
  const size_t K = config_.TotalTopics();
  if (phi_.empty() || words.empty()) {
    return std::vector<double>(K, 1.0 / static_cast<double>(K));
  }
  const double alpha = config_.ResolvedAlpha();
  return GibbsFoldIn(std::vector<double>(K, alpha),
                     static_cast<double>(K) * alpha, phi_.TokenProbs(words),
                     rng);
}

void Llda::SaveState(snapshot::Encoder* enc) const {
  enc->PutU64(config_.num_labels);
  enc->PutU64(config_.num_latent_topics);
  phi_.Save(enc);
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
  FlatPhi phi;
  MICROREC_RETURN_IF_ERROR(phi.Load(dec, "LLDA"));
  if (phi.num_topics() != num_labels + num_latent) {
    return Status::InvalidArgument(
        "LLDA snapshot topic count " + std::to_string(phi.num_topics()) +
        " does not equal labels + latent (" + std::to_string(num_labels) +
        " + " + std::to_string(num_latent) + ")");
  }
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  config_.num_labels = num_labels;
  phi_ = std::move(phi);
  return Status::OK();
}

}  // namespace microrec::topic
