#include "topic/doc_set.h"

namespace microrec::topic {

size_t DocSet::AddDocument(bag::GramDoc grams) {
  TopicDoc doc;
  vocab_.InternAll(grams, &doc.words);
  total_tokens_ += doc.words.size();
  docs_.push_back(std::move(doc));
  return docs_.size() - 1;
}

void DocSet::SetLabels(size_t doc_index, std::vector<uint32_t> labels) {
  docs_[doc_index].labels = std::move(labels);
}

std::vector<TermId> DocSet::Lookup(bag::GramDoc grams) const {
  std::vector<TermId> out;
  out.reserve(grams.size());
  for (TermId gram : grams) {
    TermId id = vocab_.Find(gram);
    if (id != text::kInvalidTerm) out.push_back(id);
  }
  return out;
}

}  // namespace microrec::topic
