#include "text/vocabulary.h"

#include <algorithm>
#include <functional>

namespace microrec::text {

size_t Vocabulary::SlotOf(std::string_view term) const {
  const size_t mask = slots_.size() - 1;
  size_t i = std::hash<std::string_view>{}(term) & mask;
  while (slots_[i] != kInvalidTerm && TermOf(slots_[i]) != term) {
    i = (i + 1) & mask;
  }
  return i;
}

TermId Vocabulary::Intern(std::string_view term) {
  if (2 * (size() + 1) > slots_.size()) {  // grow: a power of two, re-slot
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kInvalidTerm);
    for (TermId id = 0; id < size(); ++id) slots_[SlotOf(TermOf(id))] = id;
  }
  TermId& slot = slots_[SlotOf(term)];
  if (slot == kInvalidTerm) {
    slot = static_cast<TermId>(size());
    chars_.append(term);
    ends_.push_back(chars_.size());
  }
  return slot;
}

TermId Vocabulary::Find(std::string_view term) const {
  return slots_.empty() ? kInvalidTerm : slots_[SlotOf(term)];
}

std::vector<TermId> Vocabulary::InternAll(
    const std::vector<std::string>& terms) {
  std::vector<TermId> ids;
  ids.reserve(terms.size());
  for (const auto& term : terms) ids.push_back(Intern(term));
  return ids;
}

}  // namespace microrec::text
