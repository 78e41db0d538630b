// String interning: maps n-gram / token strings to dense integer ids.
// Every model layer (bag vectors, graph nodes, topic samplers) works on ids
// so the hot loops never hash strings.
#ifndef MICROREC_TEXT_VOCABULARY_H_
#define MICROREC_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace microrec::text {

/// Dense id assigned to an interned term.
using TermId = uint32_t;

inline constexpr TermId kInvalidTerm = UINT32_MAX;

/// Append-only bidirectional term <-> id map: each term's bytes once, back
/// to back, under an open-addressing table of ids (no node or string per
/// term). Lookups hash the caller's string_view as is: no temporary
/// std::string. Not thread-safe for interning; concurrent read-only lookup
/// is safe once construction is complete.
class Vocabulary {
 public:
  /// Interns `term`, returning its id (existing or freshly assigned).
  TermId Intern(std::string_view term);

  /// Looks up an existing term; kInvalidTerm when absent.
  TermId Find(std::string_view term) const;

  /// Inverse lookup, valid until the next Intern(). `id` must be a valid
  /// interned id.
  std::string_view TermOf(TermId id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(chars_).substr(begin, ends_[id] - begin);
  }

  size_t size() const { return ends_.size(); }

  /// Interns every string in `terms` and returns the id sequence.
  std::vector<TermId> InternAll(const std::vector<std::string>& terms);

 private:
  // The slot holding `term`'s id, or the empty slot it would take.
  size_t SlotOf(std::string_view term) const;

  std::string chars_;          // every term's bytes, in id order
  std::vector<size_t> ends_;   // term `id` is chars_[ends_[id - 1], ends_[id])
  std::vector<TermId> slots_;  // ids by hash; kInvalidTerm marks an empty slot
};

}  // namespace microrec::text

#endif  // MICROREC_TEXT_VOCABULARY_H_
