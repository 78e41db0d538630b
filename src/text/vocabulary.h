// String interning: maps n-gram / token strings to dense integer ids.
// Every model layer (bag vectors, graph nodes, topic samplers) works on ids
// so the hot loops never hash strings.
#ifndef MICROREC_TEXT_VOCABULARY_H_
#define MICROREC_TEXT_VOCABULARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace microrec::text {

/// Dense id assigned to an interned term.
using TermId = uint32_t;

inline constexpr TermId kInvalidTerm = UINT32_MAX;

/// Append-only bidirectional term <-> id map.
///
/// Lookups hash the caller's string_view as is: no temporary std::string.
/// Not thread-safe for interning; concurrent read-only lookup is safe once
/// construction is complete.
class Vocabulary {
 public:
  /// Interns `term`, returning its id (existing or freshly assigned).
  TermId Intern(std::string_view term);

  /// Looks up an existing term; kInvalidTerm when absent.
  TermId Find(std::string_view term) const;

  /// Inverse lookup. `id` must be a valid interned id.
  const std::string& TermOf(TermId id) const { return terms_[id]; }

  size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }

  /// Interns every string in `terms` and returns the id sequence.
  std::vector<TermId> InternAll(const std::vector<std::string>& terms);

 private:
  // Transparent, so find() takes a string_view (C++20 heterogeneous lookup).
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>{}(term);
    }
  };

  std::unordered_map<std::string, TermId, Hash, std::equal_to<>> index_;
  std::vector<std::string> terms_;
};

}  // namespace microrec::text

#endif  // MICROREC_TEXT_VOCABULARY_H_
