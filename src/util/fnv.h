// FNV-1a, 64-bit (Fowler, Noll and Vo): the one hash loop behind the
// snapshot dictionary fingerprint, the model-config fingerprint, shard
// assignment, the fault-site streams, and the load layer's schedule and
// rankings hashes. Each of those persists or compares its bits, so each
// keeps the offset basis it has always started from.
#ifndef MICROREC_UTIL_FNV_H_
#define MICROREC_UTIL_FNV_H_

#include <cstdint>
#include <string_view>

namespace microrec {

/// FNV-1a's 64-bit offset basis.
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Folds `bytes` into the FNV-1a state `hash`, one byte at a time.
inline uint64_t FnvMix(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;  // FNV-1a's 64-bit prime
  }
  return hash;
}

/// Folds `value`'s eight bytes into `hash`, least significant first.
inline uint64_t FnvMixU64(uint64_t hash, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  return FnvMix(hash, std::string_view(bytes, sizeof(bytes)));
}

}  // namespace microrec

#endif  // MICROREC_UTIL_FNV_H_
