// Fixed-width byte codec of the `microrec.snap/2` container (its varint
// codec is snapshot/codec.h): little-endian integers, bit-exact doubles
// (IEEE-754 payload round-trips through a uint64), length-prefixed strings
// and homogeneous vectors.
// The Encoder appends to a growable byte string; the Decoder is a
// bounds-checked cursor over an in-memory buffer that reports every
// malformation as a Status carrying the *absolute file offset* of the bad
// byte, so corruption reports read "file.snap:offset 1234" instead of
// crashing or silently mis-scoring.
#ifndef MICROREC_SNAPSHOT_FORMAT_H_
#define MICROREC_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace microrec::snapshot {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes,
/// chainable through `seed` (pass a previous checksum to extend it).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);
inline uint32_t Crc32(std::string_view bytes, uint32_t seed = 0) {
  return Crc32(bytes.data(), bytes.size(), seed);
}

/// FNV-1a over a term list, with per-term length framing so {"ab","c"} and
/// {"a","bc"} hash differently. Binds a snapshot to the exact vocabulary it
/// was trained over.
uint64_t FingerprintTerms(const std::vector<std::string_view>& terms);

/// Appends primitives to a byte buffer. All integers are little-endian;
/// doubles are stored as their IEEE-754 bit pattern for exact round-trips
/// (including negative zero, subnormals, infinities and NaN payloads).
class Encoder {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutF64(double v);
  /// Length-prefixed (u32) byte string.
  void PutString(std::string_view s);
  /// Raw bytes, no framing (caller has already emitted a length).
  void PutRaw(std::string_view s) { out_.append(s.data(), s.size()); }
  void PutVecF64(const std::vector<double>& v);
  void PutVecU32(const std::vector<uint32_t>& v);
  void PutVecString(const std::vector<std::string>& v);

  const std::string& bytes() const { return out_; }
  std::string&& Release() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a byte range. `base_offset` is the absolute
/// file position of the first byte, folded into every error message.
class Decoder {
 public:
  Decoder(std::string_view bytes, uint64_t base_offset = 0)
      : bytes_(bytes), base_offset_(base_offset) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadF64(double* out);
  Status ReadString(std::string* out);
  Status ReadVecF64(std::vector<double>* out);
  Status ReadVecU32(std::vector<uint32_t>* out);
  Status ReadVecString(std::vector<std::string>* out);

  /// Error unless every byte has been consumed (catches spliced payloads
  /// whose length prefix no longer matches their content).
  Status ExpectEnd() const;

  /// Advances past `n` bytes; truncation error (naming `what`) otherwise.
  Status Skip(size_t n, const char* what);

  size_t remaining() const { return bytes_.size() - pos_; }
  /// Absolute file offset of the next unread byte.
  uint64_t offset() const { return base_offset_ + pos_; }

 private:
  /// Fails with the offset when fewer than `n` bytes remain. `what` names
  /// the field being read.
  Status Need(size_t n, const char* what) const;

  std::string_view bytes_;
  uint64_t base_offset_;
  size_t pos_ = 0;
};

}  // namespace microrec::snapshot

#endif  // MICROREC_SNAPSHOT_FORMAT_H_
