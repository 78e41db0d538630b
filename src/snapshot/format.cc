#include "snapshot/format.h"

#include <array>

#include "util/fnv.h"

namespace microrec::snapshot {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

// Guards vector length prefixes: a flipped bit in a count must fail the
// bounds check, never drive a multi-gigabyte allocation. Each element is at
// least one byte on the wire, so a count larger than the bytes remaining is
// structurally impossible.
constexpr const char* kCountOverflow = "element count exceeds remaining bytes";

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint64_t FingerprintTerms(const std::vector<std::string_view>& terms) {
  uint64_t h = FnvMixU64(kFnvBasis, terms.size());
  for (std::string_view term : terms) {
    h = FnvMix(FnvMixU64(h, term.size()), term);
  }
  return h;
}

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Encoder::PutF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

void Encoder::PutVecF64(const std::vector<double>& v) {
  PutU64(v.size());
  for (double x : v) PutF64(x);
}

void Encoder::PutVecU32(const std::vector<uint32_t>& v) {
  PutU64(v.size());
  for (uint32_t x : v) PutU32(x);
}

Status Decoder::Need(size_t n, const char* what) const {
  if (bytes_.size() - pos_ >= n) return Status::OK();
  return Status::InvalidArgument(
      "truncated at offset " + std::to_string(offset()) + ": need " +
      std::to_string(n) + " bytes for " + what + ", have " +
      std::to_string(bytes_.size() - pos_));
}

Status Decoder::ReadU8(uint8_t* out) {
  MICROREC_RETURN_IF_ERROR(Need(1, "u8"));
  *out = static_cast<uint8_t>(bytes_[pos_++]);
  return Status::OK();
}

Status Decoder::ReadU32(uint32_t* out) {
  MICROREC_RETURN_IF_ERROR(Need(4, "u32"));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status Decoder::ReadU64(uint64_t* out) {
  MICROREC_RETURN_IF_ERROR(Need(8, "u64"));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status Decoder::ReadF64(double* out) {
  uint64_t bits = 0;
  MICROREC_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status Decoder::ReadString(std::string* out) {
  uint32_t len = 0;
  MICROREC_RETURN_IF_ERROR(ReadU32(&len));
  MICROREC_RETURN_IF_ERROR(Need(len, "string payload"));
  out->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status Decoder::ReadVecF64(std::vector<double>* out) {
  uint64_t count = 0;
  MICROREC_RETURN_IF_ERROR(ReadU64(&count));
  if (count > remaining() / 8) {
    return Status::InvalidArgument("f64 " + std::string(kCountOverflow) +
                                   " at offset " + std::to_string(offset()));
  }
  out->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    MICROREC_RETURN_IF_ERROR(ReadF64(&(*out)[i]));
  }
  return Status::OK();
}

Status Decoder::ReadVecU32(std::vector<uint32_t>* out) {
  uint64_t count = 0;
  MICROREC_RETURN_IF_ERROR(ReadU64(&count));
  if (count > remaining() / 4) {
    return Status::InvalidArgument("u32 " + std::string(kCountOverflow) +
                                   " at offset " + std::to_string(offset()));
  }
  out->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    MICROREC_RETURN_IF_ERROR(ReadU32(&(*out)[i]));
  }
  return Status::OK();
}

Status Decoder::Skip(size_t n, const char* what) {
  MICROREC_RETURN_IF_ERROR(Need(n, what));
  pos_ += n;
  return Status::OK();
}

Status Decoder::ExpectEnd() const {
  if (pos_ == bytes_.size()) return Status::OK();
  return Status::InvalidArgument(
      std::to_string(bytes_.size() - pos_) +
      " unconsumed trailing bytes at offset " + std::to_string(offset()));
}

}  // namespace microrec::snapshot
