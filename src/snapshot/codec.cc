#include "snapshot/codec.h"

#include <algorithm>
#include <cstring>

#include "snapshot/format.h"

namespace microrec::snapshot {

namespace {

std::string At(const std::string& origin, uint64_t offset) {
  return origin + ":offset " + std::to_string(offset);
}

Status Loss(const std::string& origin, uint64_t offset, std::string what) {
  return Status::DataLoss(At(origin, offset) + ": " + std::move(what));
}

// ---- LZ77 parameters. ----
//
// Token stream: a control byte carries 8 flags, consumed LSB first; flag 0
// is one literal byte, flag 1 is a match of (distance u16 LE in [1, 65535],
// length u8 meaning kMinMatch + value). Matches may overlap their source
// (distance < length), which is how a run of one repeated 8-byte double
// costs 3 bytes per 259 — the dominant pattern in smoothed topic rows.
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = kMinMatch + 255;  // 259
constexpr size_t kWindow = 1 << 16;            // max distance 65535
constexpr size_t kHashBits = 16;
constexpr size_t kMaxChain = 32;  // candidate positions probed per match

inline uint32_t Hash4(const uint8_t* p) {
  uint32_t x;
  std::memcpy(&x, p, 4);
  return (x * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

// ---- Varints. ----

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Status GetVarint(std::string_view bytes, size_t* pos, uint64_t* out,
                 uint64_t base_offset, const std::string& origin,
                 const char* what) {
  uint64_t result = 0;
  int shift = 0;
  const size_t start = *pos;
  for (size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (*pos >= bytes.size()) {
      return Loss(origin, base_offset + *pos,
                  std::string("truncated varint (") + what + ")");
    }
    const uint8_t byte = static_cast<uint8_t>(bytes[(*pos)++]);
    // The 10th byte encodes bits 63..69; anything above bit 63 set means
    // the value does not fit a u64 — a flipped continuation bit, not data.
    if (shift == 63 && (byte & 0xFE) != 0) {
      return Loss(origin, base_offset + *pos - 1,
                  std::string("varint overflows 64 bits (") + what + ")");
    }
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return Status::OK();
    }
    shift += 7;
  }
  return Loss(origin, base_offset + start,
              std::string("overlong varint (") + what + ")");
}

// ---- Delta ids. ----

void PutDeltaIds(std::string* out, const std::vector<uint64_t>& ids) {
  PutVarint(out, ids.size());
  uint64_t prev = 0;
  for (uint64_t id : ids) {
    // Wrapping subtraction: the zigzag of the two's-complement difference
    // round-trips any sequence, monotone or not.
    PutVarint(out, ZigzagEncode(static_cast<int64_t>(id - prev)));
    prev = id;
  }
}

Status GetDeltaIds(std::string_view bytes, size_t* pos,
                   std::vector<uint64_t>* ids, size_t max_count,
                   uint64_t base_offset, const std::string& origin,
                   const char* what) {
  uint64_t count = 0;
  MICROREC_RETURN_IF_ERROR(
      GetVarint(bytes, pos, &count, base_offset, origin, what));
  if (count > max_count) {
    return Loss(origin, base_offset + *pos,
                std::string(what) + " count " + std::to_string(count) +
                    " exceeds bound " + std::to_string(max_count));
  }
  ids->clear();
  ids->reserve(static_cast<size_t>(count));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    MICROREC_RETURN_IF_ERROR(
        GetVarint(bytes, pos, &delta, base_offset, origin, what));
    prev += static_cast<uint64_t>(ZigzagDecode(delta));
    ids->push_back(prev);
  }
  return Status::OK();
}

// ---- LZ77. ----

std::string LzCompress(std::string_view raw) {
  std::string out;
  if (raw.empty()) return out;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(raw.data());
  const size_t n = raw.size();
  out.reserve(n / 2 + 16);

  std::vector<int64_t> head(size_t{1} << kHashBits, -1);
  std::vector<int64_t> prev(n, -1);

  size_t control_pos = 0;  // index of the current control byte in `out`
  int control_bits = 8;    // forces a fresh control byte on first token
  uint8_t control = 0;
  auto begin_token = [&](bool is_match) {
    if (control_bits == 8) {
      if (control_pos != 0 || !out.empty()) out[control_pos] = control;
      control_pos = out.size();
      out.push_back(0);
      control = 0;
      control_bits = 0;
    }
    if (is_match) control |= static_cast<uint8_t>(1u << control_bits);
    ++control_bits;
  };

  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      int64_t cand = head[Hash4(data + i)];
      const size_t limit = std::min(kMaxMatch, n - i);
      for (size_t chain = 0;
           chain < kMaxChain && cand >= 0 &&
           i - static_cast<size_t>(cand) < kWindow;
           ++chain, cand = prev[static_cast<size_t>(cand)]) {
        const size_t c = static_cast<size_t>(cand);
        size_t len = 0;
        while (len < limit && data[c + len] == data[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - c;
          if (len == limit) break;
        }
      }
    }
    if (best_len >= kMinMatch) {
      begin_token(true);
      out.push_back(static_cast<char>(best_dist & 0xFF));
      out.push_back(static_cast<char>((best_dist >> 8) & 0xFF));
      out.push_back(static_cast<char>(best_len - kMinMatch));
      const size_t end = i + best_len;
      for (; i < end; ++i) {
        if (i + kMinMatch <= n) {
          const uint32_t h = Hash4(data + i);
          prev[i] = head[h];
          head[h] = static_cast<int64_t>(i);
        }
      }
    } else {
      begin_token(false);
      out.push_back(static_cast<char>(data[i]));
      if (i + kMinMatch <= n) {
        const uint32_t h = Hash4(data + i);
        prev[i] = head[h];
        head[h] = static_cast<int64_t>(i);
      }
      ++i;
    }
  }
  out[control_pos] = control;
  return out;
}

Status LzDecompress(std::string_view enc, size_t raw_size, std::string* out,
                    uint64_t base_offset, const std::string& origin) {
  out->clear();
  out->reserve(raw_size);
  size_t pos = 0;
  uint8_t control = 0;
  int control_bits = 8;
  while (out->size() < raw_size) {
    if (control_bits == 8) {
      if (pos >= enc.size()) {
        return Loss(origin, base_offset + pos, "truncated LZ control byte");
      }
      control = static_cast<uint8_t>(enc[pos++]);
      control_bits = 0;
    }
    const bool is_match = (control >> control_bits) & 1;
    ++control_bits;
    if (is_match) {
      if (pos + 3 > enc.size()) {
        return Loss(origin, base_offset + pos, "truncated LZ match token");
      }
      const size_t dist = static_cast<uint8_t>(enc[pos]) |
                          (static_cast<size_t>(
                               static_cast<uint8_t>(enc[pos + 1]))
                           << 8);
      const size_t len =
          kMinMatch + static_cast<uint8_t>(enc[pos + 2]);
      pos += 3;
      if (dist == 0 || dist > out->size()) {
        return Loss(origin, base_offset + pos - 3,
                    "LZ match distance " + std::to_string(dist) +
                        " outside " + std::to_string(out->size()) +
                        " produced bytes");
      }
      if (out->size() + len > raw_size) {
        return Loss(origin, base_offset + pos - 3,
                    "LZ match overruns declared raw size");
      }
      // Byte-wise: overlapping matches replicate their own output.
      size_t src = out->size() - dist;
      for (size_t k = 0; k < len; ++k) out->push_back((*out)[src + k]);
    } else {
      if (pos >= enc.size()) {
        return Loss(origin, base_offset + pos, "truncated LZ literal");
      }
      out->push_back(enc[pos++]);
    }
  }
  if (pos != enc.size()) {
    return Loss(origin, base_offset + pos,
                std::to_string(enc.size() - pos) +
                    " trailing bytes after LZ stream");
  }
  return Status::OK();
}

// ---- MCS1 streams. ----

bool LooksLikeStream(std::string_view bytes) {
  return bytes.size() >= kStreamMagicSize &&
         bytes.substr(0, kStreamMagicSize) ==
             std::string_view(kStreamMagic, kStreamMagicSize);
}

std::string CompressStream(std::string_view raw, size_t block_size) {
  if (block_size == 0) block_size = kDefaultBlockSize;
  const size_t num_blocks = (raw.size() + block_size - 1) / block_size;

  std::string directory;
  std::string data;
  for (size_t b = 0; b < num_blocks; ++b) {
    std::string_view block =
        raw.substr(b * block_size, std::min(block_size, raw.size() - b * block_size));
    std::string lz = LzCompress(block);
    BlockMethod method = BlockMethod::kLz;
    std::string_view enc = lz;
    if (lz.size() >= block.size()) {
      method = BlockMethod::kStore;
      enc = block;
    }
    directory.push_back(static_cast<char>(method));
    PutVarint(&directory, enc.size());
    const uint32_t crc = Crc32(enc.data(), enc.size());
    for (int i = 0; i < 4; ++i) {
      directory.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
    }
    data.append(enc.data(), enc.size());
  }

  std::string out(kStreamMagic, kStreamMagicSize);
  out.push_back(0);  // flags
  PutVarint(&out, raw.size());
  PutVarint(&out, block_size);
  PutVarint(&out, num_blocks);
  out += directory;
  out += data;
  return out;
}

Result<BlockStream> BlockStream::Open(std::string_view stream,
                                      uint64_t base_offset,
                                      const std::string& origin) {
  BlockStream bs;
  bs.stream_ = stream;
  bs.base_offset_ = base_offset;
  bs.origin_ = origin;
  if (!LooksLikeStream(stream)) {
    return Loss(origin, base_offset, "missing MCS1 stream magic");
  }
  size_t pos = kStreamMagicSize;
  if (pos >= stream.size() || stream[pos] != 0) {
    return Loss(origin, base_offset + pos, "unsupported MCS1 stream flags");
  }
  ++pos;
  uint64_t num_blocks = 0;
  MICROREC_RETURN_IF_ERROR(GetVarint(stream, &pos, &bs.raw_size_, base_offset,
                                     origin, "stream raw size"));
  MICROREC_RETURN_IF_ERROR(GetVarint(stream, &pos, &bs.block_size_,
                                     base_offset, origin,
                                     "stream block size"));
  MICROREC_RETURN_IF_ERROR(GetVarint(stream, &pos, &num_blocks, base_offset,
                                     origin, "stream block count"));
  if (bs.block_size_ == 0) {
    return Loss(origin, base_offset + pos, "stream block size is zero");
  }
  const uint64_t expect_blocks =
      (bs.raw_size_ + bs.block_size_ - 1) / bs.block_size_;
  if (num_blocks != expect_blocks) {
    return Loss(origin, base_offset + pos,
                "stream declares " + std::to_string(num_blocks) +
                    " blocks, sizes require " +
                    std::to_string(expect_blocks));
  }
  // Each directory entry costs >= 6 bytes; bound before allocating.
  if (num_blocks > (stream.size() - pos) / 6 + 1) {
    return Loss(origin, base_offset + pos,
                "stream block count " + std::to_string(num_blocks) +
                    " larger than the stream could hold");
  }
  bs.blocks_.reserve(static_cast<size_t>(num_blocks));
  std::vector<uint64_t> enc_lens;
  enc_lens.reserve(static_cast<size_t>(num_blocks));
  for (uint64_t b = 0; b < num_blocks; ++b) {
    if (pos >= stream.size()) {
      return Loss(origin, base_offset + pos, "truncated block directory");
    }
    BlockRef ref;
    const uint8_t method = static_cast<uint8_t>(stream[pos++]);
    if (method > static_cast<uint8_t>(BlockMethod::kLz)) {
      return Loss(origin, base_offset + pos - 1,
                  "unknown block method " + std::to_string(method));
    }
    ref.method = static_cast<BlockMethod>(method);
    MICROREC_RETURN_IF_ERROR(GetVarint(stream, &pos, &ref.enc_len,
                                       base_offset, origin,
                                       "block encoded length"));
    if (pos + 4 > stream.size()) {
      return Loss(origin, base_offset + pos, "truncated block CRC");
    }
    ref.crc = 0;
    for (int i = 0; i < 4; ++i) {
      ref.crc |= static_cast<uint32_t>(static_cast<uint8_t>(stream[pos + i]))
                 << (8 * i);
    }
    pos += 4;
    const uint64_t raw_len =
        std::min<uint64_t>(bs.block_size_, bs.raw_size_ - b * bs.block_size_);
    if (ref.method == BlockMethod::kStore && ref.enc_len != raw_len) {
      return Loss(origin, base_offset + pos,
                  "stored block " + std::to_string(b) + " length " +
                      std::to_string(ref.enc_len) + " != raw length " +
                      std::to_string(raw_len));
    }
    if (ref.method == BlockMethod::kLz && ref.enc_len >= raw_len) {
      return Loss(origin, base_offset + pos,
                  "LZ block " + std::to_string(b) +
                      " not smaller than its raw form");
    }
    enc_lens.push_back(ref.enc_len);
    bs.blocks_.push_back(ref);
  }
  uint64_t data_pos = pos;
  for (size_t b = 0; b < bs.blocks_.size(); ++b) {
    bs.blocks_[b].offset = data_pos;
    if (enc_lens[b] > stream.size() - data_pos) {
      return Loss(origin, base_offset + data_pos,
                  "truncated inside block " + std::to_string(b) + " (need " +
                      std::to_string(enc_lens[b]) + " bytes, have " +
                      std::to_string(stream.size() - data_pos) + ")");
    }
    data_pos += enc_lens[b];
  }
  if (data_pos != stream.size()) {
    return Loss(origin, base_offset + data_pos,
                std::to_string(stream.size() - data_pos) +
                    " trailing bytes after the last block");
  }
  return bs;
}

Status BlockStream::BlockData(size_t index, const std::string** out) const {
  for (size_t i = 0; i < cache_.size(); ++i) {
    if (cache_[i].first == index) {
      if (i != 0) std::rotate(cache_.begin(), cache_.begin() + i,
                              cache_.begin() + i + 1);
      *out = &cache_.front().second;
      return Status::OK();
    }
  }
  const BlockRef& ref = blocks_[index];
  std::string_view enc = stream_.substr(static_cast<size_t>(ref.offset),
                                        static_cast<size_t>(ref.enc_len));
  const uint32_t crc = Crc32(enc.data(), enc.size());
  if (crc != ref.crc) {
    return Loss(origin_, base_offset_ + ref.offset,
                "CRC mismatch in block " + std::to_string(index) +
                    " (stored " + std::to_string(ref.crc) + ", computed " +
                    std::to_string(crc) + ")");
  }
  const uint64_t raw_len =
      std::min<uint64_t>(block_size_, raw_size_ - index * block_size_);
  std::string raw;
  if (ref.method == BlockMethod::kStore) {
    raw.assign(enc.data(), enc.size());
  } else {
    MICROREC_RETURN_IF_ERROR(LzDecompress(enc, static_cast<size_t>(raw_len),
                                          &raw, base_offset_ + ref.offset,
                                          origin_));
  }
  cache_.insert(cache_.begin(), {index, std::move(raw)});
  if (cache_.size() > kCacheBlocks) cache_.pop_back();
  *out = &cache_.front().second;
  return Status::OK();
}

Status BlockStream::ReadRange(uint64_t raw_offset, size_t n,
                              std::string* out) const {
  out->clear();
  if (n == 0) return Status::OK();
  if (raw_offset > raw_size_ || n > raw_size_ - raw_offset) {
    return Loss(origin_, base_offset_,
                "row range [" + std::to_string(raw_offset) + ", " +
                    std::to_string(raw_offset + n) +
                    ") outside stream of " + std::to_string(raw_size_) +
                    " raw bytes");
  }
  out->reserve(n);
  uint64_t pos = raw_offset;
  const uint64_t end = raw_offset + n;
  while (pos < end) {
    const size_t block = static_cast<size_t>(pos / block_size_);
    const uint64_t block_start = static_cast<uint64_t>(block) * block_size_;
    const std::string* data = nullptr;
    MICROREC_RETURN_IF_ERROR(BlockData(block, &data));
    const uint64_t from = pos - block_start;
    const uint64_t take = std::min<uint64_t>(data->size() - from, end - pos);
    out->append(data->data() + from, static_cast<size_t>(take));
    pos += take;
  }
  return Status::OK();
}

Status DecompressStream(std::string_view stream, std::string* raw,
                        uint64_t base_offset, const std::string& origin) {
  Result<BlockStream> bs = BlockStream::Open(stream, base_offset, origin);
  if (!bs.ok()) return bs.status();
  return bs->ReadRange(0, static_cast<size_t>(bs->raw_size()), raw);
}

// ---- Row tables. ----

Status TableBuilder::AddRow(uint64_t id, std::string_view row) {
  if (!ids_.empty() && id <= ids_.back()) {
    return Status::InvalidArgument(
        "table rows must be added in strictly increasing id order (" +
        std::to_string(id) + " after " + std::to_string(ids_.back()) + ")");
  }
  ids_.push_back(id);
  lengths_.push_back(row.size());
  rows_.append(row.data(), row.size());
  return Status::OK();
}

std::string TableBuilder::Finish() && {
  std::string index;
  uint64_t prev = 0;
  for (uint64_t id : ids_) {
    PutVarint(&index, ZigzagEncode(static_cast<int64_t>(id - prev)));
    prev = id;
  }
  for (uint64_t len : lengths_) PutVarint(&index, len);

  std::string out;
  PutVarint(&out, ids_.size());
  PutVarint(&out, index.size());
  out += index;
  out += rows_;
  return out;
}

size_t TableIndex::Find(uint64_t id) const {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return kNotFound;
  return static_cast<size_t>(it - ids.begin());
}

Status TableIndexBytes(std::string_view prefix, uint64_t payload_size,
                       uint64_t* index_bytes, uint64_t base_offset,
                       const std::string& origin) {
  size_t pos = 0;
  uint64_t row_count = 0;
  uint64_t index_size = 0;
  MICROREC_RETURN_IF_ERROR(GetVarint(prefix, &pos, &row_count, base_offset,
                                     origin, "table row count"));
  MICROREC_RETURN_IF_ERROR(GetVarint(prefix, &pos, &index_size, base_offset,
                                     origin, "table index size"));
  if (index_size > payload_size || pos + index_size > payload_size) {
    return Loss(origin, base_offset + pos,
                "table index of " + std::to_string(index_size) +
                    " bytes exceeds payload of " +
                    std::to_string(payload_size));
  }
  *index_bytes = pos + index_size;
  return Status::OK();
}

Status ParseTableIndex(std::string_view index_prefix, uint64_t payload_size,
                       TableIndex* index, uint64_t base_offset,
                       const std::string& origin) {
  size_t pos = 0;
  uint64_t row_count = 0;
  uint64_t index_size = 0;
  MICROREC_RETURN_IF_ERROR(GetVarint(index_prefix, &pos, &row_count,
                                     base_offset, origin, "table row count"));
  MICROREC_RETURN_IF_ERROR(GetVarint(index_prefix, &pos, &index_size,
                                     base_offset, origin,
                                     "table index size"));
  // One id and one length cost at least a byte each.
  if (row_count > index_size) {
    return Loss(origin, base_offset + pos,
                "table row count " + std::to_string(row_count) +
                    " larger than a " + std::to_string(index_size) +
                    "-byte index could hold");
  }
  if (pos + index_size > index_prefix.size()) {
    return Loss(origin, base_offset + pos, "truncated table index");
  }
  const size_t index_end = pos + static_cast<size_t>(index_size);

  index->ids.clear();
  index->ids.reserve(static_cast<size_t>(row_count));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < row_count; ++i) {
    uint64_t delta = 0;
    MICROREC_RETURN_IF_ERROR(GetVarint(index_prefix, &pos, &delta,
                                       base_offset, origin, "table row id"));
    prev += static_cast<uint64_t>(ZigzagDecode(delta));
    if (!index->ids.empty() && prev <= index->ids.back()) {
      return Loss(origin, base_offset + pos,
                  "table row ids not strictly increasing (" +
                      std::to_string(prev) + " after " +
                      std::to_string(index->ids.back()) + ")");
    }
    index->ids.push_back(prev);
  }
  index->offsets.clear();
  index->offsets.reserve(static_cast<size_t>(row_count) + 1);
  index->offsets.push_back(0);
  uint64_t total = 0;
  for (uint64_t i = 0; i < row_count; ++i) {
    uint64_t len = 0;
    MICROREC_RETURN_IF_ERROR(GetVarint(index_prefix, &pos, &len, base_offset,
                                       origin, "table row length"));
    if (len > payload_size - total) {
      return Loss(origin, base_offset + pos,
                  "table rows overflow the payload");
    }
    total += len;
    index->offsets.push_back(total);
  }
  if (pos != index_end) {
    return Loss(origin, base_offset + pos,
                "table index has " + std::to_string(index_end - pos) +
                    " unread bytes");
  }
  index->rows_begin = index_end;
  if (index->rows_begin + total != payload_size) {
    return Loss(origin, base_offset + index->rows_begin,
                "table rows cover " + std::to_string(total) +
                    " bytes, payload holds " +
                    std::to_string(payload_size - index->rows_begin));
  }
  return Status::OK();
}

}  // namespace microrec::snapshot
