// Compressed-section codec of the `microrec.snap/2` container (DESIGN.md
// §16): LEB128 varints, zigzag delta encoding for id sequences, a
// self-contained block-compressed stream ("MCS1") with per-block CRC32 and
// an LZ77 byte compressor, and an id-indexed row table that supports random
// access — the building blocks that let a snapshot hold millions of user
// rows and cached inferences in a fraction of their resident size, and let
// the mmap serving mode decode exactly one row per query.
//
// Every decode error is a kDataLoss Status carrying the *absolute file
// offset* of the bad byte (threaded through `base_offset`), so a corrupted
// block reads "file.snap:offset 1234" — never a crash, hang, or silently
// wrong counts.
#ifndef MICROREC_SNAPSHOT_CODEC_H_
#define MICROREC_SNAPSHOT_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace microrec::snapshot {

// ---- Varints (LEB128: 7 payload bits per byte, high bit = continue). ----

/// Longest legal encoding of a u64 (10 bytes); an 11th continuation byte is
/// corruption, not a longer number.
inline constexpr size_t kMaxVarintBytes = 10;

void PutVarint(std::string* out, uint64_t v);

/// Bounds-checked read at `*pos` inside `bytes`. On success advances `*pos`.
/// Truncation, an overlong run of continuation bits, or bits beyond 64 all
/// yield kDataLoss naming `origin`, `what` and the absolute offset
/// (`base_offset + *pos`).
Status GetVarint(std::string_view bytes, size_t* pos, uint64_t* out,
                 uint64_t base_offset, const std::string& origin,
                 const char* what);

// ---- Zigzag delta coding of id sequences. ----
//
// Each id is encoded as the zigzag-mapped difference from its predecessor
// (first id diffs against 0), so sorted ids become tiny varints while
// arbitrary — even non-monotone — sequences still round-trip exactly.

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Appends `n` then the zigzag deltas of `ids`.
void PutDeltaIds(std::string* out, const std::vector<uint64_t>& ids);

/// Reads a PutDeltaIds sequence. `max_count` bounds the leading count so a
/// flipped length field cannot drive an unbounded allocation (pass the
/// enclosing buffer size: one id costs at least one byte).
Status GetDeltaIds(std::string_view bytes, size_t* pos,
                   std::vector<uint64_t>* ids, size_t max_count,
                   uint64_t base_offset, const std::string& origin,
                   const char* what);

// ---- Block-compressed streams ("MCS1"). ----
//
// Layout (all varints unless noted):
//   "MCS1"          4 bytes
//   u8              stream flags (must be 0)
//   raw_size        total decompressed bytes
//   block_size      raw bytes per block (last block may be short)
//   num_blocks      must equal ceil(raw_size / block_size)
//   per block:      u8 method, enc_len, u32 crc32 (LE, over encoded bytes)
//   block bytes concatenated in order
//
// The directory precedes the data so a reader can address any block — and
// therefore any raw byte range — without touching the others; that is what
// the mmap serving mode pages by. Per-block CRCs localize integrity to the
// data actually read. A block whose LZ form would not shrink is stored
// verbatim (method kStore), so compression never inflates by more than the
// fixed per-block framing.

enum class BlockMethod : uint8_t {
  kStore = 0,  // raw bytes
  kLz = 1,     // LZ77, 64 KiB window (see codec.cc)
};

inline constexpr char kStreamMagic[] = "MCS1";
inline constexpr size_t kStreamMagicSize = 4;
/// Default raw bytes per block. Large enough that LZ matches reach across
/// repeated f64 topic rows; small enough that one row access decompresses
/// kilobytes, not the model.
inline constexpr size_t kDefaultBlockSize = 1 << 16;

/// LZ77 round-trip primitives over whole buffers (block framing is layered
/// on top by CompressStream). Exposed for the property tests.
std::string LzCompress(std::string_view raw);
Status LzDecompress(std::string_view enc, size_t raw_size, std::string* out,
                    uint64_t base_offset, const std::string& origin);

/// Wraps `raw` in an MCS1 stream. Deterministic: the same input always
/// produces the same bytes.
std::string CompressStream(std::string_view raw,
                           size_t block_size = kDefaultBlockSize);

/// Whole-stream decompression (the resident load path).
Status DecompressStream(std::string_view stream, std::string* raw,
                        uint64_t base_offset, const std::string& origin);

/// True when `bytes` begins with the MCS1 magic.
bool LooksLikeStream(std::string_view bytes);

/// Random access over an MCS1 stream without decompressing it: Open parses
/// and validates the directory only; ReadRange decompresses just the blocks
/// covering [raw_offset, raw_offset + n), verifying each block's CRC, and
/// keeps a small LRU of decompressed blocks so row-sized reads against warm
/// blocks cost a memcpy. Not thread-safe (the cache mutates on read).
class BlockStream {
 public:
  static Result<BlockStream> Open(std::string_view stream,
                                  uint64_t base_offset,
                                  const std::string& origin);

  uint64_t raw_size() const { return raw_size_; }
  size_t num_blocks() const { return blocks_.size(); }

  /// Copies `n` raw bytes starting at `raw_offset` into `out` (resized).
  /// kDataLoss on any block CRC mismatch, malformed block, or a range that
  /// leaves the stream.
  Status ReadRange(uint64_t raw_offset, size_t n, std::string* out) const;

 private:
  struct BlockRef {
    BlockMethod method = BlockMethod::kStore;
    uint64_t offset = 0;  // into stream_, first encoded byte
    uint64_t enc_len = 0;
    uint32_t crc = 0;
  };

  /// Decompressed block `index`, CRC-verified, via the LRU cache.
  Status BlockData(size_t index, const std::string** out) const;

  std::string_view stream_;
  uint64_t base_offset_ = 0;
  std::string origin_;
  uint64_t raw_size_ = 0;
  uint64_t block_size_ = 0;
  std::vector<BlockRef> blocks_;

  // Tiny LRU of decompressed blocks, front = most recent.
  static constexpr size_t kCacheBlocks = 8;
  mutable std::vector<std::pair<size_t, std::string>> cache_;
};

// ---- Row tables: id-indexed byte rows with random access. ----
//
// Layout (inside a section payload, before optional stream compression):
//   row_count     varint
//   index_size    varint — bytes of the two index arrays that follow
//   ids           zigzag deltas (row_count varints)
//   lengths       row byte lengths (row_count varints)
//   rows          concatenated row bytes, in index order
//
// The index sits at the head so a mapped reader materializes it from the
// first block(s) alone; every row is then one offset lookup away.

/// Accumulates rows (ids must be strictly increasing — callers sort first)
/// and serializes the table.
class TableBuilder {
 public:
  /// Dies (Status) on a non-increasing id so a table can never be written
  /// with an index its binary-searching readers would miss rows in.
  Status AddRow(uint64_t id, std::string_view row);
  std::string Finish() &&;
  size_t row_count() const { return ids_.size(); }

 private:
  std::vector<uint64_t> ids_;
  std::vector<uint64_t> lengths_;
  std::string rows_;
};

/// Parsed table index: ids plus [offset, offset + length) of each row
/// relative to the start of the table payload.
struct TableIndex {
  std::vector<uint64_t> ids;
  std::vector<uint64_t> offsets;  // size ids.size() + 1; prefix sums
  uint64_t rows_begin = 0;        // payload offset of the first row byte

  /// Ordinal of `id`, or npos. Ids are strictly increasing: binary search.
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  size_t Find(uint64_t id) const;

  uint64_t row_offset(size_t ordinal) const {
    return rows_begin + offsets[ordinal];
  }
  uint64_t row_length(size_t ordinal) const {
    return offsets[ordinal + 1] - offsets[ordinal];
  }
};

/// Parses the index from a full table payload. `payload_size` (the total
/// table size) validates that rows stay in bounds.
Status ParseTableIndex(std::string_view index_prefix, uint64_t payload_size,
                       TableIndex* index, uint64_t base_offset,
                       const std::string& origin);

/// How many leading payload bytes ParseTableIndex needs, parsed from the
/// first `prefix` bytes (enough to hold the two leading varints). Returns
/// the total index byte count (leading varints + index arrays).
Status TableIndexBytes(std::string_view prefix, uint64_t payload_size,
                       uint64_t* index_bytes, uint64_t base_offset,
                       const std::string& origin);

}  // namespace microrec::snapshot

#endif  // MICROREC_SNAPSHOT_CODEC_H_
