// Read-only mmap access to `microrec.snap` containers: the serving half of
// the memory-scaled snapshot design (DESIGN.md §16). A MappedFile maps the
// container and parses only its section *directory* — names, offsets,
// lengths and the (small, raw) header section — so opening a multi-gigabyte
// snapshot touches a handful of pages. A MappedTable then gives random
// access to one row of a varint/delta table at a time: the engines'
// mmap serving mode materializes exactly the users a query needs, and the
// kernel reclaims cold pages under memory pressure instead of the process
// OOMing (the wall that forced the paper to drop PLSA at 120 GB resident).
//
// Integrity in mapped mode is per-byte-read rather than per-file: every
// block a row read touches has its CRC verified on first decompression, and
// all structural fields are bounds-checked at open. Decode errors are
// kDataLoss with `file:offset` context, exactly like the resident reader.
//
// Alignment contract: rows are *copied* out of the map (decompressed or
// memcpy'd), never cast in place, so the format owes no alignment to any
// section payload and mapped access is UBSan-clean on every architecture.
#ifndef MICROREC_SNAPSHOT_MAPPED_H_
#define MICROREC_SNAPSHOT_MAPPED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "util/status.h"

namespace microrec::snapshot {

/// A memory-mapped snapshot container, validated structurally at open:
/// magic, section framing, header CRC + identity decode. Section payloads
/// are NOT CRC-verified at open (that would fault in every page); they are
/// verified block-by-block as they are read, and all of them by
/// VerifyChecksums.
class MappedFile {
 public:
  /// One directory entry; `payload` views straight into the map.
  struct MappedSection {
    std::string name;
    std::string_view payload;     // stored (possibly compressed) bytes
    uint64_t payload_offset = 0;  // absolute file offset of the payload
    uint32_t crc = 0;             // frame CRC over name ++ payload
  };

  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const Header& header() const { return header_; }
  const std::string& origin() const { return origin_; }
  uint64_t file_size() const { return map_size_; }
  const std::vector<MappedSection>& sections() const { return sections_; }

  /// Directory lookup; NotFound (naming the file) when absent.
  Result<const MappedSection*> Find(std::string_view name) const;

  /// Copies a section's *logical* bytes into `out`: the header's raw bytes
  /// (frame CRC checked), any other section's stream decompressed (block
  /// CRCs verified). The result is byte-identical to what File::Parse
  /// presents for the same section.
  Status ReadSection(std::string_view name, std::string* out) const;

  /// Verifies every section's frame CRC, faulting in every page: the
  /// whole-file integrity File::Load checks, for an open that is about to
  /// decode everything anyway.
  Status VerifyChecksums() const;

 private:
  void Unmap();

  std::string origin_;
  const char* data_ = nullptr;
  uint64_t map_size_ = 0;
  Header header_;
  std::vector<MappedSection> sections_;
};

/// Random row access over a table section (snapshot/codec.h row-table
/// layout inside an MCS1 stream). Open materializes only the table index —
/// decoded from the stream's leading blocks — plus nothing else; Row then
/// decompresses just the block(s) covering one row. Thread-safe: row reads
/// serialize on an internal mutex (the block LRU mutates), which is cheap
/// next to a block decompression and irrelevant to the score fan-out path
/// (engines materialize on the caller thread only).
///
/// The MappedFile must outlive the table (rows view its pages).
class MappedTable {
 public:
  static Result<MappedTable> Open(const MappedFile& file,
                                  std::string_view section_name);

  size_t row_count() const { return index_.ids.size(); }
  /// All row ids, strictly increasing.
  const std::vector<uint64_t>& ids() const { return index_.ids; }
  uint64_t id_at(size_t ordinal) const { return index_.ids[ordinal]; }

  /// Copies the row for `id` into `*row`; `*found` is false (row cleared)
  /// when the table has no such id. kDataLoss on any corruption the read
  /// uncovers.
  Status Row(uint64_t id, bool* found, std::string* row) const;

  /// Row by ordinal position (for full scans / warm-up sweeps).
  Status RowAt(size_t ordinal, std::string* row) const;

 private:
  BlockStream stream_;
  TableIndex index_;
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
};

}  // namespace microrec::snapshot

#endif  // MICROREC_SNAPSHOT_MAPPED_H_
