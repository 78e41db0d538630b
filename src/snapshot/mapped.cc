#include "snapshot/mapped.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "snapshot/format.h"

namespace microrec::snapshot {

namespace {

constexpr char kHeaderSection[] = "header";
constexpr uint64_t kMaxHeaderPayload = 1 << 20;

std::string At(const std::string& origin, uint64_t offset) {
  return origin + ":offset " + std::to_string(offset);
}

Status CheckCrc(const std::string& origin,
                const MappedFile::MappedSection& section) {
  uint32_t crc = Crc32(section.name);
  crc = Crc32(section.payload.data(), section.payload.size(), crc);
  if (crc == section.crc) return Status::OK();
  return Status::DataLoss(
      At(origin, section.payload_offset) + ": CRC mismatch in section \"" +
      section.name + "\" (stored " + std::to_string(section.crc) +
      ", computed " + std::to_string(crc) + ")");
}

}  // namespace

MappedFile::~MappedFile() { Unmap(); }

void MappedFile::Unmap() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), static_cast<size_t>(map_size_));
    data_ = nullptr;
    map_size_ = 0;
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : origin_(std::move(other.origin_)),
      data_(other.data_),
      map_size_(other.map_size_),
      header_(std::move(other.header_)),
      sections_(std::move(other.sections_)) {
  other.data_ = nullptr;
  other.map_size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    origin_ = std::move(other.origin_);
    data_ = other.data_;
    map_size_ = other.map_size_;
    header_ = std::move(other.header_);
    sections_ = std::move(other.sections_);
    other.data_ = nullptr;
    other.map_size_ = 0;
  }
  return *this;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  MappedFile file;
  file.origin_ = path;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("cannot stat snapshot: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kMagicSize) {
    ::close(fd);
    return Status::InvalidArgument(
        At(path, 0) + ": truncated magic (" + std::to_string(size) + " of " +
        std::to_string(kMagicSize) + " bytes)");
  }
  void* map = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::Internal("mmap failed for snapshot: " + path);
  }
  file.data_ = static_cast<const char*>(map);
  file.map_size_ = size;
  const std::string_view data(file.data_, static_cast<size_t>(size));

  MICROREC_RETURN_IF_ERROR(CheckMagic(data.substr(0, kMagicSize), path));

  // Walk the section frames. Identical structure to File::Parse, but the
  // payload CRCs are deliberately NOT verified here — that would fault in
  // every page of the model. Payload integrity comes from per-block CRCs at
  // read time.
  Decoder cursor(data.substr(kMagicSize), kMagicSize);
  while (cursor.remaining() > 0) {
    const uint64_t section_start = cursor.offset();
    uint32_t name_len = 0;
    MICROREC_RETURN_IF_ERROR(cursor.ReadU32(&name_len));
    if (name_len == 0 || name_len > kMaxSectionName) {
      return Status::InvalidArgument(
          At(path, section_start) + ": section name length " +
          std::to_string(name_len) + " outside [1, " +
          std::to_string(kMaxSectionName) + "]");
    }
    if (cursor.remaining() < name_len) {
      return Status::InvalidArgument(
          At(path, cursor.offset()) + ": truncated section name (need " +
          std::to_string(name_len) + " bytes, have " +
          std::to_string(cursor.remaining()) + ")");
    }
    MappedSection section;
    section.name.assign(data.data() + static_cast<size_t>(cursor.offset()),
                        name_len);
    MICROREC_RETURN_IF_ERROR(cursor.Skip(name_len, "section name"));
    uint64_t payload_len = 0;
    MICROREC_RETURN_IF_ERROR(cursor.ReadU64(&payload_len));
    MICROREC_RETURN_IF_ERROR(cursor.ReadU32(&section.crc));
    if (cursor.remaining() < payload_len) {
      return Status::InvalidArgument(
          At(path, cursor.offset()) + ": truncated payload of section \"" +
          section.name + "\" (need " + std::to_string(payload_len) +
          " bytes, have " + std::to_string(cursor.remaining()) + ")");
    }
    section.payload_offset = cursor.offset();
    section.payload =
        data.substr(static_cast<size_t>(section.payload_offset),
                    static_cast<size_t>(payload_len));
    for (const MappedSection& existing : file.sections_) {
      if (existing.name == section.name) {
        return Status::InvalidArgument(At(path, section_start) +
                                       ": duplicate section \"" +
                                       section.name + "\"");
      }
    }
    file.sections_.push_back(std::move(section));
    MICROREC_RETURN_IF_ERROR(
        cursor.Skip(static_cast<size_t>(payload_len), "section payload"));
  }

  if (file.sections_.empty() || file.sections_[0].name != kHeaderSection) {
    return Status::InvalidArgument(
        At(path, kMagicSize) + ": first section must be \"header\", got " +
        (file.sections_.empty() ? std::string("<none>")
                                : '"' + file.sections_[0].name + '"'));
  }
  const MappedSection& header = file.sections_[0];
  if (header.payload.size() > kMaxHeaderPayload) {
    return Status::InvalidArgument(
        At(path, header.payload_offset) +
        ": header section implausibly large (" +
        std::to_string(header.payload.size()) + " bytes)");
  }
  // The header is small and load-bearing (identity checks): verify its
  // frame CRC eagerly, exactly like the resident reader would.
  MICROREC_RETURN_IF_ERROR(CheckCrc(path, header));
  Decoder header_cursor(header.payload, header.payload_offset);
  Status decoded = DecodeHeader(&header_cursor, &file.header_);
  if (!decoded.ok()) {
    return Status::FromCode(
        decoded.code(), path + ": bad snapshot header: " + decoded.message());
  }
  return file;
}

Result<const MappedFile::MappedSection*> MappedFile::Find(
    std::string_view name) const {
  for (const MappedSection& section : sections_) {
    if (section.name == name) return &section;
  }
  return Status::NotFound(origin_ + ": snapshot has no section \"" +
                          std::string(name) + "\"");
}

Status MappedFile::ReadSection(std::string_view name, std::string* out) const {
  Result<const MappedSection*> found = Find(name);
  if (!found.ok()) return found.status();
  const MappedSection& section = **found;
  if (section.name == kHeaderSection) {
    MICROREC_RETURN_IF_ERROR(CheckCrc(origin_, section));
    out->assign(section.payload.data(), section.payload.size());
    return Status::OK();
  }
  if (!LooksLikeStream(section.payload)) {
    return Status::DataLoss(At(origin_, section.payload_offset) +
                            ": section \"" + section.name +
                            "\" is not an MCS1 stream");
  }
  return DecompressStream(section.payload, out, section.payload_offset,
                          origin_ + ":section \"" + section.name + "\"");
}

Status MappedFile::VerifyChecksums() const {
  for (const MappedSection& section : sections_) {
    MICROREC_RETURN_IF_ERROR(CheckCrc(origin_, section));
  }
  return Status::OK();
}

Result<MappedTable> MappedTable::Open(const MappedFile& file,
                                      std::string_view section_name) {
  Result<const MappedFile::MappedSection*> found = file.Find(section_name);
  if (!found.ok()) return found.status();
  const MappedFile::MappedSection& section = **found;
  const std::string origin =
      file.origin() + ":section \"" + std::string(section_name) + "\"";
  if (!LooksLikeStream(section.payload)) {
    return Status::DataLoss(At(file.origin(), section.payload_offset) +
                            ": section \"" + std::string(section_name) +
                            "\" is not an MCS1 stream");
  }
  Result<BlockStream> stream =
      BlockStream::Open(section.payload, section.payload_offset, origin);
  if (!stream.ok()) return stream.status();

  MappedTable table;
  table.stream_ = std::move(*stream);

  // Two bounded varints tell us how big the index is; then one ReadRange
  // materializes exactly the index bytes — the only part of the table that
  // lives resident.
  std::string prefix;
  const size_t prefix_len = static_cast<size_t>(std::min<uint64_t>(
      table.stream_.raw_size(), 2 * kMaxVarintBytes));
  MICROREC_RETURN_IF_ERROR(table.stream_.ReadRange(0, prefix_len, &prefix));
  uint64_t index_bytes = 0;
  MICROREC_RETURN_IF_ERROR(TableIndexBytes(prefix, table.stream_.raw_size(),
                                           &index_bytes,
                                           section.payload_offset, origin));
  std::string index_prefix;
  MICROREC_RETURN_IF_ERROR(table.stream_.ReadRange(
      0, static_cast<size_t>(index_bytes), &index_prefix));
  MICROREC_RETURN_IF_ERROR(
      ParseTableIndex(index_prefix, table.stream_.raw_size(), &table.index_,
                      section.payload_offset, origin));
  return table;
}

Status MappedTable::Row(uint64_t id, bool* found, std::string* row) const {
  row->clear();
  const size_t ordinal = index_.Find(id);
  if (ordinal == TableIndex::kNotFound) {
    *found = false;
    return Status::OK();
  }
  *found = true;
  return RowAt(ordinal, row);
}

Status MappedTable::RowAt(size_t ordinal, std::string* row) const {
  std::lock_guard<std::mutex> lock(*mu_);
  return stream_.ReadRange(index_.row_offset(ordinal),
                           static_cast<size_t>(index_.row_length(ordinal)),
                           row);
}

}  // namespace microrec::snapshot
