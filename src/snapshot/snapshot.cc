#include "snapshot/snapshot.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "resilience/fault.h"
#include "snapshot/codec.h"
#include "util/fs.h"

namespace microrec::snapshot {

namespace {

constexpr char kHeaderSection[] = "header";
// Guards the header payload itself: it holds two short strings, a couple of
// scalars and a fingerprint, so anything near this bound is corruption.
constexpr uint64_t kMaxHeaderPayload = 1 << 20;

std::string At(const std::string& origin, uint64_t offset) {
  return origin + ":offset " + std::to_string(offset);
}

}  // namespace

std::string EncodeHeader(const Header& header) {
  Encoder enc;
  enc.PutString(header.model);
  enc.PutString(header.source);
  enc.PutU64(header.seed);
  enc.PutF64(header.iteration_scale);
  enc.PutString(header.config_fingerprint);
  enc.PutU64(header.vocab_fingerprint);
  return enc.Release();
}

Status DecodeHeader(Decoder* decoder, Header* header) {
  MICROREC_RETURN_IF_ERROR(decoder->ReadString(&header->model));
  MICROREC_RETURN_IF_ERROR(decoder->ReadString(&header->source));
  MICROREC_RETURN_IF_ERROR(decoder->ReadU64(&header->seed));
  MICROREC_RETURN_IF_ERROR(decoder->ReadF64(&header->iteration_scale));
  MICROREC_RETURN_IF_ERROR(decoder->ReadString(&header->config_fingerprint));
  MICROREC_RETURN_IF_ERROR(decoder->ReadU64(&header->vocab_fingerprint));
  return decoder->ExpectEnd();
}

void Writer::AddSection(std::string name, std::string payload) {
  Section section;
  section.name = std::move(name);
  section.payload = std::move(payload);
  sections_.push_back(std::move(section));
}

std::string Writer::Serialize() const {
  Encoder enc;
  enc.PutRaw(std::string_view(kMagicV2, kMagicSize));
  auto emit = [&enc](const std::string& name, const std::string& payload) {
    enc.PutU32(static_cast<uint32_t>(name.size()));
    enc.PutRaw(name);
    enc.PutU64(payload.size());
    uint32_t crc = Crc32(name);
    crc = Crc32(payload.data(), payload.size(), crc);
    enc.PutU32(crc);
    enc.PutRaw(payload);
  };
  // The header stays raw so identity checks never depend on the codec;
  // every other payload becomes an MCS1 stream, with the frame CRC computed
  // over the stored (compressed) bytes.
  emit(kHeaderSection, EncodeHeader(header_));
  for (const Section& section : sections_) {
    emit(section.name, CompressStream(section.payload));
  }
  return enc.Release();
}

Status Writer::Commit(const std::string& path) const {
  MICROREC_FAULT_POINT(resilience::kSiteSnapshotWrite);
  const std::string bytes = Serialize();
  MICROREC_RETURN_IF_ERROR(util::WriteFileAtomically(path, bytes));
  obs::MetricsRegistry::Global()
      .GetCounter("snapshot.writes")
      ->Increment();
  obs::MetricsRegistry::Global()
      .GetGauge("snapshot.last_write_bytes")
      ->Set(static_cast<double>(bytes.size()));
  return Status::OK();
}

Result<File> File::Load(const std::string& path) {
  MICROREC_FAULT_POINT(resilience::kSiteSnapshotLoad);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  // Whole-file read first: all structural validation then happens over an
  // in-memory buffer whose size is known, so corrupted length fields can be
  // bounds-checked before any dependent allocation.
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("snapshot read failed: " + path);
  }
  return Parse(buffer.str(), path);
}

Result<File> File::Parse(std::string bytes, const std::string& origin) {
  File file;
  file.origin_ = origin;
  file.bytes_ = std::move(bytes);
  const std::string& data = file.bytes_;

  if (data.size() < kMagicSize) {
    return Status::InvalidArgument(
        At(origin, 0) + ": truncated magic (" + std::to_string(data.size()) +
        " of " + std::to_string(kMagicSize) + " bytes)");
  }
  MICROREC_RETURN_IF_ERROR(
      CheckMagic(std::string_view(data.data(), kMagicSize), origin));

  Decoder cursor(std::string_view(data).substr(kMagicSize), kMagicSize);
  while (cursor.remaining() > 0) {
    const uint64_t section_start = cursor.offset();
    uint32_t name_len = 0;
    MICROREC_RETURN_IF_ERROR(cursor.ReadU32(&name_len));
    if (name_len == 0 || name_len > kMaxSectionName) {
      return Status::InvalidArgument(
          At(origin, section_start) + ": section name length " +
          std::to_string(name_len) + " outside [1, " +
          std::to_string(kMaxSectionName) + "]");
    }
    if (cursor.remaining() < name_len) {
      return Status::InvalidArgument(
          At(origin, cursor.offset()) + ": truncated section name (need " +
          std::to_string(name_len) + " bytes, have " +
          std::to_string(cursor.remaining()) + ")");
    }
    const size_t name_pos = static_cast<size_t>(cursor.offset());
    std::string_view name(data.data() + name_pos, name_len);
    MICROREC_RETURN_IF_ERROR(cursor.Skip(name_len, "section name"));
    uint64_t payload_len = 0;
    MICROREC_RETURN_IF_ERROR(cursor.ReadU64(&payload_len));
    uint32_t stored_crc = 0;
    MICROREC_RETURN_IF_ERROR(cursor.ReadU32(&stored_crc));
    if (cursor.remaining() < payload_len) {
      return Status::InvalidArgument(
          At(origin, cursor.offset()) + ": truncated payload of section \"" +
          std::string(name) + "\" (need " + std::to_string(payload_len) +
          " bytes, have " + std::to_string(cursor.remaining()) + ")");
    }
    const uint64_t payload_offset = cursor.offset();
    std::string_view payload(
        data.data() + static_cast<size_t>(payload_offset),
        static_cast<size_t>(payload_len));
    uint32_t crc = Crc32(name);
    crc = Crc32(payload.data(), payload.size(), crc);
    if (crc != stored_crc) {
      return Status::DataLoss(
          At(origin, payload_offset) + ": CRC mismatch in section \"" +
          std::string(name) + "\" (stored " + std::to_string(stored_crc) +
          ", computed " + std::to_string(crc) + ")");
    }
    Section section;
    section.name = std::string(name);
    section.payload = std::string(payload);
    section.payload_offset = payload_offset;
    for (const Section& existing : file.sections_) {
      if (existing.name == section.name) {
        return Status::InvalidArgument(
            At(origin, section_start) + ": duplicate section \"" +
            section.name + "\"");
      }
    }
    file.sections_.push_back(std::move(section));
    MICROREC_RETURN_IF_ERROR(
        cursor.Skip(static_cast<size_t>(payload_len), "section payload"));
  }

  if (file.sections_.empty() || file.sections_[0].name != kHeaderSection) {
    return Status::InvalidArgument(
        At(origin, kMagicSize) + ": first section must be \"header\", got " +
        (file.sections_.empty() ? std::string("<none>")
                                : '"' + file.sections_[0].name + '"'));
  }
  if (file.sections_[0].payload.size() > kMaxHeaderPayload) {
    return Status::InvalidArgument(
        At(origin, file.sections_[0].payload_offset) +
        ": header section implausibly large (" +
        std::to_string(file.sections_[0].payload.size()) + " bytes)");
  }
  Decoder header_cursor(file.sections_[0].payload,
                        file.sections_[0].payload_offset);
  Status decoded = DecodeHeader(&header_cursor, &file.header_);
  if (!decoded.ok()) {
    return Status::FromCode(
        decoded.code(), origin + ": bad snapshot header: " + decoded.message());
  }

  // Every non-header payload is an MCS1 stream; decompress them in place
  // (every block CRC is verified along the way) so section consumers see
  // the same decompressed bytes the mapped reader serves. Offsets in
  // downstream decode errors still name the compressed payload's position
  // in the file — the nearest physical location a corrupted logical byte
  // can be attributed to.
  for (size_t i = 1; i < file.sections_.size(); ++i) {
    Section& section = file.sections_[i];
    if (!LooksLikeStream(section.payload)) {
      return Status::DataLoss(
          At(origin, section.payload_offset) + ": section \"" +
          section.name + "\" is not an MCS1 stream");
    }
    std::string raw;
    Status status = DecompressStream(
        section.payload, &raw, section.payload_offset,
        origin + ":section \"" + section.name + "\"");
    if (!status.ok()) return status;
    section.payload = std::move(raw);
  }
  obs::MetricsRegistry::Global().GetCounter("snapshot.loads")->Increment();
  return file;
}

Result<const Section*> File::Find(std::string_view name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return &section;
  }
  return Status::NotFound(origin_ + ": snapshot has no section \"" +
                          std::string(name) + "\"");
}

Result<Decoder> File::OpenSection(std::string_view name) const {
  Result<const Section*> section = Find(name);
  if (!section.ok()) return section.status();
  return Decoder((*section)->payload, (*section)->payload_offset);
}

Status VerifyIdentity(const Header& header, const std::string& origin,
                      const std::string& model, const std::string& source,
                      uint64_t seed, double iteration_scale,
                      const std::string& config_fingerprint) {
  auto mismatch = [&origin](const char* field, const std::string& expected,
                            const std::string& got) {
    return Status::FailedPrecondition(
        origin + ": snapshot " + field + " mismatch: expected " + expected +
        ", file has " + got);
  };
  if (!model.empty() && header.model != model) {
    return mismatch("model", model, header.model);
  }
  if (!source.empty() && header.source != source) {
    return mismatch("source", source, header.source);
  }
  if (header.seed != seed) {
    return mismatch("seed", std::to_string(seed), std::to_string(header.seed));
  }
  if (header.iteration_scale != iteration_scale) {
    // Round-trip precision: two scales that differ print differently.
    auto precise = [](double value) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      return std::string(buf);
    };
    return mismatch("iteration_scale", precise(iteration_scale),
                    precise(header.iteration_scale));
  }
  if (!config_fingerprint.empty() &&
      header.config_fingerprint != config_fingerprint) {
    return mismatch("config fingerprint", config_fingerprint,
                    header.config_fingerprint);
  }
  return Status::OK();
}

Status CheckMagic(std::string_view magic, const std::string& origin) {
  if (magic == std::string_view(kMagicV2, kMagicSize)) return Status::OK();
  if (magic.substr(0, sizeof(kMagicPrefix) - 1) == kMagicPrefix) {
    // Same family, different version: report skew, not corruption, so the
    // operator knows to retrain rather than chase a bad disk.
    std::string version(magic.substr(sizeof(kMagicPrefix) - 1));
    while (!version.empty() &&
           (version.back() == '\n' || version.back() == '\0')) {
      version.pop_back();
    }
    return Status::FailedPrecondition(
        At(origin, sizeof(kMagicPrefix) - 1) +
        ": snapshot version skew: file is microrec.snap/" + version +
        ", reader understands microrec.snap/2");
  }
  return Status::InvalidArgument(At(origin, 0) +
                                 ": bad magic, not a microrec.snap file");
}

}  // namespace microrec::snapshot
