// Crash-safe persistence of trained model state: the `microrec.snap/2`
// container. Training a topic model is the dominant cost of the pipeline
// (TTime, Fig. 7) — a snapshot turns that minutes-to-hours investment into
// a file that a later process loads in milliseconds and serves from.
//
// Wire format (all integers little-endian; see DESIGN.md §8, §16):
//
//   magic     16 bytes  "microrec.snap/2\n"
//   section*  repeated to EOF:
//     u32  name_len      (capped at kMaxSectionName)
//     ...  name bytes
//     u64  payload_len
//     u32  crc32         over name bytes ++ payload bytes
//     ...  payload bytes (an MCS1 stream, snapshot/codec.h, for every
//                         section but the header)
//
// The first section must be "header" and binds the snapshot's identity:
// model, source, seed, iteration_scale, the configuration fingerprint and
// a vocabulary fingerprint. Loaders verify all of it — truncation,
// bit-flips (CRC), version skew (magic) and vocabulary mismatch each
// produce a non-OK Status naming the file and byte offset; they never
// crash, never allocate unbounded memory, and never silently mis-score.
//
// Writes are atomic: the full container is staged to `<path>.tmp` and
// renamed over `<path>` (util::WriteFileAtomically, which the sweep
// checkpoints share), so a crash mid-save leaves the previous snapshot
// intact.
#ifndef MICROREC_SNAPSHOT_SNAPSHOT_H_
#define MICROREC_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/format.h"
#include "util/status.h"

namespace microrec::snapshot {

/// The container magic; its trailing "/2\n" is the format version, the only
/// one any reader understands. A file of another version is skew: retrain.
inline constexpr char kMagicV2[] = "microrec.snap/2\n";
inline constexpr size_t kMagicSize = 16;
/// Stable prefix shared by every version of the format; a file carrying the
/// prefix but a different version suffix is *skew*, not garbage.
inline constexpr char kMagicPrefix[] = "microrec.snap/";

/// Unread: the Writer always compresses. perfbench/main.cc still assigns
/// EngineContext::snapshot_codec; the enum goes with that line.
enum class SnapshotCodec {
  kCompressed,
};

/// Section names cap (flipped length bits must not drive allocations).
inline constexpr uint32_t kMaxSectionName = 256;

/// Identity header persisted as the first section. Every field is verified
/// on load against what the consumer expects; a snapshot trained under a
/// different configuration, corpus vocabulary or seed must not be served.
struct Header {
  std::string model;               // "LDA", "TN", ... (ModelKindName)
  std::string source;              // representation source ("R", "TE", ...)
  uint64_t seed = 0;               // EngineContext::seed the model trained under
  double iteration_scale = 1.0;    // Gibbs budget multiplier at train time
  std::string config_fingerprint;  // rec::ModelConfig::Fingerprint()
  // FingerprintTerms over the vocabulary the sections index. Topic: the
  // "vocab" section's terms. Bag and graph: the corpus gram dictionary
  // (rec::GramTable) whose ids the rows hold, checked at every open before
  // a row decodes.
  uint64_t vocab_fingerprint = 0;
};

/// One named section, decoded and CRC-verified.
struct Section {
  std::string name;
  std::string payload;
  uint64_t payload_offset = 0;  // absolute file offset of the payload
};

/// Assembles and atomically writes one snapshot file.
class Writer {
 public:
  explicit Writer(Header header) : header_(std::move(header)) {}

  /// Adds a named section (order is preserved; names must be unique).
  void AddSection(std::string name, std::string payload);

  /// Serializes to `<path>.tmp` and renames over `path`, creating the
  /// parent directory if missing. Fault site: `snapshot.write`.
  Status Commit(const std::string& path) const;

  /// The serialized container (test hook; Commit writes exactly this):
  /// each payload but the header's wrapped in an MCS1 stream. The payloads
  /// themselves are the caller's: the engines' tables use the varint/delta
  /// row codec.
  std::string Serialize() const;

 private:
  Header header_;
  std::vector<Section> sections_;
};

/// A fully validated in-memory snapshot: the whole-file reference reader
/// that the tests hold MappedFile, the engines' reader, against.
class File {
 public:
  /// Reads and validates `path`: magic, header presence, per-section CRC,
  /// structural bounds. Fault site: `snapshot.load`.
  static Result<File> Load(const std::string& path);

  /// Parses a serialized container (test/fuzz hook). `origin` names the
  /// source in error messages (a path, or "<memory>").
  static Result<File> Parse(std::string bytes, const std::string& origin);

  const Header& header() const { return header_; }
  /// Every section, the header's included; the others *decompressed*, so
  /// consumers never see MCS1 framing.
  const std::vector<Section>& sections() const { return sections_; }

  /// Section lookup; NotFound (with the file name) when absent.
  Result<const Section*> Find(std::string_view name) const;

  /// Decoder positioned at a section's payload, carrying the absolute file
  /// offset so downstream decode errors point into the file.
  Result<Decoder> OpenSection(std::string_view name) const;

  const std::string& origin() const { return origin_; }

 private:
  std::string origin_;
  std::string bytes_;  // owns section payload storage
  Header header_;
  std::vector<Section> sections_;
};

/// Verifies a file's header identity fields against expectations; any
/// mismatch is a FailedPrecondition naming `origin`, the field, the expected
/// and the persisted value. Empty expected strings skip that field.
Status VerifyIdentity(const Header& header, const std::string& origin,
                      const std::string& model, const std::string& source,
                      uint64_t seed, double iteration_scale,
                      const std::string& config_fingerprint);

/// Checks a file's first kMagicSize bytes, for both readers: OK for
/// kMagicV2; FailedPrecondition (version skew, naming `origin`) for any
/// other microrec.snap version; InvalidArgument for anything else.
Status CheckMagic(std::string_view magic, const std::string& origin);

/// Encodes / decodes the header-section payload (exposed for tests).
std::string EncodeHeader(const Header& header);
Status DecodeHeader(Decoder* decoder, Header* header);

}  // namespace microrec::snapshot

#endif  // MICROREC_SNAPSHOT_SNAPSHOT_H_
