// Deterministic structure-aware fuzzing of the two binary/line parsers that
// consume untrusted bytes: the microrec.snap/2 loader and the TSV corpus
// reader. Each case derives a mutant (truncate / bit-flip / splice) from a
// pristine input via snapshot::Mutate(seed, index) — fully reproducible, no
// corpus files to manage. The contract under test is "error, never crash or
// OOM": run under ASan/UBSan these cases double as memory-safety proofs.
//
// Knobs:
//   MICROREC_FUZZ_N          cases per format (default 500; CI smoke uses
//                            5000)
//   MICROREC_FUZZ_SEED       mutation seed (default 1)
//   MICROREC_FUZZ_ARTIFACTS  directory to dump the failing mutant into
//                            before the assertion fires
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "snapshot/codec.h"
#include "snapshot/format.h"
#include "snapshot/fuzz.h"
#include "snapshot/mapped.h"
#include "snapshot/snapshot.h"
#include "corpus/corpus.h"
#include "corpus/io.h"
#include "temp_dir.h"

namespace microrec::snapshot {
namespace {

size_t FuzzN() {
  const char* env = std::getenv("MICROREC_FUZZ_N");
  if (env == nullptr) return 500;
  long long n = std::atoll(env);
  return n > 0 ? static_cast<size_t>(n) : 500;
}

uint64_t FuzzSeed() {
  const char* env = std::getenv("MICROREC_FUZZ_SEED");
  return env == nullptr ? 1 : std::strtoull(env, nullptr, 10);
}

/// Saves a failing mutant for offline reproduction when
/// MICROREC_FUZZ_ARTIFACTS is set; returns the path (or "").
std::string DumpArtifact(const std::string& format, uint64_t seed,
                         uint64_t index, const std::string& mutant) {
  const char* dir = std::getenv("MICROREC_FUZZ_ARTIFACTS");
  if (dir == nullptr || dir[0] == '\0') return {};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = std::string(dir) + "/" + format + "-seed" +
                     std::to_string(seed) + "-case" + std::to_string(index) +
                     ".bin";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
  return path;
}

/// A pristine snapshot: identity header plus section payloads (delta-coded
/// gram ids, doubles, raw ids), each an MCS1 stream on the wire.
std::string PristineSnapshot() {
  Header header;
  header.model = "TN";
  header.source = "R";
  header.seed = 7;
  header.iteration_scale = 0.05;
  header.config_fingerprint = "deadbeef01234567";
  header.vocab_fingerprint =
      FingerprintTerms({"cat", "naps", "warm", "windowsill", "yarn"});
  Writer writer(header);

  std::string vocab;  // gram ids, as the topic engines write it
  PutDeltaIds(&vocab, {3, 0, 4, 1, 2});
  writer.AddSection("vocab", std::move(vocab));

  Encoder model;
  model.PutU64(5);  // vocab size
  model.PutU64(3);  // topics
  model.PutVecF64({0.2, 0.1, 0.7, 0.05, 0.95, 0.3, 0.3, 0.4, 0.25, 0.25,
                   0.5, 0.1, 0.2, 0.3, 0.4});
  writer.AddSection("model", model.Release());

  Encoder users;
  users.PutU64(2);
  users.PutU64(0);
  users.PutVecF64({0.6, 0.3, 0.1});
  users.PutU64(1);
  users.PutVecF64({0.1, 0.1, 0.8});
  writer.AddSection("users", users.Release());
  return writer.Serialize();
}

TEST(SnapshotFuzzTest, MutatedContainersErrorNeverCrash) {
  const std::string pristine = PristineSnapshot();
  const uint64_t seed = FuzzSeed();
  const size_t n = FuzzN();
  size_t rejected = 0;
  for (uint64_t index = 0; index < n; ++index) {
    Mutation mutation;
    std::string mutant = Mutate(pristine, seed, index, &mutation);
    Result<File> file = File::Parse(mutant, "<fuzz>");
    if (!file.ok()) {
      ++rejected;
      continue;
    }
    // The only mutants a correct parser may accept are exact prefixes of
    // the pristine container cut at a section boundary (truncation cannot
    // be distinguished from a writer that wrote fewer sections); anything
    // else accepted is a missed corruption.
    const bool is_prefix =
        mutant.size() <= pristine.size() &&
        pristine.compare(0, mutant.size(), mutant) == 0;
    if (!is_prefix) {
      std::string artifact = DumpArtifact("snap", seed, index, mutant);
      FAIL() << "case " << index << " (" << mutation.ToString()
             << ") parsed OK on non-prefix corruption"
             << (artifact.empty() ? "" : "; mutant saved to " + artifact);
    }
  }
  // The mutator guarantees truncate and bit-flip always change the bytes;
  // only splice can no-op. A silent pass-through of everything would mean
  // the harness is mutating nothing.
  EXPECT_GE(rejected, n / 2) << "suspiciously few rejections";
}

TEST(SnapshotFuzzTest, SectionDecodersSurviveMutants) {
  // Drive the typed decoders (not just the container frame) over mutants
  // whose section CRCs happen to be re-derivable: decode whatever sections
  // survive and assert no crash; statuses are free to be anything.
  const std::string pristine = PristineSnapshot();
  const uint64_t seed = FuzzSeed() + 1;
  const size_t n = FuzzN() / 5;
  for (uint64_t index = 0; index < n; ++index) {
    std::string mutant = Mutate(pristine, seed, index, nullptr);
    Result<File> file = File::Parse(mutant, "<fuzz>");
    if (!file.ok()) continue;
    if (Result<const Section*> vocab = file->Find("vocab"); vocab.ok()) {
      const std::string& bytes = (*vocab)->payload;
      size_t pos = 0;
      std::vector<uint64_t> grams;
      (void)GetDeltaIds(bytes, &pos, &grams, bytes.size(),
                        (*vocab)->payload_offset, "<fuzz>", "vocab grams");
    }
    if (Result<Decoder> dec = file->OpenSection("model"); dec.ok()) {
      uint64_t a = 0, b = 0;
      std::vector<double> phi;
      if (dec->ReadU64(&a).ok() && dec->ReadU64(&b).ok()) {
        (void)dec->ReadVecF64(&phi);
      }
    }
  }
}

// ---- Row-table containers and the mmap read path. ----

/// Same identity and section shapes as PristineSnapshot(), except that the
/// users section uses the row-table encoding the mmap serving mode
/// random-accesses.
std::string PristineSnapshotV2() {
  Header header;
  header.model = "TN";
  header.source = "R";
  header.seed = 7;
  header.iteration_scale = 0.05;
  header.config_fingerprint = "deadbeef01234567";
  header.vocab_fingerprint =
      FingerprintTerms({"cat", "naps", "warm", "windowsill", "yarn"});
  Writer writer(header);

  std::string vocab;  // gram ids, as the topic engines write it
  PutDeltaIds(&vocab, {3, 0, 4, 1, 2});
  writer.AddSection("vocab", std::move(vocab));

  Encoder model;
  model.PutU64(5);
  model.PutU64(3);
  model.PutVecF64({0.2, 0.1, 0.7, 0.05, 0.95, 0.3, 0.3, 0.4, 0.25, 0.25,
                   0.5, 0.1, 0.2, 0.3, 0.4});
  writer.AddSection("model", model.Release());

  TableBuilder users;
  for (uint64_t u = 0; u < 8; ++u) {
    std::string row;
    PutDeltaIds(&row, {u, u + 3, u + 100});
    PutVarint(&row, u * 17);
    EXPECT_TRUE(users.AddRow(u * 2, row).ok());
  }
  writer.AddSection("users", std::move(users).Finish());
  return writer.Serialize();
}

TEST(SnapshotFuzzTest, MutatedV2ContainersErrorNeverCrash) {
  const std::string pristine = PristineSnapshotV2();
  const uint64_t seed = FuzzSeed();
  const size_t n = FuzzN();
  size_t rejected = 0;
  for (uint64_t index = 0; index < n; ++index) {
    Mutation mutation;
    std::string mutant = Mutate(pristine, seed, index, &mutation);
    Result<File> file = File::Parse(mutant, "<fuzz>");
    if (!file.ok()) {
      ++rejected;
      continue;
    }
    // Same acceptance rule as above: only exact prefixes cut at a section
    // boundary may parse (each surviving section decompresses on its own).
    const bool is_prefix =
        mutant.size() <= pristine.size() &&
        pristine.compare(0, mutant.size(), mutant) == 0;
    if (!is_prefix) {
      std::string artifact = DumpArtifact("snap2", seed, index, mutant);
      FAIL() << "case " << index << " (" << mutation.ToString()
             << ") parsed OK on non-prefix corruption"
             << (artifact.empty() ? "" : "; mutant saved to " + artifact);
    }
  }
  EXPECT_GE(rejected, n / 2) << "suspiciously few rejections";
}

TEST(SnapshotFuzzTest, MutatedV2MappedReadsErrorNeverCrash) {
  // The mmap reader defers payload integrity to read time, so the fuzz
  // contract moves with it: MappedFile::Open + ReadSection + a full
  // MappedTable row sweep over every mutant must error or return pristine
  // bytes — never crash, hang, or hand back different data (the per-block
  // CRCs are what make "accepted implies identical" hold).
  const std::string pristine = PristineSnapshotV2();
  Result<File> reference = File::Parse(pristine, "<fuzz>");
  ASSERT_TRUE(reference.ok());

  const std::string dir = testutil::UniqueTempDir("microrec_fuzz_mapped");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/mutant.snap";

  const uint64_t seed = FuzzSeed() + 2;
  const size_t n = FuzzN() / 5;
  for (uint64_t index = 0; index < n; ++index) {
    Mutation mutation;
    std::string mutant = Mutate(pristine, seed, index, &mutation);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    Result<MappedFile> mapped = MappedFile::Open(path);
    if (!mapped.ok()) continue;
    for (const MappedFile::MappedSection& section : mapped->sections()) {
      std::string logical;
      if (!mapped->ReadSection(section.name, &logical).ok()) continue;
      // An accepted read must match the pristine section of the same name
      // byte for byte (a flipped *name* is fine — lookups just miss).
      Result<const Section*> ref = reference->Find(section.name);
      if (ref.ok() && section.name != "header") {
        std::string artifact = DumpArtifact("snap2map", seed, index, mutant);
        EXPECT_EQ(logical, (*ref)->payload)
            << "case " << index << " (" << mutation.ToString()
            << ") section \"" << section.name << "\""
            << (artifact.empty() ? "" : "; mutant saved to " + artifact);
      }
    }
    Result<MappedTable> table = MappedTable::Open(*mapped, "users");
    if (!table.ok()) continue;
    for (size_t ordinal = 0; ordinal < table->row_count(); ++ordinal) {
      std::string row;
      (void)table->RowAt(ordinal, &row);  // must not crash; status is free
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Recomputes every outer frame CRC of a serialized container, so payload
/// mutations exercise the *inner* v2 validation (stream framing, varints,
/// per-block CRCs) instead of being absorbed by the frame checksum.
std::string ReauthorFrameCrcs(std::string bytes) {
  size_t pos = kMagicSize;
  while (pos + 4 <= bytes.size()) {
    uint32_t name_len = 0;
    for (int i = 3; i >= 0; --i) {
      name_len = (name_len << 8) | static_cast<uint8_t>(bytes[pos + i]);
    }
    size_t cursor = pos + 4;
    if (cursor + name_len + 8 + 4 > bytes.size()) break;
    const size_t name_pos = cursor;
    cursor += name_len;
    uint64_t payload_len = 0;
    for (int i = 7; i >= 0; --i) {
      payload_len = (payload_len << 8) | static_cast<uint8_t>(bytes[cursor + i]);
    }
    cursor += 8;
    const size_t crc_pos = cursor;
    cursor += 4;
    if (cursor + payload_len > bytes.size()) break;
    uint32_t crc =
        Crc32(std::string_view(bytes.data() + name_pos, name_len));
    crc = Crc32(std::string_view(bytes.data() + cursor,
                                 static_cast<size_t>(payload_len)),
                crc);
    for (int i = 0; i < 4; ++i) {
      bytes[crc_pos + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    pos = cursor + static_cast<size_t>(payload_len);
  }
  return bytes;
}

TEST(SnapshotFuzzTest, V2StreamMutantsUnderFrameCrcAreStillCaught) {
  // The issue's targeted corruptions: truncation inside a compressed block,
  // varint continuation-bit flips, and length-field splices. Frame CRCs are
  // re-derived after each mutation, so only the MCS1 layer stands between
  // the corruption and the loader — every byte of a v2 payload is
  // semantically significant, so every flip must surface as kDataLoss with
  // file:offset context.
  const std::string pristine = PristineSnapshotV2();

  // Locate the users section payload (the last section: its stored stream
  // runs to EOF minus nothing — find the final "MCS1" magic).
  const size_t users_stream = pristine.rfind("MCS1");
  ASSERT_NE(users_stream, std::string::npos);
  const size_t stream_len = pristine.size() - users_stream;
  ASSERT_GT(stream_len, 16u);

  // (a) Truncation inside the final compressed block. A bare cut is caught
  // by the outer framing (payload shorter than its length field — a
  // structural InvalidArgument); to reach the block layer the frame is made
  // self-consistent: payload_len is reduced to match and the frame CRC
  // re-derived, so only the MCS1 directory can notice the missing block
  // bytes — and it must, as kDataLoss.
  for (size_t cut : {size_t{1}, size_t{3}, stream_len / 2}) {
    Result<File> bare =
        File::Parse(pristine.substr(0, pristine.size() - cut), "<fuzz>");
    ASSERT_FALSE(bare.ok()) << "cut=" << cut;
    EXPECT_NE(bare.status().message().find(":offset "), std::string::npos)
        << bare.status().ToString();

    std::string mutant = pristine.substr(0, pristine.size() - cut);
    // The users frame's payload_len (u64 LE) sits 12 bytes before the
    // payload: ... name, payload_len(8), crc(4), payload.
    const size_t len_pos = users_stream - 12;
    uint64_t payload_len = stream_len - cut;
    for (int b = 0; b < 8; ++b) {
      mutant[len_pos + b] =
          static_cast<char>((payload_len >> (8 * b)) & 0xff);
    }
    Result<File> file =
        File::Parse(ReauthorFrameCrcs(std::move(mutant)), "<fuzz>");
    ASSERT_FALSE(file.ok()) << "cut=" << cut;
    EXPECT_EQ(file.status().code(), StatusCode::kDataLoss)
        << "cut=" << cut << ": " << file.status().ToString();
    EXPECT_NE(file.status().message().find(":offset "), std::string::npos)
        << file.status().ToString();
  }

  // (b) Continuation-bit flips over every stream byte: magic, flags, the
  // raw_size/block_size/num_blocks varints, the per-block directory
  // (method, enc_len varint, crc32) and the block data.
  for (size_t i = users_stream; i < pristine.size(); ++i) {
    std::string mutant = pristine;
    mutant[i] = static_cast<char>(mutant[i] ^ 0x80);
    mutant = ReauthorFrameCrcs(std::move(mutant));
    Result<File> file = File::Parse(mutant, "<fuzz>");
    ASSERT_FALSE(file.ok()) << "byte " << (i - users_stream);
    EXPECT_EQ(file.status().code(), StatusCode::kDataLoss)
        << "byte " << i << ": " << file.status().ToString();
    EXPECT_NE(file.status().message().find(":offset "), std::string::npos)
        << file.status().ToString();
  }

  // (c) Length-field splices: overwrite the varint header region (right
  // after magic + flags, where raw_size/block_size/num_blocks live) with
  // bytes lifted from elsewhere in the stream.
  for (size_t src_off : {stream_len - 5, stream_len / 3}) {
    std::string mutant = pristine;
    mutant.replace(users_stream + kStreamMagicSize + 1, 3,
                   pristine.substr(users_stream + src_off, 3));
    mutant = ReauthorFrameCrcs(std::move(mutant));
    Result<File> file = File::Parse(mutant, "<fuzz>");
    if (file.ok()) {
      // A splice can no-op (identical source bytes); then the parse must
      // present pristine logical data.
      Result<File> ref = File::Parse(pristine, "<fuzz>");
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ((*file->Find("users"))->payload,
                (*ref->Find("users"))->payload);
    } else {
      EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
    }
  }
}

/// Small but structurally complete TSV corpus (edges, originals, retweets,
/// escaped text) as SaveCorpus would emit it.
void PristineCorpusTsv(std::string* users, std::string* tweets) {
  corpus::Corpus world;
  corpus::UserId a = world.AddUser("alice");
  corpus::UserId b = world.AddUser("bob");
  ASSERT_TRUE(world.graph().AddFollow(a, b).ok());
  corpus::TweetId t0 =
      *world.AddTweet(b, 10, "tab\there and line\nbreak and \\slash");
  (void)*world.AddTweet(b, 20, "plain second post");
  (void)*world.AddTweet(a, 30, "", t0);
  world.Finalize();
  std::ostringstream users_os, tweets_os;
  ASSERT_TRUE(corpus::WriteUsers(world, users_os).ok());
  ASSERT_TRUE(corpus::WriteTweets(world, tweets_os).ok());
  *users = users_os.str();
  *tweets = tweets_os.str();
}

TEST(SnapshotFuzzTest, MutatedCorpusTsvNeverCrashes) {
  std::string users, tweets;
  PristineCorpusTsv(&users, &tweets);
  const uint64_t seed = FuzzSeed();
  const size_t n = FuzzN();
  for (uint64_t index = 0; index < n; ++index) {
    // Alternate which of the two files carries the corruption.
    std::string mutant = Mutate(index % 2 == 0 ? tweets : users, seed, index,
                                nullptr);
    std::istringstream users_is(index % 2 == 0 ? users : mutant);
    std::istringstream tweets_is(index % 2 == 0 ? mutant : tweets);
    // Text lines tolerate many mutations (the text column is free-form), so
    // success is legitimate — the contract is purely "no crash, no OOM".
    Result<corpus::Corpus> loaded = corpus::ReadCorpus(users_is, tweets_is);
    if (loaded.ok()) {
      EXPECT_LE(loaded->num_tweets(), 3u);
      EXPECT_LE(loaded->num_users(), 2u);
    }
  }
}

}  // namespace
}  // namespace microrec::snapshot
