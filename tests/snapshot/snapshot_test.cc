#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "resilience/fault.h"
#include "util/status.h"

namespace microrec::snapshot {
namespace {

Header TestHeader() {
  Header header;
  header.model = "LDA";
  header.source = std::string(1, 'R');
  header.seed = 11;
  header.iteration_scale = 0.1;
  header.config_fingerprint = "abc123";
  header.vocab_fingerprint = 0xFEEDFACEull;
  return header;
}

Writer TestWriter() {
  Writer writer(TestHeader());
  writer.AddSection("vocab", "payload-one");
  writer.AddSection("users", std::string("\0binary\xFFpayload", 15));
  return writer;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("microrec_snap_test_") + name))
      .string();
}

TEST(SnapshotTest, SerializeParseRoundTrip) {
  std::string bytes = TestWriter().Serialize();
  Result<File> file = File::Parse(bytes, "<memory>");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->header().model, "LDA");
  EXPECT_EQ(file->header().source, "R");
  EXPECT_EQ(file->header().seed, 11u);
  EXPECT_EQ(file->header().iteration_scale, 0.1);
  EXPECT_EQ(file->header().config_fingerprint, "abc123");
  EXPECT_EQ(file->header().vocab_fingerprint, 0xFEEDFACEull);
  // Header section + the two payload sections.
  ASSERT_EQ(file->sections().size(), 3u);
  Result<const Section*> vocab = file->Find("vocab");
  ASSERT_TRUE(vocab.ok());
  EXPECT_EQ((*vocab)->payload, "payload-one");
  Result<const Section*> users = file->Find("users");
  ASSERT_TRUE(users.ok());
  EXPECT_EQ((*users)->payload, std::string("\0binary\xFFpayload", 15));
  EXPECT_EQ(file->Find("absent").status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, CommitThenLoadThroughMissingDirectory) {
  std::string dir = TempPath("commitdir");
  std::filesystem::remove_all(dir);
  std::string path = dir + "/nested/model.snap";
  ASSERT_TRUE(TestWriter().Commit(path).ok());
  // Atomic write: no stray tmp file survives a successful commit.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  Result<File> file = File::Load(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->header().model, "LDA");
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, LoadMissingFileIsNotFound) {
  Result<File> file = File::Load(TempPath("does_not_exist.snap"));
  EXPECT_EQ(file.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, GarbageMagicIsInvalidArgument) {
  Result<File> file = File::Parse("not a snapshot at all", "<memory>");
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(file.status().message().find("<memory>"), std::string::npos);
}

TEST(SnapshotTest, VersionSkewIsFailedPrecondition) {
  std::string bytes = TestWriter().Serialize();
  // Same format family, future version: "microrec.snap/3\n". (Version 2 is
  // understood since the compressed-section codec landed; see the v2 tests.)
  bytes[14] = '3';
  Result<File> file = File::Parse(bytes, "<memory>");
  EXPECT_EQ(file.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(file.status().message().find("microrec.snap/3"),
            std::string::npos)
      << file.status().ToString();
}

TEST(SnapshotTest, PayloadBitFlipIsDataLoss) {
  std::string bytes = TestWriter().Serialize();
  // Flip one bit in the final byte (inside the last section's payload).
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  Result<File> file = File::Parse(bytes, "<memory>");
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss)
      << file.status().ToString();
  EXPECT_NE(file.status().message().find("offset"), std::string::npos);
}

TEST(SnapshotTest, TruncationMidSectionIsError) {
  std::string bytes = TestWriter().Serialize();
  for (size_t cut : {bytes.size() - 1, bytes.size() - 8, kMagicSize + 2,
                     kMagicSize, size_t{4}, size_t{0}}) {
    SCOPED_TRACE(cut);
    Result<File> file = File::Parse(bytes.substr(0, cut), "<memory>");
    EXPECT_FALSE(file.ok());
  }
}

TEST(SnapshotTest, OversizedSectionNameRejectedWithoutAllocation) {
  std::string bytes = TestWriter().Serialize();
  // Overwrite the first section's name length with 0xFFFFFFFF.
  for (size_t i = 0; i < 4; ++i) bytes[kMagicSize + i] = '\xFF';
  Result<File> file = File::Parse(bytes, "<memory>");
  EXPECT_FALSE(file.ok());
}

TEST(SnapshotTest, DuplicateSectionNameRejected) {
  Writer writer(TestHeader());
  writer.AddSection("vocab", "one");
  writer.AddSection("vocab", "two");
  Result<File> file = File::Parse(writer.Serialize(), "<memory>");
  EXPECT_FALSE(file.ok());
  EXPECT_NE(file.status().message().find("duplicate"), std::string::npos)
      << file.status().ToString();
}

TEST(SnapshotTest, VerifyIdentityChecksEveryField) {
  std::string bytes = TestWriter().Serialize();
  Result<File> file = File::Parse(bytes, "<memory>");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->VerifyIdentity("LDA", "R", 11, 0.1, "abc123").ok());
  EXPECT_EQ(file->VerifyIdentity("BTM", "R", 11, 0.1, "abc123").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(file->VerifyIdentity("LDA", "E", 11, 0.1, "abc123").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(file->VerifyIdentity("LDA", "R", 12, 0.1, "abc123").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(file->VerifyIdentity("LDA", "R", 11, 0.2, "abc123").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(file->VerifyIdentity("LDA", "R", 11, 0.1, "other").code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, OpenSectionCarriesAbsoluteOffsets) {
  Writer writer(TestHeader());
  Encoder enc;
  enc.PutU64(5);  // claims more content than the payload holds
  writer.AddSection("model", enc.bytes());
  Result<File> file = File::Parse(writer.Serialize(), "<memory>");
  ASSERT_TRUE(file.ok());
  Result<Decoder> dec = file->OpenSection("model");
  ASSERT_TRUE(dec.ok());
  std::vector<double> out;
  Status st = dec->ReadVecF64(&out);
  EXPECT_FALSE(st.ok());
  // The error offset is a file offset (> magic size), not payload-relative.
  EXPECT_NE(st.message().find("offset"), std::string::npos);
}

TEST(SnapshotTest, InjectedWriteFaultSurfaces) {
  resilience::ArmFault(resilience::kSiteSnapshotWrite,
                       resilience::FaultSpec{.every_nth = 1});
  std::string path = TempPath("faulted.snap");
  Status st = TestWriter().Commit(path);
  resilience::ClearFaults();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SnapshotTest, InjectedLoadFaultSurfaces) {
  std::string path = TempPath("loadfault.snap");
  ASSERT_TRUE(TestWriter().Commit(path).ok());
  resilience::ArmFault(resilience::kSiteSnapshotLoad,
                       resilience::FaultSpec{.every_nth = 1});
  Result<File> file = File::Load(path);
  resilience::ClearFaults();
  EXPECT_FALSE(file.ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace microrec::snapshot
