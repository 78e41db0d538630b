// MappedFile / MappedTable contract tests (snapshot/mapped.h): the mmap
// reader must present exactly the logical bytes the whole-file reference
// reader (File::Parse) presents, and every corruption a row read uncovers
// must be kDataLoss with file:offset context, never a crash or a silently
// wrong row.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/codec.h"
#include "snapshot/format.h"
#include "snapshot/mapped.h"
#include "snapshot/snapshot.h"
#include "temp_dir.h"

namespace microrec::snapshot {
namespace {

class MappedSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::UniqueTempDir("microrec_mapped");
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return dir_ + "/" + name + ".snap";
  }

  static Header TestHeader() {
    Header header;
    header.model = "TN";
    header.source = "R";
    header.seed = 7;
    header.iteration_scale = 0.05;
    header.config_fingerprint = "deadbeef01234567";
    header.vocab_fingerprint = 42;
    return header;
  }

  /// Rows keyed by user id, as the engines write them.
  static std::vector<std::pair<uint64_t, std::string>> TestRows() {
    std::vector<std::pair<uint64_t, std::string>> rows;
    for (uint64_t u = 0; u < 50; ++u) {
      std::string row;
      PutVarint(&row, u * 3);
      row.append(u % 7, static_cast<char>('a' + u % 26));
      rows.emplace_back(u * 2 + 1, std::move(row));
    }
    return rows;
  }

  /// Writes a snapshot with a vocab section (gram ids, as the topic
  /// engines write it) and a "users" row table.
  std::string WriteSnapshot(const std::string& name) {
    Writer writer(TestHeader());
    std::string vocab;
    PutDeltaIds(&vocab, {4, 0, 2});
    writer.AddSection("vocab", std::move(vocab));
    TableBuilder users;
    for (const auto& [id, row] : TestRows()) {
      EXPECT_TRUE(users.AddRow(id, row).ok());
    }
    writer.AddSection("users", std::move(users).Finish());
    const std::string path = Path(name);
    EXPECT_TRUE(writer.Commit(path).ok());
    return path;
  }

  std::string dir_;
};

TEST_F(MappedSnapshotTest, OpenParsesTheContainer) {
  const std::string path = WriteSnapshot("open");
  Result<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->header().model, "TN");
  EXPECT_EQ(mapped->header().seed, 7u);
  EXPECT_TRUE(mapped->Find("vocab").ok());
  EXPECT_TRUE(mapped->Find("users").ok());
  EXPECT_EQ(mapped->Find("nope").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(VerifyIdentity(mapped->header(), mapped->origin(), "TN", "R", 7,
                             0.05, "deadbeef01234567")
                  .ok());
  EXPECT_EQ(VerifyIdentity(mapped->header(), mapped->origin(), "LDA", "R", 7,
                           0.05, "deadbeef01234567")
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(MappedSnapshotTest, ReadSectionMatchesResidentParse) {
  const std::string path = WriteSnapshot("read_section");
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  Result<File> resident = File::Parse(bytes, path);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  Result<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  for (const Section& section : resident->sections()) {
    std::string logical;
    ASSERT_TRUE(mapped->ReadSection(section.name, &logical).ok())
        << section.name;
    EXPECT_EQ(logical, section.payload) << section.name;
  }
}

TEST_F(MappedSnapshotTest, TableRowsReadBackExactly) {
  const std::string path = WriteSnapshot("table");
  Result<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  Result<MappedTable> table = MappedTable::Open(*mapped, "users");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const auto rows = TestRows();
  ASSERT_EQ(table->row_count(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(table->id_at(i), rows[i].first);
    bool found = false;
    std::string row;
    ASSERT_TRUE(table->Row(rows[i].first, &found, &row).ok());
    EXPECT_TRUE(found);
    EXPECT_EQ(row, rows[i].second) << "row " << i;
    ASSERT_TRUE(table->RowAt(i, &row).ok());
    EXPECT_EQ(row, rows[i].second) << "ordinal " << i;
  }
  // Absent ids (even ids were never inserted) miss cleanly.
  bool found = true;
  std::string row = "sentinel";
  ASSERT_TRUE(table->Row(2, &found, &row).ok());
  EXPECT_FALSE(found);
  EXPECT_TRUE(row.empty());
}

TEST_F(MappedSnapshotTest, TableOpenOnNonStreamSectionIsDataLoss) {
  // A hand-framed container whose "users" payload is plain bytes under a
  // valid frame CRC: the directory walk accepts it, and MappedTable must
  // refuse it as kDataLoss naming the section, not misread it.
  Encoder enc;
  enc.PutRaw(std::string_view(kMagicV2, kMagicSize));
  auto frame = [&enc](const std::string& name, const std::string& payload) {
    enc.PutU32(static_cast<uint32_t>(name.size()));
    enc.PutRaw(name);
    enc.PutU64(payload.size());
    enc.PutU32(Crc32(payload, Crc32(name)));
    enc.PutRaw(payload);
  };
  frame("header", EncodeHeader(TestHeader()));
  frame("users", "plain bytes, no MCS1 stream");
  const std::string path = Path("plain_users");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(enc.bytes().data(),
            static_cast<std::streamsize>(enc.bytes().size()));
  out.close();

  Result<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  Result<MappedTable> table = MappedTable::Open(*mapped, "users");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(table.status().message().find("section \"users\""),
            std::string::npos)
      << table.status().ToString();
}

TEST_F(MappedSnapshotTest, CorruptRowBytesAreDataLossWithContext) {
  const std::string path = WriteSnapshot("corrupt");
  // Flip one byte near the end of the file: it lands in the users stream's
  // last data block, so the index parses but the covering block's CRC fails.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x10);
  const std::string bad = Path("corrupt_flipped");
  std::ofstream out(bad, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  Result<MappedFile> mapped = MappedFile::Open(bad);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // This small table fits one block, so the index read at Open already
  // crosses the corrupt bytes; a larger table would fail at the row read
  // instead. Either way: kDataLoss naming the file, never a wrong row.
  Result<MappedTable> table = MappedTable::Open(*mapped, "users");
  bool saw_data_loss = false;
  if (!table.ok()) {
    EXPECT_EQ(table.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(table.status().message().find(bad), std::string::npos)
        << table.status().ToString();
    saw_data_loss = true;
  } else {
    const auto rows = TestRows();
    for (size_t i = 0; i < rows.size(); ++i) {
      std::string row;
      Status st = table->RowAt(i, &row);
      if (!st.ok()) {
        EXPECT_EQ(st.code(), StatusCode::kDataLoss);
        EXPECT_NE(st.message().find(bad), std::string::npos)
            << st.ToString();
        saw_data_loss = true;
      }
    }
  }
  EXPECT_TRUE(saw_data_loss);
}

TEST_F(MappedSnapshotTest, TruncatedFileFailsToOpen) {
  const std::string path = WriteSnapshot("trunc");
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Cut inside the final section's payload: the directory walk must notice
  // the frame length overrunning the file.
  const std::string bad = Path("trunc_cut");
  std::ofstream out(bad, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() - bytes.size() / 4));
  out.close();
  Result<MappedFile> mapped = MappedFile::Open(bad);
  EXPECT_FALSE(mapped.ok());
}

TEST_F(MappedSnapshotTest, MissingFileIsAnError) {
  Result<MappedFile> mapped = MappedFile::Open(Path("never_written"));
  EXPECT_FALSE(mapped.ok());
}

}  // namespace
}  // namespace microrec::snapshot
