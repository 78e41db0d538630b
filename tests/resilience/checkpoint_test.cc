#include "resilience/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "temp_dir.h"

namespace microrec::resilience {
namespace {

CheckpointRecord MakeRecord(const std::string& fingerprint) {
  CheckpointRecord record;
  record.fingerprint = fingerprint;
  record.config = "TN n=2 TF-IDF Cen. CS";
  record.users = {3, 7, 11};
  record.aps = {0.5, 0.25, 1.0};
  record.ttime_seconds = 1.25;
  record.etime_seconds = 0.0625;
  return record;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::UniqueTempDir("microrec_ckpt_test");
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "sweep.jsonl").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string FileContents() const {
    std::ifstream in(path_);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(CheckpointTest, OpenMissingFileIsEmpty) {
  Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "source=R seed=1");
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->size(), 0u);
  EXPECT_FALSE(std::filesystem::exists(path_));  // created on first Append
}

TEST_F(CheckpointTest, AppendThenReopenRestoresRecords) {
  {
    Result<SweepCheckpoint> ckpt =
        SweepCheckpoint::Open(path_, "source=R seed=1");
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->Append(MakeRecord("aaaa")).ok());
    ASSERT_TRUE(ckpt->Append(MakeRecord("bbbb")).ok());
  }
  Result<SweepCheckpoint> reopened =
      SweepCheckpoint::Open(path_, "source=R seed=1");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->size(), 2u);
  ASSERT_TRUE(reopened->Contains("aaaa"));
  const CheckpointRecord* found = reopened->Find("aaaa");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->config, "TN n=2 TF-IDF Cen. CS");
  EXPECT_EQ(found->code, StatusCode::kOk);
  EXPECT_EQ(found->users, (std::vector<uint64_t>{3, 7, 11}));
  EXPECT_EQ(found->aps, (std::vector<double>{0.5, 0.25, 1.0}));
  EXPECT_DOUBLE_EQ(found->ttime_seconds, 1.25);
  EXPECT_DOUBLE_EQ(found->etime_seconds, 0.0625);
  EXPECT_EQ(reopened->Find("missing"), nullptr);
}

TEST_F(CheckpointTest, AppendReplacesSameFingerprint) {
  Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(ckpt->Append(MakeRecord("aaaa")).ok());
  CheckpointRecord updated = MakeRecord("aaaa");
  updated.ttime_seconds = 9.0;
  ASSERT_TRUE(ckpt->Append(updated).ok());
  EXPECT_EQ(ckpt->size(), 1u);
  EXPECT_DOUBLE_EQ(ckpt->Find("aaaa")->ttime_seconds, 9.0);
}

TEST_F(CheckpointTest, FailedOutcomeRoundTripsCodeAndError) {
  CheckpointRecord failed;
  failed.fingerprint = "ffff";
  failed.config = "LDA K=50 a=0.1 b=0.01 UP";
  failed.code = StatusCode::kDeadlineExceeded;
  failed.error = "deadline exceeded during \"LDA\"\tsweep 12";
  {
    Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->Append(failed).ok());
  }
  Result<SweepCheckpoint> reopened = SweepCheckpoint::Open(path_, "k");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const CheckpointRecord* found = reopened->Find("ffff");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(found->error, failed.error);  // escapes round-trip
  EXPECT_TRUE(found->users.empty());
}

TEST_F(CheckpointTest, MismatchedKeyRefusesToLoad) {
  {
    Result<SweepCheckpoint> ckpt =
        SweepCheckpoint::Open(path_, "source=R seed=1");
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->Append(MakeRecord("aaaa")).ok());
  }
  Result<SweepCheckpoint> wrong =
      SweepCheckpoint::Open(path_, "source=E seed=1");
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, AppendLeavesNoTempFileBehind) {
  Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(ckpt->Append(MakeRecord("aaaa")).ok());
  EXPECT_TRUE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(CheckpointTest, ParseToleratesTornTrailingLine) {
  std::string content;
  {
    Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->Append(MakeRecord("aaaa")).ok());
    ASSERT_TRUE(ckpt->Append(MakeRecord("bbbb")).ok());
    content = FileContents();
  }
  // Simulate a crash mid-write: chop the last line in half.
  std::string torn = content.substr(0, content.size() - 20);
  Result<std::vector<CheckpointRecord>> records =
      SweepCheckpoint::Parse(torn, "k");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].fingerprint, "aaaa");
}

TEST_F(CheckpointTest, ParseRejectsMidFileCorruption) {
  std::string content;
  {
    Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->Append(MakeRecord("aaaa")).ok());
    ASSERT_TRUE(ckpt->Append(MakeRecord("bbbb")).ok());
    content = FileContents();
  }
  size_t second_line = content.find('\n') + 1;
  std::string corrupted = content;
  corrupted.replace(second_line, 5, "#####");
  Result<std::vector<CheckpointRecord>> records =
      SweepCheckpoint::Parse(corrupted, "k");
  EXPECT_FALSE(records.ok());
  // Line numbers make torn checkpoints diagnosable.
  EXPECT_NE(records.status().message().find("line 2"), std::string::npos)
      << records.status().ToString();
}

TEST_F(CheckpointTest, ParseRejectsUnknownSchema) {
  Result<std::vector<CheckpointRecord>> records = SweepCheckpoint::Parse(
      "{\"schema\":\"other.format/9\",\"key\":\"k\"}\n", "k");
  EXPECT_FALSE(records.ok());
}

TEST_F(CheckpointTest, RecordJsonIsSingleLine) {
  CheckpointRecord record = MakeRecord("aaaa");
  record.error = "multi\nline";
  std::string json = CheckpointRecordToJson(record);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\":\"aaaa\""), std::string::npos);
}

}  // namespace
}  // namespace microrec::resilience
