// The microrec.wal/1 container: append/replay round trips, atomic segment
// rotation, torn-tail truncation for the open segment versus hard DataLoss
// for sealed damage, pruning, leftover-open sealing on reopen, and the
// wal.append / wal.replay fault sites.
#include "stream/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "resilience/fault.h"
#include "snapshot/format.h"
#include "stream/record.h"
#include "temp_dir.h"

namespace microrec::stream {
namespace {

namespace fs = std::filesystem;

class WalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::UniqueTempDir("microrec_wal");
    fs::create_directories(dir_);
  }

  void TearDown() override {
    resilience::ClearFaults();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Replays the log into (payload, offset, seq, sealed) tuples.
  struct Replayed {
    std::string payload;
    uint64_t offset = 0;
    uint64_t seq = 0;
    bool sealed = true;
  };
  Result<WalReplayStats> Replay(std::vector<Replayed>* out) {
    return ReplayWal(dir_, [out](std::string_view payload,
                                 const WalRecordRef& ref) -> Status {
      out->push_back(
          {std::string(payload), ref.offset, ref.segment_seq, ref.sealed});
      return Status::OK();
    });
  }

  std::string PathOf(uint64_t seq, bool sealed) {
    return dir_ + "/" + WalSegmentFileName(seq, sealed);
  }

  void AppendRawBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    ASSERT_TRUE(out.good()) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
  }

  void FlipByte(const std::string& path, uint64_t offset) {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(io.good()) << path;
    io.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    io.get(byte);
    io.seekp(static_cast<std::streamoff>(offset));
    io.put(static_cast<char>(byte ^ 0x40));
    ASSERT_TRUE(io.good()) << path;
  }

  /// A syntactically valid record frame for `payload`.
  static std::string Frame(std::string_view payload) {
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint32_t crc = snapshot::Crc32(payload);
    std::string frame;
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
    }
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
    }
    frame.append(payload);
    return frame;
  }

  /// Writes a hand-built segment file (magic + frames).
  void WriteSegment(uint64_t seq, bool sealed,
                    const std::vector<std::string>& payloads) {
    std::ofstream out(PathOf(seq, sealed), std::ios::binary | std::ios::trunc);
    out.write(kWalMagic, kWalMagicSize);
    for (const std::string& p : payloads) {
      const std::string frame = Frame(p);
      out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    }
    ASSERT_TRUE(out.good());
  }

  std::string dir_;
};

TEST_F(WalFixture, AppendReplayRoundTrip) {
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
  ASSERT_TRUE(writer.ok()) << writer.status().message();
  EXPECT_EQ((*writer)->open_seq(), 1u);
  ASSERT_TRUE((*writer)->Append("alpha").ok());
  ASSERT_TRUE((*writer)->Append("bravo!").ok());
  ASSERT_TRUE((*writer)->Append("").ok());  // empty payloads are legal
  EXPECT_EQ((*writer)->records_in_segment(), 3u);

  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->records, 3u);
  EXPECT_EQ(stats->segments, 1u);
  EXPECT_FALSE(stats->tail_truncated);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].payload, "alpha");
  EXPECT_EQ(seen[1].payload, "bravo!");
  EXPECT_EQ(seen[2].payload, "");
  // Offsets are absolute: magic, then 8-byte headers between payloads.
  EXPECT_EQ(seen[0].offset, kWalMagicSize);
  EXPECT_EQ(seen[1].offset, kWalMagicSize + 8 + 5);
  EXPECT_EQ(seen[2].offset, kWalMagicSize + 8 + 5 + 8 + 6);
  EXPECT_FALSE(seen[0].sealed);
  EXPECT_EQ(seen[0].seq, 1u);
}

TEST_F(WalFixture, RotateSealsAndContinuesInNextSegment) {
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("one").ok());
  Result<uint64_t> sealed = (*writer)->Rotate();
  ASSERT_TRUE(sealed.ok()) << sealed.status().message();
  EXPECT_EQ(*sealed, 1u);
  EXPECT_EQ((*writer)->open_seq(), 2u);
  EXPECT_EQ((*writer)->records_in_segment(), 0u);
  ASSERT_TRUE((*writer)->Append("two").ok());

  Result<std::vector<WalSegmentInfo>> segments = ListWalSegments(dir_);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  EXPECT_EQ((*segments)[0].seq, 1u);
  EXPECT_TRUE((*segments)[0].sealed);
  EXPECT_EQ((*segments)[1].seq, 2u);
  EXPECT_FALSE((*segments)[1].sealed);

  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].payload, "one");
  EXPECT_TRUE(seen[0].sealed);
  EXPECT_EQ(seen[1].payload, "two");
  EXPECT_FALSE(seen[1].sealed);
}

TEST_F(WalFixture, ReopenSealsLeftoverOpenSegment) {
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("survivor").ok());
  }  // writer dies with segment 1 still open
  Result<std::unique_ptr<WalWriter>> reopened = WalWriter::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->open_seq(), 2u);
  EXPECT_TRUE(fs::exists(PathOf(1, /*sealed=*/true)));
  EXPECT_FALSE(fs::exists(PathOf(1, /*sealed=*/false)));

  std::vector<Replayed> seen;
  ASSERT_TRUE(Replay(&seen).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].payload, "survivor");
  EXPECT_TRUE(seen[0].sealed);
}

TEST_F(WalFixture, TornTailOfOpenSegmentIsTruncated) {
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("whole one").ok());
    ASSERT_TRUE((*writer)->Append("whole two").ok());
  }
  // Simulate a process killed mid-append: a partial header at the tail.
  AppendRawBytes(PathOf(1, /*sealed=*/false), "xy");

  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_TRUE(stats->tail_truncated);
  EXPECT_EQ(stats->truncated_bytes, 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].payload, "whole two");

  // The truncation was physical: a second replay is already clean.
  seen.clear();
  stats = Replay(&seen);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->tail_truncated);
  EXPECT_EQ(seen.size(), 2u);
}

TEST_F(WalFixture, TornPayloadOfOpenSegmentIsTruncated) {
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("kept").ok());
  }
  // Full header promising 64 payload bytes, only 3 present.
  std::string torn = Frame("full payload that never finished").substr(0, 11);
  AppendRawBytes(PathOf(1, /*sealed=*/false), torn);

  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_TRUE(stats->tail_truncated);
  EXPECT_EQ(stats->truncated_bytes, torn.size());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].payload, "kept");
}

TEST_F(WalFixture, SealedSegmentCorruptionIsDataLossNamingOffset) {
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("clean prefix").ok());
    ASSERT_TRUE((*writer)->Append("this record is damaged").ok());
    ASSERT_TRUE((*writer)->Rotate().ok());
  }
  const std::string sealed_path = PathOf(1, /*sealed=*/true);
  // Flip a payload byte of the second record; its header starts after
  // magic + (header + 12-byte payload) of the first.
  FlipByte(sealed_path, kWalMagicSize + 8 + 12 + 8 + 3);

  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(stats.status().message().find(sealed_path), std::string::npos)
      << stats.status().message();
  EXPECT_NE(stats.status().message().find(
                "offset " + std::to_string(kWalMagicSize + 8 + 12)),
            std::string::npos)
      << stats.status().message();
  // The clean prefix was still delivered before the damage was hit.
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].payload, "clean prefix");
}

TEST_F(WalFixture, SealedSegmentBadMagicIsDataLoss) {
  WriteSegment(1, /*sealed=*/true, {"rec"});
  FlipByte(PathOf(1, /*sealed=*/true), 0);
  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(stats.status().message().find("bad segment magic"),
            std::string::npos)
      << stats.status().message();
}

TEST_F(WalFixture, OpenSegmentWithBadMagicIsDeleted) {
  WriteSegment(1, /*sealed=*/false, {"unattributable"});
  FlipByte(PathOf(1, /*sealed=*/false), 3);
  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_TRUE(seen.empty());
  EXPECT_TRUE(stats->tail_truncated);
  EXPECT_FALSE(fs::exists(PathOf(1, /*sealed=*/false)));
}

TEST_F(WalFixture, OverCapLengthInSealedSegmentIsDataLoss) {
  // Hand-build a frame whose length field exceeds the cap: that must read
  // as damaged header bytes, not drive a giant allocation.
  std::string frame;
  const uint32_t bogus_len = kMaxWalRecordBytes + 1;
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((bogus_len >> (8 * i)) & 0xFF));
  }
  frame.append(4, '\0');  // crc, irrelevant
  std::ofstream out(PathOf(1, /*sealed=*/true),
                    std::ios::binary | std::ios::trunc);
  out.write(kWalMagic, kWalMagicSize);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.close();

  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(stats.status().message().find("exceeds cap"), std::string::npos)
      << stats.status().message();
}

TEST_F(WalFixture, PruneRemovesOnlySealedSegmentsThroughSeq) {
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("a").ok());
  ASSERT_TRUE((*writer)->Rotate().ok());  // seals 1
  ASSERT_TRUE((*writer)->Append("b").ok());
  ASSERT_TRUE((*writer)->Rotate().ok());  // seals 2
  ASSERT_TRUE((*writer)->Append("c").ok());  // open segment 3

  Result<size_t> pruned = PruneWalSegments(dir_, 1);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(*pruned, 1u);
  // The open segment is never pruned, whatever through_seq says.
  pruned = PruneWalSegments(dir_, 99);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(*pruned, 1u);

  Result<std::vector<WalSegmentInfo>> segments = ListWalSegments(dir_);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_FALSE((*segments)[0].sealed);
  EXPECT_EQ((*segments)[0].seq, 3u);
}

TEST_F(WalFixture, DuplicateSequenceIsDataLoss) {
  WriteSegment(1, /*sealed=*/true, {"a"});
  WriteSegment(1, /*sealed=*/false, {"b"});
  Result<std::vector<WalSegmentInfo>> segments = ListWalSegments(dir_);
  ASSERT_FALSE(segments.ok());
  EXPECT_EQ(segments.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(segments.status().message().find("duplicate segment sequence"),
            std::string::npos)
      << segments.status().message();
}

TEST_F(WalFixture, OpenSegmentBelowSealedIsDataLoss) {
  WriteSegment(1, /*sealed=*/false, {"old"});
  WriteSegment(2, /*sealed=*/true, {"new"});
  Result<std::vector<WalSegmentInfo>> segments = ListWalSegments(dir_);
  ASSERT_FALSE(segments.ok());
  EXPECT_EQ(segments.status().code(), StatusCode::kDataLoss);
}

TEST_F(WalFixture, EmptyDirectoryReplaysClean) {
  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records, 0u);
  EXPECT_EQ(stats->segments, 0u);
  EXPECT_TRUE(seen.empty());
}

TEST_F(WalFixture, HandlerErrorStopsReplay) {
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("first").ok());
  ASSERT_TRUE((*writer)->Append("second").ok());
  size_t delivered = 0;
  Result<WalReplayStats> stats =
      ReplayWal(dir_, [&delivered](std::string_view,
                                   const WalRecordRef&) -> Status {
        if (++delivered == 2) return Status::Aborted("handler says stop");
        return Status::OK();
      });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kAborted);
  EXPECT_EQ(delivered, 2u);
}

TEST_F(WalFixture, AppendFaultLosesTheRecordWholly) {
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
  ASSERT_TRUE(writer.ok());
  resilience::ArmFault(resilience::kSiteWalAppend,
                       resilience::FaultSpec{.every_nth = 2});
  EXPECT_TRUE((*writer)->Append("kept one").ok());
  EXPECT_FALSE((*writer)->Append("lost").ok());
  EXPECT_TRUE((*writer)->Append("kept two").ok());
  resilience::ClearFaults();

  std::vector<Replayed> seen;
  ASSERT_TRUE(Replay(&seen).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].payload, "kept one");
  EXPECT_EQ(seen[1].payload, "kept two");
}

TEST_F(WalFixture, ReplayFaultPropagatesThenClears) {
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("a").ok());
  ASSERT_TRUE((*writer)->Append("b").ok());
  resilience::ArmFault(resilience::kSiteWalReplay,
                       resilience::FaultSpec{.every_nth = 2});
  std::vector<Replayed> seen;
  Result<WalReplayStats> stats = Replay(&seen);
  EXPECT_FALSE(stats.ok());
  resilience::ClearFaults();
  seen.clear();
  stats = Replay(&seen);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(seen.size(), 2u);
}

TEST(WalRecordTest, BatchRecordRoundTrips) {
  TweetBatch batch;
  batch.batch_id = 42;
  StreamTweet tweet;
  tweet.id = 7;
  tweet.author = 3;
  tweet.time = 12345;
  tweet.retweet_of = 5;
  tweet.retweet_of_user = 2;
  tweet.text = "round trip me \t with \n escapes";
  batch.tweets.push_back(tweet);
  batch.tweets.push_back(StreamTweet{});

  const std::string payload = EncodeBatchRecord(batch);
  Result<DecodedWalRecord> decoded = DecodeWalRecord(payload, 0, "<test>");
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->type, kWalRecordBatch);
  EXPECT_EQ(decoded->batch.batch_id, 42u);
  ASSERT_EQ(decoded->batch.tweets.size(), 2u);
  EXPECT_EQ(decoded->batch.tweets[0].id, 7u);
  EXPECT_EQ(decoded->batch.tweets[0].author, 3u);
  EXPECT_EQ(decoded->batch.tweets[0].time, 12345);
  EXPECT_EQ(decoded->batch.tweets[0].retweet_of, 5u);
  EXPECT_EQ(decoded->batch.tweets[0].retweet_of_user, 2u);
  EXPECT_EQ(decoded->batch.tweets[0].text, tweet.text);
}

TEST(WalRecordTest, CheckpointRecordRoundTrips) {
  const std::string payload = EncodeCheckpointRecord({17, 4});
  Result<DecodedWalRecord> decoded = DecodeWalRecord(payload, 0, "<test>");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, kWalRecordCheckpoint);
  EXPECT_EQ(decoded->mark.batch_id, 17u);
  EXPECT_EQ(decoded->mark.epoch, 4u);
}

TEST(WalRecordTest, MalformedPayloadIsDataLossNeverCrash) {
  // Truncations of a valid batch payload must all reject as DataLoss.
  TweetBatch batch;
  batch.batch_id = 1;
  batch.tweets.push_back({1, 1, 10, corpus::kInvalidTweet,
                          corpus::kInvalidUser, "text body"});
  const std::string payload = EncodeBatchRecord(batch);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Result<DecodedWalRecord> decoded =
        DecodeWalRecord(payload.substr(0, cut), 100, "<trunc>");
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut at "
                                                              << cut;
  }
  // Unknown record type.
  std::string unknown = payload;
  unknown[0] = static_cast<char>(99);
  Result<DecodedWalRecord> decoded = DecodeWalRecord(unknown, 0, "<type>");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace microrec::stream
