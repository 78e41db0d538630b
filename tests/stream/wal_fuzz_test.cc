// Deterministic corruption fuzzing of the microrec.wal/1 replay path via
// the snapshot mutation harness: every mutant of a pristine segment must
// replay to either a clean prefix (open-segment torn-tail semantics) or a
// DataLoss status — never a crash, never an unbounded allocation, and
// never a payload the record codec crashes on. Run under ASan/UBSan these
// cases double as memory-safety proofs (the streaming-chaos CI job does).
//
// Knobs match snapshot_fuzz_test.cc: MICROREC_FUZZ_N / MICROREC_FUZZ_SEED
// / MICROREC_FUZZ_ARTIFACTS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "snapshot/fuzz.h"
#include "stream/record.h"
#include "stream/wal.h"
#include "temp_dir.h"

namespace microrec::stream {
namespace {

namespace fs = std::filesystem;

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

std::string DumpArtifact(const std::string& format, uint64_t seed,
                         uint64_t index, const std::string& mutant) {
  const char* dir = std::getenv("MICROREC_FUZZ_ARTIFACTS");
  if (dir == nullptr || dir[0] == '\0') return {};
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::string path = std::string(dir) + "/" + format + "-seed" +
                     std::to_string(seed) + "-case" + std::to_string(index) +
                     ".bin";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
  return path;
}

/// A realistic pristine segment: three batch records of different sizes
/// and one checkpoint record, written through the real writer so framing
/// is exactly what production produces.
std::string PristineSegment(std::vector<std::string>* payloads) {
  const std::string dir = testutil::UniqueTempDir("microrec_walfuzz_pristine");
  fs::create_directories(dir);
  const char* texts[] = {
      "fluffy cat naps on warm windowsill",
      "bond yields fall after rate decision",
      "x",
  };
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir);
    EXPECT_TRUE(writer.ok());
    uint64_t tweet_id = 100;
    for (uint64_t b = 1; b <= 3; ++b) {
      TweetBatch batch;
      batch.batch_id = b;
      for (uint64_t i = 0; i < b; ++i) {  // growing batches: varied frames
        StreamTweet tweet;
        tweet.id = tweet_id++;
        tweet.author = 7;
        tweet.time = static_cast<corpus::Timestamp>(10 * tweet_id);
        tweet.text = texts[i % 3];
        batch.tweets.push_back(tweet);
      }
      payloads->push_back(EncodeBatchRecord(batch));
      EXPECT_TRUE((*writer)->Append(payloads->back()).ok());
    }
    payloads->push_back(EncodeCheckpointRecord({3, 1}));
    EXPECT_TRUE((*writer)->Append(payloads->back()).ok());
  }
  std::ifstream in(dir + "/" + WalSegmentFileName(1, /*sealed=*/false),
                   std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::error_code ec;
  fs::remove_all(dir, ec);
  return bytes;
}

/// Replays `dir`, feeding every delivered payload through the record
/// codec; the handler mirrors recovery (decode errors propagate).
Result<WalReplayStats> ReplayAndDecode(const std::string& dir,
                                       std::vector<std::string>* delivered) {
  return ReplayWal(
      dir, [delivered](std::string_view payload,
                       const WalRecordRef& ref) -> Status {
        Result<DecodedWalRecord> decoded =
            DecodeWalRecord(payload, ref.offset + 8, *ref.file);
        if (!decoded.ok()) return decoded.status();
        delivered->push_back(std::string(payload));
        return Status::OK();
      });
}

class WalFuzzFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::UniqueTempDir("microrec_walfuzz");
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Installs `bytes` as the only segment of a fresh log directory.
  void InstallSegment(const std::string& bytes, bool sealed) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
    std::ofstream out(dir_ + "/" + WalSegmentFileName(1, sealed),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  std::string dir_;
};

TEST_F(WalFuzzFixture, MutatedSealedSegmentsPrefixOrDataLoss) {
  std::vector<std::string> pristine_payloads;
  const std::string pristine = PristineSegment(&pristine_payloads);
  const uint64_t seed = FuzzSeed();
  const size_t n = FuzzN();
  size_t rejected = 0;
  for (uint64_t index = 0; index < n; ++index) {
    snapshot::Mutation mutation;
    std::string mutant = snapshot::Mutate(pristine, seed, index, &mutation);
    InstallSegment(mutant, /*sealed=*/true);
    std::vector<std::string> delivered;
    Result<WalReplayStats> stats = ReplayAndDecode(dir_, &delivered);
    if (!stats.ok()) {
      // Sealed damage must be DataLoss, nothing else (and in particular
      // not a crash before we got here).
      if (stats.status().code() != StatusCode::kDataLoss) {
        std::string artifact = DumpArtifact("wal-sealed", seed, index, mutant);
        FAIL() << "case " << index << " (" << mutation.ToString()
               << ") failed with non-DataLoss: " << stats.status().message()
               << (artifact.empty() ? "" : "; mutant saved to " + artifact);
      }
      ++rejected;
      continue;
    }
    // An accepted mutant must have replayed a prefix of the pristine
    // record sequence: CRC framing makes anything else a missed
    // corruption.
    bool is_prefix = delivered.size() <= pristine_payloads.size();
    for (size_t i = 0; is_prefix && i < delivered.size(); ++i) {
      is_prefix = delivered[i] == pristine_payloads[i];
    }
    if (!is_prefix) {
      std::string artifact = DumpArtifact("wal-sealed", seed, index, mutant);
      FAIL() << "case " << index << " (" << mutation.ToString()
             << ") replayed a non-prefix record sequence"
             << (artifact.empty() ? "" : "; mutant saved to " + artifact);
    }
  }
  // Truncations and bit flips always change bytes; most must reject.
  EXPECT_GE(rejected, n / 3) << "suspiciously few rejections";
}

TEST_F(WalFuzzFixture, MutatedOpenSegmentsTruncateToCleanPrefix) {
  std::vector<std::string> pristine_payloads;
  const std::string pristine = PristineSegment(&pristine_payloads);
  const uint64_t seed = FuzzSeed() + 1;
  const size_t n = FuzzN();
  for (uint64_t index = 0; index < n; ++index) {
    snapshot::Mutation mutation;
    std::string mutant = snapshot::Mutate(pristine, seed, index, &mutation);
    InstallSegment(mutant, /*sealed=*/false);
    std::vector<std::string> delivered;
    Result<WalReplayStats> stats = ReplayAndDecode(dir_, &delivered);
    if (!stats.ok()) {
      // Only the codec can fail an open-segment replay (a framing-valid
      // payload that decodes wrong), and that is DataLoss by contract.
      if (stats.status().code() != StatusCode::kDataLoss) {
        std::string artifact = DumpArtifact("wal-open", seed, index, mutant);
        FAIL() << "case " << index << " (" << mutation.ToString()
               << ") failed with non-DataLoss: " << stats.status().message()
               << (artifact.empty() ? "" : "; mutant saved to " + artifact);
      }
      continue;
    }
    // Torn-tail truncation is physical and idempotent: a second replay of
    // the same directory must deliver the same records with no further
    // truncation.
    std::vector<std::string> redelivered;
    Result<WalReplayStats> again = ReplayAndDecode(dir_, &redelivered);
    ASSERT_TRUE(again.ok())
        << "case " << index << ": second replay failed after truncation: "
        << again.status().message();
    EXPECT_FALSE(again->tail_truncated) << "case " << index;
    EXPECT_EQ(redelivered.size(), delivered.size()) << "case " << index;
  }
}

}  // namespace
}  // namespace microrec::stream
