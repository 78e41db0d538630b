#include "snapshot/format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace microrec::snapshot {
namespace {

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical zlib check value for "123456789".
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainsIncrementally) {
  const char data[] = "hello world";
  uint32_t whole = Crc32(data, 11);
  uint32_t chained = Crc32(data + 5, 6, Crc32(data, 5));
  EXPECT_EQ(whole, chained);
}

TEST(FingerprintTermsTest, OrderAndFramingSensitive) {
  uint64_t ab = FingerprintTerms({"a", "b"});
  uint64_t ba = FingerprintTerms({"b", "a"});
  uint64_t joined = FingerprintTerms({"ab"});
  EXPECT_NE(ab, ba);
  // Length framing: ["a","b"] must not collide with ["ab"].
  EXPECT_NE(ab, joined);
  EXPECT_EQ(ab, FingerprintTerms({"a", "b"}));
}

TEST(CodecTest, ScalarRoundTrip) {
  Encoder enc;
  enc.PutU8(7);
  enc.PutU32(0xDEADBEEFu);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutF64(-0.1);
  enc.PutString("hello");

  Decoder dec(enc.bytes(), 0);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0.0;
  std::string str;
  ASSERT_TRUE(dec.ReadU8(&u8).ok());
  ASSERT_TRUE(dec.ReadU32(&u32).ok());
  ASSERT_TRUE(dec.ReadU64(&u64).ok());
  ASSERT_TRUE(dec.ReadF64(&f64).ok());
  ASSERT_TRUE(dec.ReadString(&str).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f64, -0.1);
  EXPECT_EQ(str, "hello");
  EXPECT_TRUE(dec.ExpectEnd().ok());
}

TEST(CodecTest, DoubleRoundTripIsBitExact) {
  // Exact float round-trip is the foundation of warm-start bit-identity.
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity()};
  Encoder enc;
  for (double v : values) enc.PutF64(v);
  Decoder dec(enc.bytes(), 0);
  for (double v : values) {
    double back = 0.0;
    ASSERT_TRUE(dec.ReadF64(&back).ok());
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0);
  }
}

TEST(CodecTest, VectorRoundTrip) {
  Encoder enc;
  enc.PutVecF64({1.5, -2.5, 0.0});
  enc.PutVecU32({1, 2, 3});
  enc.PutVecString({"alpha", "", "gamma"});

  Decoder dec(enc.bytes(), 0);
  std::vector<double> f64s;
  std::vector<uint32_t> u32s;
  std::vector<std::string> strs;
  ASSERT_TRUE(dec.ReadVecF64(&f64s).ok());
  ASSERT_TRUE(dec.ReadVecU32(&u32s).ok());
  ASSERT_TRUE(dec.ReadVecString(&strs).ok());
  EXPECT_EQ(f64s, (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(u32s, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(strs, (std::vector<std::string>{"alpha", "", "gamma"}));
  EXPECT_TRUE(dec.ExpectEnd().ok());
}

TEST(CodecTest, TruncationErrorsNameOffset) {
  Encoder enc;
  enc.PutU64(42);
  std::string bytes = enc.bytes().substr(0, 3);
  Decoder dec(bytes, /*base_offset=*/100);
  uint64_t out = 0;
  Status st = dec.ReadU64(&out);
  EXPECT_FALSE(st.ok());
  // Errors carry the absolute file offset (base + position).
  EXPECT_NE(st.message().find("offset 100"), std::string::npos)
      << st.ToString();
}

TEST(CodecTest, HugeVectorCountRejectedBeforeAllocation) {
  // A count field claiming ~2^61 elements must be rejected by comparing
  // against the remaining bytes, not by attempting the allocation.
  Encoder enc;
  enc.PutU64(UINT64_MAX / 4);
  std::vector<double> out;
  Decoder dec(enc.bytes(), 0);
  Status st = dec.ReadVecF64(&out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("exceeds remaining"), std::string::npos)
      << st.ToString();
}

TEST(CodecTest, StringLengthBeyondBufferRejected) {
  Encoder enc;
  enc.PutU64(1000);  // string length prefix with no bytes behind it
  Decoder dec(enc.bytes(), 0);
  std::string out;
  EXPECT_FALSE(dec.ReadString(&out).ok());
}

TEST(CodecTest, ExpectEndRejectsTrailingBytes) {
  Encoder enc;
  enc.PutU32(1);
  Decoder dec(enc.bytes(), 0);
  Status st = dec.ExpectEnd();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unconsumed"), std::string::npos)
      << st.ToString();
}

TEST(CodecTest, SkipAdvancesAndChecksBounds) {
  Encoder enc;
  enc.PutU32(7);
  enc.PutU32(9);
  Decoder dec(enc.bytes(), 0);
  ASSERT_TRUE(dec.Skip(4, "first word").ok());
  uint32_t out = 0;
  ASSERT_TRUE(dec.ReadU32(&out).ok());
  EXPECT_EQ(out, 9u);
  EXPECT_FALSE(dec.Skip(1, "past the end").ok());
}

}  // namespace
}  // namespace microrec::snapshot
