// Randomized round-trip property tests for the microrec.snap/2 codec
// primitives (snapshot/codec.h): varints, zigzag deltas, the LZ block
// compressor, MCS1 streams and the id-indexed row table. The invariant
// under test is exact: decode(encode(x)) == x for every input shape the
// engines produce — empty and single-entry sequences, extreme values,
// non-monotone id sequences and random traffic — plus kDataLoss (with
// offset context) on every malformed input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "snapshot/codec.h"
#include "util/status.h"

namespace microrec::snapshot {
namespace {

constexpr uint32_t kU32Max = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

// ---- Varints. ----

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,     1,       127,        128,
                             255,   16383,   16384,      (1ull << 21) - 1,
                             1ull << 21,     kU32Max,    kU32Max + 1ull,
                             1ull << 56,     kU64Max - 1, kU64Max};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint(&buf, v);
    ASSERT_LE(buf.size(), kMaxVarintBytes);
    size_t pos = 0;
    uint64_t decoded = 0;
    Status st = GetVarint(buf, &pos, &decoded, 0, "<test>", "value");
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, RoundTripsRandomValuesBackToBack) {
  std::mt19937_64 rng(11);
  std::vector<uint64_t> values;
  std::string buf;
  for (int i = 0; i < 10000; ++i) {
    // Mix magnitudes: shifting by a random amount exercises every width.
    uint64_t v = rng() >> (rng() % 64);
    values.push_back(v);
    PutVarint(&buf, v);
  }
  size_t pos = 0;
  for (uint64_t expected : values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint(buf, &pos, &decoded, 0, "<test>", "value").ok());
    ASSERT_EQ(decoded, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, TruncationIsDataLossWithOffset) {
  std::string buf;
  PutVarint(&buf, kU64Max);  // 10 bytes
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t decoded = 0;
    Status st = GetVarint(std::string_view(buf).substr(0, cut), &pos,
                          &decoded, 4096, "<test>", "value");
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << "cut=" << cut;
    EXPECT_NE(st.message().find("<test>"), std::string::npos);
    // The offset names the byte the decode stalled at: base_offset plus at
    // most the truncated prefix.
    EXPECT_NE(st.message().find(":offset 4"), std::string::npos)
        << st.ToString();
  }
}

TEST(VarintTest, OverlongContinuationRunIsDataLoss) {
  // Eleven continuation bytes: no legal u64 needs more than ten bytes.
  std::string buf(11, '\x80');
  buf.push_back('\x01');
  size_t pos = 0;
  uint64_t decoded = 0;
  Status st = GetVarint(buf, &pos, &decoded, 0, "<test>", "value");
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(VarintTest, BitsBeyond64AreDataLoss) {
  // Ten bytes whose final byte carries bits that overflow a u64.
  std::string buf(9, '\xff');
  buf.push_back('\x7f');  // 9*7 + 7 = 70 bits claimed
  size_t pos = 0;
  uint64_t decoded = 0;
  Status st = GetVarint(buf, &pos, &decoded, 0, "<test>", "value");
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

// ---- Zigzag. ----

TEST(ZigzagTest, RoundTripsBoundaryValues) {
  const int64_t values[] = {0,
                            1,
                            -1,
                            2,
                            -2,
                            63,
                            -64,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  for (int64_t v : values) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  // Small magnitudes map to small codes — the property delta coding relies
  // on for nearly-sorted ids.
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(ZigzagTest, RoundTripsRandomValues) {
  std::mt19937_64 rng(12);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = static_cast<int64_t>(rng());
    ASSERT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

// ---- Delta-coded id sequences. ----

void ExpectDeltaIdsRoundTrip(const std::vector<uint64_t>& ids) {
  std::string buf;
  PutDeltaIds(&buf, ids);
  size_t pos = 0;
  std::vector<uint64_t> decoded;
  Status st = GetDeltaIds(buf, &pos, &decoded, buf.size() + 1, 0, "<test>",
                          "ids");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded, ids);
  EXPECT_EQ(pos, buf.size());
}

TEST(DeltaIdsTest, RoundTripsShapes) {
  ExpectDeltaIdsRoundTrip({});                  // empty
  ExpectDeltaIdsRoundTrip({0});                 // single, id zero
  ExpectDeltaIdsRoundTrip({kU64Max});           // single, extreme
  ExpectDeltaIdsRoundTrip({1, 2, 3, 4, 5});     // sorted, dense
  ExpectDeltaIdsRoundTrip({5, 4, 3, 2, 1});     // strictly decreasing
  ExpectDeltaIdsRoundTrip({7, 7, 7});           // repeats (delta 0)
  ExpectDeltaIdsRoundTrip({kU64Max, 0, kU64Max, 1});  // non-monotone extremes
}

TEST(DeltaIdsTest, RoundTripsRandomNonMonotoneSequences) {
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint64_t> ids(rng() % 64);
    for (uint64_t& id : ids) id = rng() >> (rng() % 64);
    ExpectDeltaIdsRoundTrip(ids);
  }
}

TEST(DeltaIdsTest, CountBeyondMaxCountIsDataLoss) {
  std::string buf;
  PutDeltaIds(&buf, {1, 2, 3, 4, 5, 6, 7, 8});
  size_t pos = 0;
  std::vector<uint64_t> decoded;
  Status st = GetDeltaIds(buf, &pos, &decoded, /*max_count=*/4, 77, "<test>",
                          "ids");
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("<test>"), std::string::npos);
}

TEST(DeltaIdsTest, TruncatedSequenceIsDataLoss) {
  std::string buf;
  PutDeltaIds(&buf, {100, 200, 300});
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    size_t pos = 0;
    std::vector<uint64_t> decoded;
    Status st = GetDeltaIds(std::string_view(buf).substr(0, cut), &pos,
                            &decoded, 16, 0, "<test>", "ids");
    EXPECT_FALSE(st.ok()) << "cut=" << cut;
  }
}

// ---- LZ compressor. ----

std::string RandomBytes(std::mt19937_64* rng, size_t n, int alphabet) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>((*rng)() % alphabet);
  return out;
}

void ExpectLzRoundTrip(const std::string& raw) {
  std::string enc = LzCompress(raw);
  std::string dec;
  Status st = LzDecompress(enc, raw.size(), &dec, 0, "<test>");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dec, raw);
}

TEST(LzTest, RoundTripsShapes) {
  ExpectLzRoundTrip("");
  ExpectLzRoundTrip("x");
  ExpectLzRoundTrip(std::string(100000, 'a'));  // one long run
  ExpectLzRoundTrip("abcabcabcabcabcabc");      // short period
  std::mt19937_64 rng(15);
  ExpectLzRoundTrip(RandomBytes(&rng, 70000, 256));  // incompressible
  ExpectLzRoundTrip(RandomBytes(&rng, 70000, 4));    // compressible
}

TEST(LzTest, CompressesRepetitiveInput) {
  std::string raw;
  for (int i = 0; i < 1000; ++i) raw += "the quick brown fox ";
  EXPECT_LT(LzCompress(raw).size(), raw.size() / 4);
}

TEST(LzTest, TruncatedEncodingIsDataLoss) {
  std::string raw = "abcabcabcabc abcabc abc";
  std::string enc = LzCompress(raw);
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    std::string dec;
    Status st = LzDecompress(std::string_view(enc).substr(0, cut), raw.size(),
                             &dec, 0, "<test>");
    // Either an explicit error or (for prefixes that happen to be
    // self-consistent) a short output — never the full raw, never a crash.
    if (st.ok()) {
      EXPECT_LT(dec.size(), raw.size());
    }
  }
}

// ---- MCS1 streams. ----

void ExpectStreamRoundTrip(const std::string& raw, size_t block_size) {
  std::string stream = CompressStream(raw, block_size);
  ASSERT_TRUE(LooksLikeStream(stream));
  std::string dec;
  Status st = DecompressStream(stream, &dec, 0, "<test>");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dec, raw);

  Result<BlockStream> bs = BlockStream::Open(stream, 0, "<test>");
  ASSERT_TRUE(bs.ok()) << bs.status().ToString();
  EXPECT_EQ(bs->raw_size(), raw.size());
  std::string range;
  ASSERT_TRUE(bs->ReadRange(0, raw.size(), &range).ok());
  EXPECT_EQ(range, raw);
}

TEST(StreamTest, RoundTripsAcrossBlockBoundaries) {
  std::mt19937_64 rng(16);
  for (size_t block_size : {size_t{64}, size_t{1024}}) {
    for (size_t n : {size_t{0}, size_t{1}, block_size - 1, block_size,
                     block_size + 1, block_size * 3 + block_size / 2}) {
      SCOPED_TRACE("block=" + std::to_string(block_size) +
                   " n=" + std::to_string(n));
      ExpectStreamRoundTrip(RandomBytes(&rng, n, 8), block_size);
      ExpectStreamRoundTrip(RandomBytes(&rng, n, 256), block_size);
    }
  }
}

TEST(StreamTest, DeterministicEncoding) {
  std::mt19937_64 rng(17);
  std::string raw = RandomBytes(&rng, 200000, 16);
  EXPECT_EQ(CompressStream(raw), CompressStream(raw));
}

TEST(StreamTest, RandomRangeReadsMatchSubstrings) {
  std::mt19937_64 rng(18);
  std::string raw = RandomBytes(&rng, 10000, 8);
  std::string stream = CompressStream(raw, /*block_size=*/512);
  Result<BlockStream> bs = BlockStream::Open(stream, 0, "<test>");
  ASSERT_TRUE(bs.ok());
  for (int trial = 0; trial < 500; ++trial) {
    size_t off = rng() % raw.size();
    size_t n = rng() % (raw.size() - off + 1);
    std::string range;
    ASSERT_TRUE(bs->ReadRange(off, n, &range).ok());
    ASSERT_EQ(range, raw.substr(off, n));
  }
}

TEST(StreamTest, RangeBeyondRawSizeIsDataLoss) {
  std::string stream = CompressStream("hello world", 8);
  Result<BlockStream> bs = BlockStream::Open(stream, 0, "<test>");
  ASSERT_TRUE(bs.ok());
  std::string out;
  EXPECT_EQ(bs->ReadRange(8, 8, &out).code(), StatusCode::kDataLoss);
  EXPECT_EQ(bs->ReadRange(100, 1, &out).code(), StatusCode::kDataLoss);
}

TEST(StreamTest, CorruptBlockByteIsDataLossWithOffset) {
  std::mt19937_64 rng(19);
  std::string raw = RandomBytes(&rng, 4000, 4);
  std::string stream = CompressStream(raw, /*block_size=*/1024);
  // Flip a byte in the last block's data (the directory head stays valid,
  // so the failure must come from the per-block CRC).
  std::string corrupt = stream;
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x40);
  Result<BlockStream> bs = BlockStream::Open(corrupt, 555, "<test>");
  ASSERT_TRUE(bs.ok()) << bs.status().ToString();
  std::string out;
  Status st = bs->ReadRange(raw.size() - 10, 10, &out);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("<test>"), std::string::npos);
  // Blocks before the corruption still read fine.
  EXPECT_TRUE(bs->ReadRange(0, 1024, &out).ok());
}

TEST(StreamTest, MangledHeaderNeverCrashes) {
  std::string stream = CompressStream("payload payload payload", 8);
  for (size_t i = 0; i < stream.size(); ++i) {
    for (int bit : {0x01, 0x80}) {
      std::string m = stream;
      m[i] = static_cast<char>(m[i] ^ bit);
      std::string dec;
      Status st = DecompressStream(m, &dec, 0, "<test>");
      // Any single-bit flip lands in magic, flags, directory or a
      // CRC-covered block: all must be caught.
      EXPECT_FALSE(st.ok()) << "byte " << i << " bit " << bit;
    }
  }
  // Truncations at every length.
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    std::string dec;
    EXPECT_FALSE(
        DecompressStream(std::string_view(stream).substr(0, cut), &dec, 0,
                         "<test>")
            .ok())
        << "cut=" << cut;
  }
}

// ---- Row tables. ----

TEST(TableTest, RejectsNonIncreasingIds) {
  TableBuilder b;
  ASSERT_TRUE(b.AddRow(5, "x").ok());
  EXPECT_FALSE(b.AddRow(5, "y").ok());  // equal
  EXPECT_FALSE(b.AddRow(4, "z").ok());  // decreasing
  ASSERT_TRUE(b.AddRow(6, "w").ok());
}

TEST(TableTest, TenThousandRandomRowsRoundTripThroughStreamAndIndex) {
  // Full v2 table path: TableBuilder → MCS1 stream → BlockStream +
  // ParseTableIndex → every row read back byte-identically, plus lookups
  // for ids that were never inserted.
  std::mt19937_64 rng(20);
  std::vector<uint64_t> ids;
  std::vector<std::string> rows;
  TableBuilder b;
  uint64_t id = 0;
  for (int i = 0; i < 10000; ++i) {
    id += 1 + rng() % 5;
    std::string row = RandomBytes(&rng, rng() % 40, 256);  // empty rows too
    ASSERT_TRUE(b.AddRow(id, row).ok());
    ids.push_back(id);
    rows.push_back(std::move(row));
  }
  std::string payload = std::move(b).Finish();
  std::string stream = CompressStream(payload, /*block_size=*/4096);

  Result<BlockStream> bs = BlockStream::Open(stream, 0, "<test>");
  ASSERT_TRUE(bs.ok()) << bs.status().ToString();
  ASSERT_EQ(bs->raw_size(), payload.size());

  // Materialize the index the way MappedTable does: prefix bytes only.
  std::string prefix;
  ASSERT_TRUE(bs->ReadRange(0, std::min<size_t>(payload.size(), 64), &prefix)
                  .ok());
  uint64_t index_bytes = 0;
  ASSERT_TRUE(
      TableIndexBytes(prefix, payload.size(), &index_bytes, 0, "<test>")
          .ok());
  ASSERT_LE(index_bytes, payload.size());
  std::string index_buf;
  ASSERT_TRUE(bs->ReadRange(0, index_bytes, &index_buf).ok());
  TableIndex index;
  ASSERT_TRUE(
      ParseTableIndex(index_buf, payload.size(), &index, 0, "<test>").ok());
  ASSERT_EQ(index.ids, ids);

  for (size_t i = 0; i < ids.size(); ++i) {
    size_t ordinal = index.Find(ids[i]);
    ASSERT_EQ(ordinal, i);
    std::string row;
    ASSERT_TRUE(
        bs->ReadRange(index.row_offset(ordinal), index.row_length(ordinal),
                      &row)
            .ok());
    ASSERT_EQ(row, rows[i]) << "row " << i;
  }
  // Ids between and outside the inserted set must miss, not mis-find.
  EXPECT_EQ(index.Find(0), TableIndex::kNotFound);
  EXPECT_EQ(index.Find(ids.back() + 1), TableIndex::kNotFound);
  std::mt19937_64 probe(21);
  for (int trial = 0; trial < 1000; ++trial) {
    uint64_t q = probe() % (ids.back() + 2);
    size_t ordinal = index.Find(q);
    const bool present =
        std::binary_search(ids.begin(), ids.end(), q);
    EXPECT_EQ(ordinal != TableIndex::kNotFound, present) << "id " << q;
  }
}

TEST(TableTest, EmptyTableRoundTrips) {
  std::string payload = TableBuilder().Finish();
  TableIndex index;
  ASSERT_TRUE(
      ParseTableIndex(payload, payload.size(), &index, 0, "<test>").ok());
  EXPECT_TRUE(index.ids.empty());
  EXPECT_EQ(index.Find(0), TableIndex::kNotFound);
}

TEST(TableTest, CorruptIndexVarintsAreDataLoss) {
  TableBuilder b;
  ASSERT_TRUE(b.AddRow(10, "aaaa").ok());
  ASSERT_TRUE(b.AddRow(20, "bbbb").ok());
  std::string payload = std::move(b).Finish();
  // Flip the continuation bit of every index byte in turn: each mutant must
  // either fail to parse or describe rows that stay inside the payload.
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string m = payload;
    m[i] = static_cast<char>(m[i] ^ 0x80);
    TableIndex index;
    Status st = ParseTableIndex(m, m.size(), &index, 900, "<test>");
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kDataLoss) << "byte " << i;
      continue;
    }
    for (size_t ordinal = 0; ordinal + 1 < index.offsets.size(); ++ordinal) {
      EXPECT_LE(index.row_offset(ordinal) + index.row_length(ordinal),
                m.size())
          << "byte " << i;
    }
  }
  // Truncation at every length must be an error (the index head cannot be
  // complete) or an in-bounds parse of a shorter table.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    TableIndex index;
    Status st = ParseTableIndex(std::string_view(payload).substr(0, cut), cut,
                                &index, 0, "<test>");
    if (st.ok()) {
      for (size_t ordinal = 0; ordinal + 1 < index.offsets.size();
           ++ordinal) {
        EXPECT_LE(index.row_offset(ordinal) + index.row_length(ordinal), cut);
      }
    }
  }
}

}  // namespace
}  // namespace microrec::snapshot
