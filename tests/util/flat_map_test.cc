// FlatMap (util/flat_map.h): lookups must survive every rehash, 64-bit keys
// must hash on all their bits, a duplicate Insert must keep the first value,
// and the key that marks an empty slot must never be found or stored.
#include "util/flat_map.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace microrec {
namespace {

TEST(FlatMapTest, FindOnEmptyMapIsAbsent) {
  FlatMap<uint32_t, uint32_t> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(7), nullptr);
}

TEST(FlatMapTest, DenseKeysAreFoundAcrossEveryRehash) {
  constexpr uint32_t kKeys = 100000;
  FlatMap<uint32_t, uint32_t> map;
  for (uint32_t key = 0; key < kKeys; ++key) {
    const auto [value, inserted] = map.Insert(key, 3 * key + 1);
    ASSERT_TRUE(inserted) << key;
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, 3 * key + 1);
    ASSERT_EQ(map.size(), key + 1);
    // The table grows as key 2^j goes in (16 slots hold 8 keys): check
    // every key so far right after each rehash.
    if ((key & (key - 1)) == 0) {
      for (uint32_t seen = 0; seen <= key; ++seen) {
        const uint32_t* found = map.Find(seen);
        ASSERT_NE(found, nullptr) << seen << " after " << key + 1 << " keys";
        ASSERT_EQ(*found, 3 * seen + 1);
      }
    }
  }
  for (uint32_t key = 0; key < kKeys; ++key) {
    const uint32_t* found = map.Find(key);
    ASSERT_NE(found, nullptr) << key;
    ASSERT_EQ(*found, 3 * key + 1);
  }
  for (uint32_t key = kKeys; key < kKeys + 1000; ++key) {
    EXPECT_EQ(map.Find(key), nullptr) << key;
  }
}

TEST(FlatMapTest, KeysSharingTheirLow32BitsStayDistinct) {
  FlatMap<uint64_t, double> map;
  for (uint64_t high = 0; high < 1000; ++high) {
    EXPECT_TRUE(map.Insert(high << 32 | 5, static_cast<double>(high)).second);
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t high = 0; high < 1000; ++high) {
    const double* found = map.Find(high << 32 | 5);
    ASSERT_NE(found, nullptr) << high;
    EXPECT_EQ(*found, static_cast<double>(high));
    EXPECT_EQ(map.Find(high << 32 | 6), nullptr) << high;
  }
}

TEST(FlatMapTest, DuplicateInsertKeepsTheFirstValue) {
  FlatMap<uint64_t, double> map;
  const auto [first, inserted_first] = map.Insert(7, 1.5);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(inserted_first);
  const auto [second, inserted_second] = map.Insert(7, 2.5);
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(inserted_second);
  EXPECT_EQ(*second, 1.5);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 1.5);
}

TEST(FlatMapTest, MarkerKeyIsNeverFoundNorStored) {
  constexpr uint64_t kMarker = std::numeric_limits<uint64_t>::max();
  FlatMap<uint64_t, double> map;
  EXPECT_EQ(map.Find(kMarker), nullptr);
  ASSERT_TRUE(map.Insert(1, 0.5).second);
  // The probe for the marker ends at an empty slot, which holds the marker.
  EXPECT_EQ(map.Find(kMarker), nullptr);
  const auto [value, inserted] = map.Insert(kMarker, 2.0);
  EXPECT_EQ(value, nullptr);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.Find(kMarker), nullptr);

  FlatMap<uint32_t, uint32_t> narrow;
  ASSERT_TRUE(narrow.Insert(0, 0).second);
  EXPECT_EQ(narrow.Find(std::numeric_limits<uint32_t>::max()), nullptr);
  EXPECT_FALSE(narrow.Insert(std::numeric_limits<uint32_t>::max(), 1).second);
  EXPECT_EQ(narrow.size(), 1u);
}

TEST(FlatMapTest, KeyBelowTheMarkerRoundTrips) {
  constexpr uint64_t kWide = std::numeric_limits<uint64_t>::max() - 1;
  FlatMap<uint64_t, double> wide;
  ASSERT_TRUE(wide.Insert(kWide, 3.0).second);
  ASSERT_NE(wide.Find(kWide), nullptr);
  EXPECT_EQ(*wide.Find(kWide), 3.0);

  constexpr uint32_t kNarrow = std::numeric_limits<uint32_t>::max() - 1;
  FlatMap<uint32_t, uint32_t> narrow;
  ASSERT_TRUE(narrow.Insert(kNarrow, 9).second);
  ASSERT_NE(narrow.Find(kNarrow), nullptr);
  EXPECT_EQ(*narrow.Find(kNarrow), 9u);
}

}  // namespace
}  // namespace microrec
