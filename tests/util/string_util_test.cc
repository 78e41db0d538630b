#include "util/string_util.h"

#include <gtest/gtest.h>

namespace microrec {
namespace {

TEST(SplitAnyTest, SplitsOnAnyDelimiter) {
  EXPECT_EQ(SplitAny("a,b;c", ",;"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitAnyTest, DropsEmptyPieces) {
  EXPECT_EQ(SplitAny(",,a,,b,", ","), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitAny("", ",").empty());
  EXPECT_TRUE(SplitAny(",,,", ",").empty());
}

TEST(SplitAnyTest, NoDelimiterYieldsWholeString) {
  EXPECT_EQ(SplitAny("abc", ","), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, JoinsWithSeparator) {
  using Parts = std::vector<std::string_view>;
  EXPECT_EQ(Join(Parts{"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join(Parts{"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("htt", "http://"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
  EXPECT_FALSE(EndsWith("c", ".cc"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("abc", ""));
}

TEST(TrimAsciiTest, TrimsBothEnds) {
  EXPECT_EQ(TrimAscii("  hi \t\n"), "hi");
  EXPECT_EQ(TrimAscii("hi"), "hi");
  EXPECT_EQ(TrimAscii("   "), "");
  EXPECT_EQ(TrimAscii(""), "");
}

TEST(AsciiToLowerTest, LowersOnlyAscii) {
  EXPECT_EQ(AsciiToLower("AbC123"), "abc123");
  // Multi-byte UTF-8 is left untouched.
  EXPECT_EQ(AsciiToLower("ÄB"), "Äb");
}

TEST(FormatDoubleTest, RoundsToDigits) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(1.0, 2), "1.00");
  EXPECT_EQ(FormatDouble(-2.567, 1), "-2.6");
}

TEST(FormatWithCommasTest, GroupsThousands) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-45000), "-45,000");
}

}  // namespace
}  // namespace microrec
