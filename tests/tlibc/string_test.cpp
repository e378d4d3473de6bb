#include "tlibc/string.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace zc::tlibc {
namespace {

TEST(TString, StrlenMatchesLibc) {
  for (const char* s : {"", "a", "hello", "with\ttabs", "longer string ..."}) {
    EXPECT_EQ(tstrlen(s), std::strlen(s)) << s;
  }
}

TEST(TString, StrnlenStopsAtMax) {
  EXPECT_EQ(tstrnlen("hello", 10), 5u);
  EXPECT_EQ(tstrnlen("hello", 3), 3u);
  EXPECT_EQ(tstrnlen("hello", 0), 0u);
  EXPECT_EQ(tstrnlen("", 8), 0u);
}

TEST(TString, StrnlenNeverReadsPastMax) {
  // Unterminated buffer: only valid because max caps the scan.
  char buf[4] = {'a', 'b', 'c', 'd'};
  EXPECT_EQ(tstrnlen(buf, 4), 4u);
}

TEST(TString, StrcmpOrdering) {
  EXPECT_EQ(tstrcmp("abc", "abc"), 0);
  EXPECT_LT(tstrcmp("abc", "abd"), 0);
  EXPECT_GT(tstrcmp("abd", "abc"), 0);
  EXPECT_LT(tstrcmp("ab", "abc"), 0);   // prefix sorts first
  EXPECT_GT(tstrcmp("abc", "ab"), 0);
  EXPECT_EQ(tstrcmp("", ""), 0);
}

TEST(TString, StrcmpIsUnsigned) {
  // 0x80 must compare greater than 0x7f (libc compares unsigned chars).
  const char hi[] = {static_cast<char>(0x80), 0};
  const char lo[] = {0x7f, 0};
  EXPECT_GT(tstrcmp(hi, lo), 0);
}

TEST(TString, StrncmpHonoursLimit) {
  EXPECT_EQ(tstrncmp("abcX", "abcY", 3), 0);
  EXPECT_LT(tstrncmp("abcX", "abcY", 4), 0);
  EXPECT_EQ(tstrncmp("abc", "abcdef", 3), 0);
  EXPECT_EQ(tstrncmp("a", "b", 0), 0);
  EXPECT_EQ(tstrncmp("same\0extra", "same\0other", 10), 0);  // stops at NUL
}

TEST(TString, StrncpyPadsAndTruncatesLikeLibc) {
  char ours[8];
  char theirs[8];
  for (const char* src : {"", "ab", "exactly7", "this is too long"}) {
    std::memset(ours, 0x55, sizeof(ours));
    std::memset(theirs, 0x55, sizeof(theirs));
    tstrncpy(ours, src, sizeof(ours));
    // A bound equal to the destination size, which leaves a long source
    // unterminated, is the libc behaviour under comparison.  Reading it
    // through a volatile keeps the compiler from flagging that on purpose.
    const volatile std::size_t full_size = sizeof(theirs);
    std::strncpy(theirs, src, full_size);
    EXPECT_EQ(std::memcmp(ours, theirs, sizeof(ours)), 0) << src;
  }
}

TEST(TString, MemchrFindsFirstOccurrence) {
  const char data[] = "abcabc";
  EXPECT_EQ(tmemchr(data, 'b', 6), data + 1);
  EXPECT_EQ(tmemchr(data, 'z', 6), nullptr);
  EXPECT_EQ(tmemchr(data, 'c', 2), nullptr);  // out of range
  EXPECT_EQ(tmemchr(data, 'a', 0), nullptr);
}

TEST(TString, MemchrMatchesLibcOnRandomBuffers) {
  std::mt19937 rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<unsigned char> buf(257);
    for (auto& b : buf) b = static_cast<unsigned char>(rng() % 8);
    const int needle = static_cast<int>(rng() % 8);
    EXPECT_EQ(tmemchr(buf.data(), needle, buf.size()),
              std::memchr(buf.data(), needle, buf.size()));
  }
}

TEST(TString, MemmoveHandlesOverlapBothWays) {
  std::vector<unsigned char> ours(64);
  std::vector<unsigned char> theirs(64);
  for (std::size_t i = 0; i < 64; ++i) {
    ours[i] = theirs[i] = static_cast<unsigned char>(i);
  }
  tmemmove(ours.data() + 10, ours.data(), 40);
  std::memmove(theirs.data() + 10, theirs.data(), 40);
  EXPECT_EQ(ours, theirs);

  tmemmove(ours.data(), ours.data() + 5, 40);
  std::memmove(theirs.data(), theirs.data() + 5, 40);
  EXPECT_EQ(ours, theirs);
}

}  // namespace
}  // namespace zc::tlibc
