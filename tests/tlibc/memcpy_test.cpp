#include "tlibc/memcpy.hpp"

#include <gtest/gtest.h>

#include "common/cycles.hpp"

#include <algorithm>
#include <cstring>
#include <random>
#include <tuple>
#include <vector>

namespace zc::tlibc {
namespace {

using CopyFn = void* (*)(void*, const void*, std::size_t) noexcept;

// Parameterized over (implementation, size, src offset, dst offset): both
// implementations must match libc memcpy for every alignment combination —
// in particular the unaligned cases where Intel's algorithm degrades to a
// byte copy (the paper's Fig. 7 pathology) must still be *correct*.
class MemcpyCorrectness
    : public ::testing::TestWithParam<
          std::tuple<int, std::size_t, std::size_t, std::size_t>> {
 protected:
  static CopyFn fn() {
    switch (std::get<0>(GetParam())) {
      case 0: return &intel_memcpy;
      case 1: return &zc_memcpy;
      default: return &zc_memcpy_nt;
    }
  }
};

TEST_P(MemcpyCorrectness, MatchesReference) {
  const auto [impl, size, src_off, dst_off] = GetParam();
  (void)impl;
  std::vector<std::uint8_t> src_buf(size + src_off + 64, 0);
  std::vector<std::uint8_t> dst_buf(size + dst_off + 64, 0xEE);
  std::vector<std::uint8_t> expect_buf(dst_buf);

  std::mt19937 rng(static_cast<unsigned>(size * 31 + src_off * 7 + dst_off));
  for (auto& b : src_buf) b = static_cast<std::uint8_t>(rng());

  void* ret = fn()(dst_buf.data() + dst_off, src_buf.data() + src_off, size);
  std::memcpy(expect_buf.data() + dst_off, src_buf.data() + src_off, size);

  EXPECT_EQ(ret, dst_buf.data() + dst_off);
  EXPECT_EQ(dst_buf, expect_buf);
}

INSTANTIATE_TEST_SUITE_P(
    AlignmentSweep, MemcpyCorrectness,
    ::testing::Combine(::testing::Values(0, 1, 2),  // intel, zc, zc_nt
                       ::testing::Values(0u, 1u, 7u, 8u, 15u, 64u, 511u,
                                         4096u, 32'768u),
                       ::testing::Values(0u, 1u, 3u, 7u),   // src offset
                       ::testing::Values(0u, 1u, 4u, 7u)),  // dst offset
    [](const auto& info) {
      const int impl = std::get<0>(info.param);
      return std::string(impl == 0 ? "intel" : impl == 1 ? "zc" : "zc_nt") +
             "_n" + std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param)) + "_d" +
             std::to_string(std::get<3>(info.param));
    });

class MemcpyOverlap : public ::testing::TestWithParam<int> {
 protected:
  static CopyFn fn() {
    switch (GetParam()) {
      case 0: return &intel_memcpy;
      case 1: return &zc_memcpy;
      default: return &zc_memcpy_nt;  // overlap must fall back safely
    }
  }
};

TEST_P(MemcpyOverlap, ForwardOverlapCopiesBackwards) {
  // dst > src, ranges overlap: must behave like memmove.
  std::vector<std::uint8_t> buf(64);
  std::vector<std::uint8_t> expect(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
    expect[i] = static_cast<std::uint8_t>(i);
  }
  fn()(buf.data() + 8, buf.data(), 32);
  std::memmove(expect.data() + 8, expect.data(), 32);
  EXPECT_EQ(buf, expect);
}

TEST_P(MemcpyOverlap, BackwardOverlap) {
  // dst < src, overlapping: forward copy must be safe.
  std::vector<std::uint8_t> buf(64);
  std::vector<std::uint8_t> expect(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 3);
    expect[i] = static_cast<std::uint8_t>(i * 3);
  }
  fn()(buf.data(), buf.data() + 8, 32);
  std::memmove(expect.data(), expect.data() + 8, 32);
  EXPECT_EQ(buf, expect);
}

TEST_P(MemcpyOverlap, SelfCopyIsNoop) {
  std::vector<std::uint8_t> buf{1, 2, 3, 4, 5};
  fn()(buf.data(), buf.data(), buf.size());
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST_P(MemcpyOverlap, ZeroLengthTouchesNothing) {
  std::vector<std::uint8_t> buf{7, 7, 7};
  fn()(buf.data(), buf.data() + 1, 0);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{7, 7, 7}));
}

INSTANTIATE_TEST_SUITE_P(AllImpls, MemcpyOverlap, ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           return info.param == 0   ? std::string("intel")
                                  : info.param == 1 ? std::string("zc")
                                                    : std::string("zc_nt");
                         });

TEST(Tmemset, FillsExactRange) {
  std::vector<std::uint8_t> buf(32, 0xAA);
  tmemset(buf.data() + 8, 0x11, 16);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(buf[i], 0xAA);
  for (std::size_t i = 8; i < 24; ++i) EXPECT_EQ(buf[i], 0x11);
  for (std::size_t i = 24; i < 32; ++i) EXPECT_EQ(buf[i], 0xAA);
}

TEST(Tmemset, TruncatesValueToByte) {
  std::uint8_t b = 0;
  tmemset(&b, 0x1FF, 1);
  EXPECT_EQ(b, 0xFF);
}

TEST(Tmemcmp, OrdersLikeLibc) {
  const char a[] = "abcdef";
  const char b[] = "abcdeg";
  EXPECT_EQ(tmemcmp(a, a, 6), 0);
  EXPECT_LT(tmemcmp(a, b, 6), 0);
  EXPECT_GT(tmemcmp(b, a, 6), 0);
  EXPECT_EQ(tmemcmp(a, b, 5), 0);  // differ only at index 5
  EXPECT_EQ(tmemcmp(a, b, 0), 0);
}

TEST(ActiveMemcpy, DefaultIsIntel) {
  // Tests may run in any order; normalise first.
  set_active_memcpy(MemcpyKind::kIntel);
  EXPECT_EQ(active_memcpy_kind(), MemcpyKind::kIntel);
}

TEST(ActiveMemcpy, SwitchTakesEffect) {
  set_active_memcpy(MemcpyKind::kZc);
  EXPECT_EQ(active_memcpy_kind(), MemcpyKind::kZc);
  std::uint8_t src[16] = {1, 2, 3};
  std::uint8_t dst[16] = {};
  active_memcpy(dst, src, sizeof(src));
  EXPECT_EQ(std::memcmp(dst, src, sizeof(src)), 0);
  set_active_memcpy(MemcpyKind::kIntel);
}

TEST(ActiveMemcpy, ScopedGuardRestores) {
  set_active_memcpy(MemcpyKind::kIntel);
  {
    ScopedMemcpy guard(MemcpyKind::kZc);
    EXPECT_EQ(active_memcpy_kind(), MemcpyKind::kZc);
  }
  EXPECT_EQ(active_memcpy_kind(), MemcpyKind::kIntel);
}

TEST(ActiveMemcpy, Names) {
  EXPECT_STREQ(to_string(MemcpyKind::kIntel), "intel");
  EXPECT_STREQ(to_string(MemcpyKind::kZc), "zc");
  EXPECT_STREQ(to_string(MemcpyKind::kZcNt), "zc_nt");
}

TEST(ActiveMemcpy, ZcNtKindCopiesThroughStreamingPath) {
  ScopedMemcpy guard(MemcpyKind::kZcNt);
  EXPECT_EQ(active_memcpy_kind(), MemcpyKind::kZcNt);
  std::vector<std::uint8_t> src(200'000);
  std::vector<std::uint8_t> dst(200'000, 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  active_memcpy(dst.data() + 1, src.data() + 3, src.size() - 3);
  EXPECT_EQ(std::memcmp(dst.data() + 1, src.data() + 3, src.size() - 3), 0);
}

// --- Streaming auto-threshold ------------------------------------------------
//
// Mutating tests restore the compile-time default (256 KB) so the default
// assertion holds regardless of execution order.

TEST(NtThreshold, DefaultIs256K) {
  EXPECT_EQ(memcpy_nt_threshold(), 256u * 1024u);
}

TEST(NtThreshold, SetterIsObservable) {
  set_memcpy_nt_threshold(4096);
  EXPECT_EQ(memcpy_nt_threshold(), 4096u);
  set_memcpy_nt_threshold(0);
  EXPECT_EQ(memcpy_nt_threshold(), 0u);
  set_memcpy_nt_threshold(256 * 1024);
}

TEST(NtThreshold, ZcRoutesLargeCopiesCorrectlyAboveThreshold) {
  // kZc copies at/above the threshold take the non-temporal path; the
  // observable contract is byte-exactness either side of the boundary.
  ScopedMemcpy guard(MemcpyKind::kZc);
  set_memcpy_nt_threshold(1024);
  std::vector<std::uint8_t> src(8192);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i ^ (i >> 5));
  }
  for (const std::size_t n : {512u, 1023u, 1024u, 1025u, 8000u}) {
    std::vector<std::uint8_t> dst(n + 8, 0xAB);
    active_memcpy(dst.data() + 5, src.data() + 2, n);  // unaligned both ends
    EXPECT_EQ(std::memcmp(dst.data() + 5, src.data() + 2, n), 0) << n;
    EXPECT_EQ(dst[n + 5], 0xAB) << n;  // no overrun
  }
  set_memcpy_nt_threshold(256 * 1024);
}

TEST(NtThreshold, ZeroDisablesAutoRouting) {
  ScopedMemcpy guard(MemcpyKind::kZc);
  set_memcpy_nt_threshold(0);
  std::vector<std::uint8_t> src(512 * 1024, 0x3C);
  std::vector<std::uint8_t> dst(512 * 1024, 0);
  active_memcpy(dst.data(), src.data(), src.size());
  EXPECT_EQ(dst, src);
  set_memcpy_nt_threshold(256 * 1024);
}

// Fewest cycles for 8 back-to-back 1 MiB copies from an aligned and from a
// misaligned-by-one source.  One untimed warm-up copy per alignment, then
// kReps interleaved timed passes, so a cold cache or a preemption landing
// on one pass cannot decide the comparison.
struct AlignmentCycles {
  std::uint64_t aligned = ~std::uint64_t{0};
  std::uint64_t unaligned = ~std::uint64_t{0};
};

AlignmentCycles min_cycles_by_alignment(void* (*copy)(void*, const void*,
                                                      std::size_t) noexcept) {
  constexpr std::size_t kN = 1 << 20;
  constexpr int kReps = 5;
  std::vector<std::uint8_t> src(kN + 1);
  std::vector<std::uint8_t> dst(kN + 1);
  const auto pass = [&](std::size_t src_off) {
    const std::uint64_t t0 = zc::rdtsc();
    for (int i = 0; i < 8; ++i) copy(dst.data(), src.data() + src_off, kN);
    return zc::rdtsc() - t0;
  };
  copy(dst.data(), src.data(), kN);
  copy(dst.data(), src.data() + 1, kN);
  AlignmentCycles best;
  for (int rep = 0; rep < kReps; ++rep) {
    best.aligned = std::min(best.aligned, pass(0));
    best.unaligned = std::min(best.unaligned, pass(1));
  }
  return best;
}

TEST(MemcpyPerformance, IntelUnalignedIsSlowerThanAligned) {
  // The root cause of Fig. 7: Intel's byte-by-byte path. Compare cycles for
  // a large copy, aligned vs misaligned-by-one. Ratios are machine
  // dependent; require only a conservative 1.5x gap.
  const AlignmentCycles c = min_cycles_by_alignment(intel_memcpy);
  EXPECT_GT(static_cast<double>(c.unaligned),
            1.5 * static_cast<double>(c.aligned));
}

TEST(MemcpyPerformance, ZcCloseGapBetweenAlignments) {
  // rep movsb should be nearly alignment-insensitive (within 3x).
  const AlignmentCycles c = min_cycles_by_alignment(zc_memcpy);
  EXPECT_LT(static_cast<double>(c.unaligned),
            3.0 * static_cast<double>(c.aligned));
}

}  // namespace
}  // namespace zc::tlibc
