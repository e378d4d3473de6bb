#include "apps/crypto/sector_store.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "core/backend_registry.hpp"

namespace zc::app {
namespace {

class SectorStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig cfg;
    cfg.tes_cycles = 200;
    enclave_ = Enclave::create(cfg);
    libc_ = std::make_unique<EnclaveLibc>(*enclave_);
    path_ = testutil::unique_tmp_path("zc_sectors").string() + ".bin";
    for (std::size_t i = 0; i < sizeof(key_); ++i) {
      key_[i] = static_cast<std::uint8_t>(i * 11 + 3);
    }
  }
  void TearDown() override {
    enclave_->set_backend(nullptr);
    std::filesystem::remove(path_);
  }

  std::vector<std::uint8_t> sector_pattern(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    return data;
  }

  std::vector<std::uint8_t> read_file_bytes() {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  // Writes `sectors` sectors in `write_mode`, reads them back in
  // `read_mode`, and checks the decrypted plaintext round-trips.  Returns
  // the on-disk ciphertext for cross-mode comparison.
  std::vector<std::uint8_t> round_trip(std::size_t sector_bytes,
                                       std::uint64_t sectors,
                                       CopyMode write_mode,
                                       CopyMode read_mode) {
    SectorStore store(*libc_, path_, sector_bytes, key_);
    EXPECT_TRUE(store.valid());
    EXPECT_TRUE(store.open_for_write());
    std::vector<std::vector<std::uint8_t>> plains;
    for (std::uint64_t i = 0; i < sectors; ++i) {
      plains.push_back(
          sector_pattern(sector_bytes, static_cast<unsigned>(i + 1)));
      EXPECT_TRUE(store.write_sector(i, plains.back().data(), write_mode))
          << i;
    }
    store.close();

    EXPECT_TRUE(store.open_for_read());
    std::vector<std::uint8_t> out(sector_bytes);
    for (std::uint64_t i = 0; i < sectors; ++i) {
      EXPECT_TRUE(store.read_sector(i, out.data(), read_mode)) << i;
      EXPECT_EQ(out, plains[i]) << "sector " << i;
    }
    store.close();
    return read_file_bytes();
  }

  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<EnclaveLibc> libc_;
  std::string path_;
  std::uint8_t key_[32];
};

TEST_F(SectorStoreTest, DoubleCopyRoundTrips) {
  round_trip(4096, 8, CopyMode::kDouble, CopyMode::kDouble);
}

TEST_F(SectorStoreTest, SingleCopyRoundTrips) {
  round_trip(4096, 8, CopyMode::kSingle, CopyMode::kSingle);
}

TEST_F(SectorStoreTest, ModesInteroperateEitherWay) {
  // A file written with the staging discipline must read back through the
  // in-place consumer, and vice versa: same ciphertext, same plaintext.
  round_trip(512, 6, CopyMode::kDouble, CopyMode::kSingle);
  round_trip(512, 6, CopyMode::kSingle, CopyMode::kDouble);
}

TEST_F(SectorStoreTest, CiphertextFilesAreIdenticalAcrossModes) {
  const auto double_copy =
      round_trip(2048, 5, CopyMode::kDouble, CopyMode::kDouble);
  const auto single_copy =
      round_trip(2048, 5, CopyMode::kSingle, CopyMode::kSingle);
  EXPECT_FALSE(double_copy.empty());
  EXPECT_EQ(double_copy.size(), 5u * 2048u);
  EXPECT_EQ(double_copy, single_copy);
}

TEST_F(SectorStoreTest, DistinctSectorsGetDistinctCiphertext) {
  // Same plaintext in two sectors: the per-sector IV must make the
  // ciphertext blocks differ.
  SectorStore store(*libc_, path_, 256, key_);
  ASSERT_TRUE(store.open_for_write());
  const auto plain = sector_pattern(256, 7);
  ASSERT_TRUE(store.write_sector(0, plain.data(), CopyMode::kDouble));
  ASSERT_TRUE(store.write_sector(1, plain.data(), CopyMode::kDouble));
  store.close();
  const auto bytes = read_file_bytes();
  ASSERT_EQ(bytes.size(), 512u);
  EXPECT_NE(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 256),
            std::vector<std::uint8_t>(bytes.begin() + 256, bytes.end()));
}

TEST_F(SectorStoreTest, OneStoreMatchesAFreshStorePerSector) {
  // One store expands the key once and serves every sector from it; its
  // ciphertext must equal that of stores built anew for each sector.
  constexpr std::size_t kBytes = 1024;
  constexpr std::uint64_t kSectors = 12;
  const CopyMode modes[] = {CopyMode::kDouble, CopyMode::kSingle};
  std::vector<std::uint8_t> fresh;
  for (std::uint64_t i = 0; i < kSectors; ++i) {
    SectorStore store(*libc_, path_, kBytes, key_);
    ASSERT_TRUE(store.open_for_write());
    const auto plain = sector_pattern(kBytes, static_cast<unsigned>(i + 1));
    ASSERT_TRUE(store.write_sector(i, plain.data(), modes[i % 2]));
    store.close();
    const auto bytes = read_file_bytes();
    fresh.insert(fresh.end(), bytes.begin(), bytes.end());
  }
  ASSERT_EQ(fresh.size(), kSectors * kBytes);

  SectorStore store(*libc_, path_, kBytes, key_);
  ASSERT_TRUE(store.open_for_write());
  for (std::uint64_t i = 0; i < kSectors; ++i) {
    const auto plain = sector_pattern(kBytes, static_cast<unsigned>(i + 1));
    ASSERT_TRUE(store.write_sector(i, plain.data(), modes[(i + 1) % 2]));
  }
  store.close();
  EXPECT_EQ(read_file_bytes(), fresh);

  // Many read passes through the same store, both disciplines.
  std::vector<std::uint8_t> out(kBytes);
  for (const CopyMode mode : modes) {
    ASSERT_TRUE(store.open_for_read());
    for (std::uint64_t i = 0; i < kSectors; ++i) {
      ASSERT_TRUE(store.read_sector(i, out.data(), mode)) << i;
      EXPECT_EQ(out, sector_pattern(kBytes, static_cast<unsigned>(i + 1)))
          << "sector " << i;
    }
    store.close();
  }
}

TEST_F(SectorStoreTest, SeededSectorCiphertextDigestIsPinned) {
  // One seeded 32 KB sector at index 5 (IV derivation included), in both
  // disciplines.  The digest was taken from the original per-sector
  // cipher construction; any drift in key schedule, IV or CBC fails here.
  for (const CopyMode mode : {CopyMode::kDouble, CopyMode::kSingle}) {
    SectorStore store(*libc_, path_, 32 * 1024, key_);
    ASSERT_TRUE(store.open_for_write());
    const auto plain = sector_pattern(32 * 1024, 1);
    ASSERT_TRUE(store.write_sector(5, plain.data(), mode));
    store.close();
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
    for (const std::uint8_t b : read_file_bytes()) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(h, 0x1f9cb7d778ad3994ULL);
  }
}

TEST_F(SectorStoreTest, SingleCopyDrivesTheBackendElisionCounter) {
  install_backend_spec(*enclave_, "zc:workers=1;pool=slab;copy=single");
  EXPECT_EQ(enclave_->backend().copy_mode(), CopyMode::kSingle);
  const CopyMode mode = enclave_->backend().copy_mode();
  SectorStore store(*libc_, path_, 1024, key_);
  ASSERT_TRUE(store.open_for_write());
  const auto plain = sector_pattern(1024, 3);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.write_sector(i, plain.data(), mode));
  }
  store.close();
  ASSERT_TRUE(store.open_for_read());
  std::vector<std::uint8_t> out(1024);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.read_sector(i, out.data(), mode));
    EXPECT_EQ(out, plain);
  }
  store.close();
  // One elided staging copy per sector transfer (producer on writes,
  // consumer on reads): 8 transfers -> at least 8.
  EXPECT_GE(enclave_->backend().stats_snapshot().copies_elided, 8u);
}

TEST_F(SectorStoreTest, InvalidSectorSizesAreRefused) {
  for (const std::size_t bad : {0u, 100u, 513u}) {
    SectorStore store(*libc_, path_, bad, key_);
    EXPECT_FALSE(store.valid()) << bad;
    EXPECT_FALSE(store.open_for_write()) << bad;
    std::uint8_t buf[513] = {};
    EXPECT_FALSE(store.write_sector(0, buf, CopyMode::kDouble)) << bad;
    EXPECT_FALSE(store.read_sector(0, buf, CopyMode::kSingle)) << bad;
  }
}

TEST_F(SectorStoreTest, OperationsWithoutOpenFail) {
  SectorStore store(*libc_, path_, 256, key_);
  ASSERT_TRUE(store.valid());
  std::uint8_t buf[256] = {};
  EXPECT_FALSE(store.write_sector(0, buf, CopyMode::kDouble));
  EXPECT_FALSE(store.read_sector(0, buf, CopyMode::kDouble));
}

}  // namespace
}  // namespace zc::app
