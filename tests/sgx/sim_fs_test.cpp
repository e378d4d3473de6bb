#include "sgx/sim_fs.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/cycles.hpp"
#include "sgx/tlibc_stdio.hpp"

namespace zc {
namespace {

class SimFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs().clear();
    fs().set_syscall_cycles(0);  // timing-free unit tests
  }
  void TearDown() override {
    fs().clear();
    fs().set_syscall_cycles(250);
  }
  static SimFs& fs() { return SimFs::instance(); }
};

TEST_F(SimFsTest, FopenRbOnMissingFileFails) {
  EXPECT_EQ(fs().fopen("nofile", "rb"), 0u);
  EXPECT_EQ(fs().fopen("nofile", "r+b"), 0u);
}

TEST_F(SimFsTest, FopenWbCreatesAndTruncates) {
  const auto h1 = fs().fopen("f", "wb");
  ASSERT_NE(h1, 0u);
  EXPECT_EQ(fs().fwrite("abcdef", 6, h1), 6u);
  fs().fclose(h1);
  EXPECT_EQ(fs().file_size("f"), 6u);

  const auto h2 = fs().fopen("f", "wb");  // truncates
  ASSERT_NE(h2, 0u);
  EXPECT_EQ(fs().file_size("f"), 0u);
  fs().fclose(h2);
}

TEST_F(SimFsTest, WriteSeekReadRoundTrip) {
  const auto h = fs().fopen("f", "w+b");
  ASSERT_NE(h, 0u);
  EXPECT_EQ(fs().fwrite("0123456789", 10, h), 10u);
  EXPECT_EQ(fs().ftello(h), 10);
  EXPECT_EQ(fs().fseeko(h, 3, SEEK_SET), 0);
  char buf[4];
  EXPECT_EQ(fs().fread(buf, 4, h), 4u);
  EXPECT_EQ(std::string(buf, 4), "3456");
  fs().fclose(h);
}

TEST_F(SimFsTest, SeekWhencesMatchStdio) {
  const auto h = fs().fopen("f", "w+b");
  fs().fwrite("abcdefgh", 8, h);
  EXPECT_EQ(fs().fseeko(h, -2, SEEK_END), 0);
  EXPECT_EQ(fs().ftello(h), 6);
  EXPECT_EQ(fs().fseeko(h, -3, SEEK_CUR), 0);
  EXPECT_EQ(fs().ftello(h), 3);
  EXPECT_EQ(fs().fseeko(h, -10, SEEK_SET), -1);  // negative target
  EXPECT_EQ(fs().fseeko(h, 0, 99), -1);          // bad whence
  fs().fclose(h);
}

TEST_F(SimFsTest, ReadAtEofReturnsZero) {
  const auto h = fs().fopen("f", "w+b");
  fs().fwrite("xy", 2, h);
  char buf[8];
  EXPECT_EQ(fs().fread(buf, 8, h), 0u);  // pos is at EOF after the write
  fs().fseeko(h, 0, SEEK_SET);
  EXPECT_EQ(fs().fread(buf, 8, h), 2u);  // short read at EOF
  fs().fclose(h);
}

TEST_F(SimFsTest, WriteBeyondEofZeroFills) {
  const auto h = fs().fopen("f", "w+b");
  fs().fseeko(h, 4, SEEK_SET);
  fs().fwrite("Z", 1, h);
  EXPECT_EQ(fs().file_size("f"), 5u);
  fs().fseeko(h, 0, SEEK_SET);
  char buf[5];
  EXPECT_EQ(fs().fread(buf, 5, h), 5u);
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(buf[4], 'Z');
  fs().fclose(h);
}

TEST_F(SimFsTest, WriteAcrossEofOverwritesThenExtends) {
  const auto h = fs().fopen("f", "w+b");
  EXPECT_EQ(fs().fwrite("abcdef", 6, h), 6u);
  fs().fseeko(h, 2, SEEK_SET);
  EXPECT_EQ(fs().fwrite("XY", 2, h), 2u);  // wholly inside the file
  EXPECT_EQ(fs().file_size("f"), 6u);
  fs().fseeko(h, 4, SEEK_SET);
  EXPECT_EQ(fs().fwrite("1234", 4, h), 4u);  // straddles EOF
  EXPECT_EQ(fs().ftello(h), 8);
  fs().fseeko(h, 0, SEEK_SET);
  char buf[8];
  EXPECT_EQ(fs().fread(buf, 8, h), 8u);
  EXPECT_EQ(std::string(buf, 8), "abXY1234");
  fs().fclose(h);
}

TEST_F(SimFsTest, AppendModeAlwaysWritesAtEnd) {
  const auto h1 = fs().fopen("f", "wb");
  fs().fwrite("head", 4, h1);
  fs().fclose(h1);
  const auto h2 = fs().fopen("f", "ab");
  fs().fwrite("tail", 4, h2);
  fs().fclose(h2);
  EXPECT_EQ(fs().file_size("f"), 8u);
}

TEST_F(SimFsTest, ReadOnlyStreamRejectsWrites) {
  const auto w = fs().fopen("f", "wb");
  fs().fwrite("x", 1, w);
  fs().fclose(w);
  const auto r = fs().fopen("f", "rb");
  EXPECT_EQ(fs().fwrite("y", 1, r), 0u);
  fs().fclose(r);
}

TEST_F(SimFsTest, TwoStreamsShareOneFile) {
  const auto w = fs().fopen("f", "wb");
  const auto r = fs().fopen("f", "rb");
  ASSERT_NE(r, 0u);
  fs().fwrite("live", 4, w);
  char buf[4];
  EXPECT_EQ(fs().fread(buf, 4, r), 4u);
  EXPECT_EQ(std::string(buf, 4), "live");
  fs().fclose(w);
  fs().fclose(r);
}

TEST_F(SimFsTest, CloseIsNotIdempotentOnHandle) {
  const auto h = fs().fopen("f", "wb");
  EXPECT_EQ(fs().fclose(h), 0);
  EXPECT_EQ(fs().fclose(h), EOF);
  EXPECT_EQ(fs().fflush(h), EOF);
}

TEST_F(SimFsTest, DevZeroReadsZeroes) {
  const int fd = fs().open("/dev/zero", O_RDONLY);
  ASSERT_GE(fd, 0);
  std::uint64_t word = ~0ULL;
  EXPECT_EQ(fs().read(fd, &word, 8), 8);
  EXPECT_EQ(word, 0u);
  EXPECT_EQ(fs().close(fd), 0);
}

TEST_F(SimFsTest, DevNullSwallowsWrites) {
  const int fd = fs().open("/dev/null", O_WRONLY);
  ASSERT_GE(fd, 0);
  const std::uint64_t word = 42;
  EXPECT_EQ(fs().write(fd, &word, 8), 8);
  EXPECT_EQ(fs().close(fd), 0);
}

TEST_F(SimFsTest, FdPermissionsEnforced) {
  const int fd = fs().open("/dev/zero", O_RDONLY);
  std::uint64_t word = 0;
  EXPECT_EQ(fs().write(fd, &word, 8), -1);
  fs().close(fd);
  const int wfd = fs().open("/dev/null", O_WRONLY);
  EXPECT_EQ(fs().read(wfd, &word, 8), -1);
  fs().close(wfd);
}

TEST_F(SimFsTest, FdFileIoNeedsOCreat) {
  EXPECT_EQ(fs().open("newfile", O_RDWR), -1);
  const int fd = fs().open("newfile", O_RDWR | O_CREAT);
  ASSERT_GE(fd, 0);
  const char data[4] = {'d', 'a', 't', 'a'};
  EXPECT_EQ(fs().write(fd, data, 4), 4);
  fs().close(fd);
  EXPECT_TRUE(fs().exists("newfile"));
}

TEST_F(SimFsTest, BadFdAndBadHandleFail) {
  char buf[1];
  EXPECT_EQ(fs().read(12345, buf, 1), -1);
  EXPECT_EQ(fs().write(12345, buf, 1), -1);
  EXPECT_EQ(fs().close(12345), -1);
  EXPECT_EQ(fs().read(-1, buf, 1), -1);
  EXPECT_EQ(fs().close(-1), -1);
  EXPECT_EQ(fs().fread(buf, 1, 999), 0u);
  EXPECT_EQ(fs().fseeko(999, 0, SEEK_SET), -1);
  EXPECT_EQ(fs().ftello(999), -1);
}

TEST_F(SimFsTest, HandlesAreNeverReusedAcrossClear) {
  const auto h = fs().fopen("f", "wb");
  const int fd = fs().open("/dev/zero", O_RDONLY);
  fs().clear();
  const auto h2 = fs().fopen("f", "wb");
  const int fd2 = fs().open("/dev/zero", O_RDONLY);
  EXPECT_GT(h2, h);
  EXPECT_GT(fd2, fd);
  char buf[1];
  EXPECT_EQ(fs().fwrite("x", 1, h), 0u);
  EXPECT_EQ(fs().ftello(h), -1);
  EXPECT_EQ(fs().fclose(h), EOF);
  EXPECT_EQ(fs().read(fd, buf, 1), -1);
  EXPECT_EQ(fs().close(fd), -1);
  EXPECT_EQ(fs().fclose(h2), 0);
  EXPECT_EQ(fs().close(fd2), 0);
}

TEST_F(SimFsTest, RemoveAndClear) {
  fs().fclose(fs().fopen("a", "wb"));
  fs().fclose(fs().fopen("b", "wb"));
  fs().remove("a");
  EXPECT_FALSE(fs().exists("a"));
  EXPECT_TRUE(fs().exists("b"));
  fs().clear();
  EXPECT_FALSE(fs().exists("b"));
}

TEST_F(SimFsTest, SyscallCostIsCharged) {
  fs().set_syscall_cycles(200'000);
  const std::uint64_t t0 = rdtsc();
  fs().fclose(fs().fopen("f", "wb"));  // two charged operations
  EXPECT_GE(rdtsc() - t0, 400'000u);
}

TEST_F(SimFsTest, CostChangeRacingReadsIsRaceFree) {
  // charge() reads the cost without the registry lock; under
  // ThreadSanitizer this proves that read is a proper atomic one.
  const auto w = fs().fopen("f", "wb");
  fs().fwrite("abcdefgh", 8, w);
  fs().fclose(w);
  std::jthread setter([](const std::stop_token& st) {
    for (std::uint64_t i = 0; !st.stop_requested(); ++i) {
      fs().set_syscall_cycles(i % 2 == 0 ? 0 : 100);
    }
  });
  const auto h = fs().fopen("f", "rb");
  char buf[8];
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_EQ(fs().fseeko(h, 0, SEEK_SET), 0);
    ASSERT_EQ(fs().fread(buf, sizeof(buf), h), sizeof(buf));
  }
  setter.request_stop();
  setter.join();
  fs().fclose(h);
  EXPECT_EQ(std::string(buf, sizeof(buf)), "abcdefgh");
}

TEST_F(SimFsTest, ConcurrentWritersOnDistinctFiles) {
  std::vector<std::jthread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t] {
      const std::string path = "file" + std::to_string(t);
      const auto h = fs().fopen(path, "wb");
      for (int i = 0; i < 500; ++i) {
        fs().fwrite(&i, sizeof(i), h);
      }
      fs().fclose(h);
    });
  }
  threads.clear();
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(fs().file_size("file" + std::to_string(t)),
              500 * sizeof(int));
  }
}

TEST_F(SimFsTest, IoOnOwnHandlesRacesOpenCloseChurn) {
  // The per-op lookups take no registry lock: I/O threads on their own
  // handles, a thread opening and closing handles, and a prober that
  // races every close with ops on the handle being closed.  Under ASan
  // and TSan this proves a racing op never touches freed memory.
  constexpr int kIoThreads = 3;
  constexpr int kIterations = 2'000;
  std::atomic<int> io_done{0};
  std::atomic<std::uint64_t> latest{0};
  std::atomic<int> failures{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < kIoThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto h = fs().fopen("io" + std::to_string(t), "w+b");
      const int fd = fs().open("/dev/zero", O_RDONLY);
      for (int i = 0; i < kIterations; ++i) {
        const std::uint64_t word = std::uint64_t(t) << 32 | i;
        std::uint64_t back = 0;
        std::uint64_t zero = ~0ULL;
        if (fs().fseeko(h, 0, SEEK_SET) != 0 ||
            fs().fwrite(&word, 8, h) != 8 || fs().ftello(h) != 8 ||
            fs().fseeko(h, 0, SEEK_SET) != 0 || fs().fread(&back, 8, h) != 8 ||
            back != word || fs().fflush(h) != 0 ||
            fs().read(fd, &zero, 8) != 8 || zero != 0) {
          failures++;
        }
      }
      if (fs().fclose(h) != 0 || fs().close(fd) != 0) failures++;
      io_done.fetch_add(1, std::memory_order_release);
    });
  }
  threads.emplace_back([&] {
    std::uint64_t handle = 0;
    char buf[4];
    while (io_done.load(std::memory_order_acquire) < kIoThreads) {
      handle = latest.load(std::memory_order_acquire);
      if (handle == 0) continue;
      // Open or just closed: either a result or the closed-handle error.
      const std::int64_t pos = fs().ftello(handle);
      const std::size_t wrote = fs().fwrite("p", 1, handle);
      const std::size_t read = fs().fread(buf, sizeof(buf), handle);
      if (pos < -1 || wrote > 1 || read > sizeof(buf)) failures++;
    }
  });
  std::vector<std::uint64_t> handles;
  std::vector<int> fds;
  while (io_done.load(std::memory_order_acquire) < kIoThreads) {
    const auto h = fs().fopen("churn", "w+b");
    const int fd = fs().open("/dev/null", O_WRONLY);
    ASSERT_NE(h, 0u);
    ASSERT_GE(fd, 0);
    handles.push_back(h);
    fds.push_back(fd);
    latest.store(h, std::memory_order_release);
    EXPECT_EQ(fs().fwrite("churn", 5, h), 5u);
    EXPECT_EQ(fs().write(fd, "x", 1), 1);
    ASSERT_EQ(fs().fclose(h), 0);
    ASSERT_EQ(fs().close(fd), 0);
    char buf[1];
    EXPECT_EQ(fs().fread(buf, 1, h), 0u);
    EXPECT_EQ(fs().fwrite("x", 1, h), 0u);
    EXPECT_EQ(fs().fseeko(h, 0, SEEK_SET), -1);
    EXPECT_EQ(fs().ftello(h), -1);
    EXPECT_EQ(fs().fflush(h), EOF);
    EXPECT_EQ(fs().fclose(h), EOF);
    EXPECT_EQ(fs().write(fd, "x", 1), -1);
    EXPECT_EQ(fs().close(fd), -1);
  }
  threads.clear();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_FALSE(handles.empty());
  // Issued in increasing order, so no number repeats.
  for (std::size_t i = 1; i < handles.size(); ++i) {
    ASSERT_GT(handles[i], handles[i - 1]);
    ASSERT_GT(fds[i], fds[i - 1]);
  }
}

TEST_F(SimFsTest, EnclaveLibcRoundTripThroughSimulatedWorld) {
  SimConfig cfg;
  cfg.tes_cycles = 100;
  auto enclave = Enclave::create(cfg);
  EnclaveLibc libc(*enclave, IoMode::kSimulated);
  EXPECT_EQ(libc.io_mode(), IoMode::kSimulated);

  TFile f = libc.fopen("sim_file", "w+b");
  ASSERT_TRUE(f);
  const std::string data = "through the enclave boundary";
  EXPECT_EQ(f.write(data.data(), data.size()), data.size());
  EXPECT_EQ(f.seek(0, SEEK_SET), 0);
  std::vector<char> buf(data.size());
  EXPECT_EQ(f.read(buf.data(), buf.size()), buf.size());
  EXPECT_EQ(std::string(buf.begin(), buf.end()), data);
  f.close();
  EXPECT_TRUE(fs().exists("sim_file"));

  const int zfd = libc.open("/dev/zero", O_RDONLY);
  std::uint64_t word = 7;
  EXPECT_EQ(libc.read(zfd, &word, 8), 8);
  EXPECT_EQ(word, 0u);
  libc.close(zfd);
}

}  // namespace
}  // namespace zc
