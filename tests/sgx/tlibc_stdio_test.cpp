#include "sgx/tlibc_stdio.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include <unistd.h>

#include "sgx/arena.hpp"

#include <filesystem>
#include <string>
#include <vector>

namespace zc {
namespace {

class TlibcStdioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig cfg;
    cfg.tes_cycles = 500;
    enclave_ = Enclave::create(cfg);
    libc_ = std::make_unique<EnclaveLibc>(*enclave_);
    tmp_ = testutil::unique_tmp_path("zc_stdio");
  }
  void TearDown() override { std::filesystem::remove(tmp_); }

  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<EnclaveLibc> libc_;
  std::filesystem::path tmp_;
};

TEST_F(TlibcStdioTest, PosixReadWrite) {
  const int wfd = libc_->open("/dev/null", O_WRONLY);
  ASSERT_GE(wfd, 0);
  const std::uint64_t word = 1;
  EXPECT_EQ(libc_->write(wfd, &word, sizeof(word)),
            static_cast<std::int64_t>(sizeof(word)));
  EXPECT_EQ(libc_->close(wfd), 0);

  const int rfd = libc_->open("/dev/zero", O_RDONLY);
  ASSERT_GE(rfd, 0);
  std::uint64_t in = 99;
  EXPECT_EQ(libc_->read(rfd, &in, sizeof(in)),
            static_cast<std::int64_t>(sizeof(in)));
  EXPECT_EQ(in, 0u);
  EXPECT_EQ(libc_->close(rfd), 0);
}

TEST_F(TlibcStdioTest, EveryStdioOpIsAnOcall) {
  const std::uint64_t before = enclave_->transitions().eexit_count();
  TFile f = libc_->fopen(tmp_.c_str(), "w+b");
  ASSERT_TRUE(f);
  f.write("abc", 3);
  f.seek(0, SEEK_SET);
  char buf[3];
  f.read(buf, 3);
  f.close();
  // fopen + fwrite + fseeko + fread + fclose = 5 ocalls.
  EXPECT_EQ(enclave_->transitions().eexit_count() - before, 5u);
}

TEST_F(TlibcStdioTest, FopenFailureIsFalsy) {
  TFile f = libc_->fopen("/nonexistent/file", "rb");
  EXPECT_FALSE(f);
}

TEST_F(TlibcStdioTest, WriteSeekReadRoundTrip) {
  TFile f = libc_->fopen(tmp_.c_str(), "w+b");
  ASSERT_TRUE(f);
  const std::string data = "the quick brown fox";
  EXPECT_EQ(f.write(data.data(), data.size()), data.size());
  EXPECT_EQ(f.tell(), static_cast<std::int64_t>(data.size()));
  EXPECT_EQ(f.seek(4, SEEK_SET), 0);
  std::vector<char> buf(5);
  EXPECT_EQ(f.read(buf.data(), buf.size()), buf.size());
  EXPECT_EQ(std::string(buf.begin(), buf.end()), "quick");
}

TEST_F(TlibcStdioTest, SeekEndAndTellReportSize) {
  TFile f = libc_->fopen(tmp_.c_str(), "w+b");
  ASSERT_TRUE(f);
  f.write("12345678", 8);
  EXPECT_EQ(f.seek(0, SEEK_END), 0);
  EXPECT_EQ(f.tell(), 8);
}

TEST_F(TlibcStdioTest, CloseIsIdempotent) {
  TFile f = libc_->fopen(tmp_.c_str(), "wb");
  ASSERT_TRUE(f);
  EXPECT_EQ(f.close(), 0);
  EXPECT_EQ(f.close(), 0);  // second close is a no-op
  EXPECT_FALSE(f);
}

TEST_F(TlibcStdioTest, DestructorClosesFile) {
  const std::uint64_t before = enclave_->transitions().eexit_count();
  {
    TFile f = libc_->fopen(tmp_.c_str(), "wb");
    ASSERT_TRUE(f);
  }
  // fopen + destructor's fclose.
  EXPECT_EQ(enclave_->transitions().eexit_count() - before, 2u);
}

TEST_F(TlibcStdioTest, MoveTransfersOwnership) {
  TFile a = libc_->fopen(tmp_.c_str(), "wb");
  ASSERT_TRUE(a);
  TFile b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): checking moved-from
  EXPECT_TRUE(b);
  EXPECT_EQ(b.write("x", 1), 1u);
}

TEST_F(TlibcStdioTest, MoveAssignClosesPrevious) {
  const auto tmp2 = tmp_.string() + ".second";
  TFile a = libc_->fopen(tmp_.c_str(), "wb");
  TFile b = libc_->fopen(tmp2.c_str(), "wb");
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  a = std::move(b);
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  a.close();
  std::filesystem::remove(tmp2);
}

TEST_F(TlibcStdioTest, FlushSucceedsOnOpenFile) {
  TFile f = libc_->fopen(tmp_.c_str(), "wb");
  ASSERT_TRUE(f);
  f.write("data", 4);
  EXPECT_EQ(f.flush(), 0);
}

TEST_F(TlibcStdioTest, LargePayloadRoundTrip) {
  // Forces the scratch arena to grow beyond its initial reservation.
  const std::size_t n = 1 << 20;
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i);
  TFile f = libc_->fopen(tmp_.c_str(), "w+b");
  ASSERT_TRUE(f);
  ASSERT_EQ(f.write(out.data(), n), n);
  ASSERT_EQ(f.seek(0, SEEK_SET), 0);
  std::vector<std::uint8_t> in(n, 0);
  ASSERT_EQ(f.read(in.data(), n), n);
  EXPECT_EQ(in, out);
}

// A host that lies about byte counts: it runs each ocall for real, then
// overwrites the frame's return slot on the four count-returning calls
// with `reported` before the trusted side unmarshals it.
class HostileCountBackend final : public CallBackend {
 public:
  HostileCountBackend(Enclave& enclave, StdOcallIds ids, std::int64_t reported)
      : enclave_(enclave), ids_(ids), reported_(reported) {}

  CallPath invoke(const CallDesc& desc) override {
    void* mem = ScratchArena::for_current_thread().acquire(frame_bytes(desc));
    MarshalledCall call = marshal_into(mem, desc);
    enclave_.ocalls().dispatch(desc.fn_id, call);
    if (desc.fn_id == ids_.read) {
      static_cast<ReadArgs*>(call.args)->ret = reported_;
    } else if (desc.fn_id == ids_.write) {
      static_cast<WriteArgs*>(call.args)->ret = reported_;
    } else if (desc.fn_id == ids_.fread) {
      static_cast<FreadArgs*>(call.args)->ret =
          static_cast<std::uint64_t>(reported_);
    } else if (desc.fn_id == ids_.fwrite) {
      static_cast<FwriteArgs*>(call.args)->ret =
          static_cast<std::uint64_t>(reported_);
    }
    unmarshal_from(call, desc);
    stats_.regular_calls.add();
    return CallPath::kRegular;
  }
  const char* name() const noexcept override { return "hostile_count"; }

 private:
  Enclave& enclave_;
  StdOcallIds ids_;
  std::int64_t reported_;
};

TEST_F(TlibcStdioTest, HostCountsAboveTheRequestAreRejected) {
  // Every wrapper asks for 8 bytes; the host claims 9.  read/write report
  // an error (-1), fread/fwrite report nothing transferred (0).
  const std::uint64_t word = 7;
  std::uint64_t in = 0;
  TFile f = libc_->fopen(tmp_.c_str(), "w+b");
  ASSERT_TRUE(f);
  const int wfd = libc_->open("/dev/null", O_WRONLY);
  const int rfd = libc_->open("/dev/zero", O_RDONLY);
  ASSERT_GE(wfd, 0);
  ASSERT_GE(rfd, 0);

  enclave_->set_backend(std::make_unique<HostileCountBackend>(
      *enclave_, libc_->ids(), sizeof(word) + 1));
  EXPECT_EQ(libc_->write(wfd, &word, sizeof(word)), -1);
  EXPECT_EQ(libc_->read(rfd, &in, sizeof(in)), -1);
  EXPECT_EQ(f.write(&word, sizeof(word)), 0u);
  EXPECT_EQ(f.seek(0, SEEK_SET), 0);
  EXPECT_EQ(f.read(&in, sizeof(in)), 0u);

  // A count equal to the request passes through unchanged.
  enclave_->set_backend(std::make_unique<HostileCountBackend>(
      *enclave_, libc_->ids(), sizeof(word)));
  EXPECT_EQ(libc_->write(wfd, &word, sizeof(word)),
            static_cast<std::int64_t>(sizeof(word)));
  EXPECT_EQ(libc_->read(rfd, &in, sizeof(in)),
            static_cast<std::int64_t>(sizeof(in)));
  EXPECT_EQ(f.write(&word, sizeof(word)), sizeof(word));

  // read(2)/write(2) return -1 for every error: other negatives are lies.
  enclave_->set_backend(
      std::make_unique<HostileCountBackend>(*enclave_, libc_->ids(), -5));
  EXPECT_EQ(libc_->write(wfd, &word, sizeof(word)), -1);
  EXPECT_EQ(libc_->read(rfd, &in, sizeof(in)), -1);

  enclave_->set_backend(nullptr);
  f.close();
  EXPECT_EQ(libc_->close(wfd), 0);
  EXPECT_EQ(libc_->close(rfd), 0);
}

}  // namespace
}  // namespace zc
