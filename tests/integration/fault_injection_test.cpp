// Failure injection: a flaky untrusted world (short reads, failed writes)
// must surface as clean application-level errors — never corruption, hangs
// or crashes — regardless of the installed switchless backend.
#include <gtest/gtest.h>

#include "apps/crypto/file_crypto.hpp"
#include "apps/kissdb/kissdb.hpp"
#include "apps/lmbench/lat_syscall.hpp"
#include "core/backend_registry.hpp"
#include "core/zc_async.hpp"
#include "core/zc_backend.hpp"
#include "sgx/sim_fs.hpp"

#include <fcntl.h>

namespace zc {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimFs::instance().clear();
    SimFs::instance().set_syscall_cycles(0);
    SimConfig cfg;
    cfg.tes_cycles = 100;
    enclave_ = Enclave::create(cfg);
    libc_ = std::make_unique<EnclaveLibc>(*enclave_, IoMode::kSimulated);
  }
  void TearDown() override {
    SimFs::instance().clear();
    SimFs::instance().set_syscall_cycles(250);
  }

  void use_zc() {
    ZcConfig cfg;
    cfg.scheduler_enabled = false;
    cfg.with_initial_workers(2);
    enclave_->set_backend(std::make_unique<ZcBackend>(*enclave_, cfg));
  }

  ZcAsyncBackend* use_zc_async(unsigned queue = 8) {
    ZcAsyncConfig cfg;
    cfg.workers = 2;
    cfg.queue = queue;
    auto backend = make_zc_async_backend(*enclave_, cfg);
    auto* raw = backend.get();
    enclave_->set_backend(std::move(backend));
    return raw;
  }

  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<EnclaveLibc> libc_;
};

TEST_F(FaultInjectionTest, InjectionCounterDrains) {
  SimFs::instance().fail_next_ops(3);
  EXPECT_EQ(SimFs::instance().pending_failures(), 3u);
  const int fd = libc_->open("/dev/zero", O_RDONLY);
  std::uint64_t word = 0;
  EXPECT_EQ(libc_->read(fd, &word, 8), -1);
  EXPECT_EQ(libc_->read(fd, &word, 8), -1);
  EXPECT_EQ(libc_->read(fd, &word, 8), -1);
  EXPECT_EQ(SimFs::instance().pending_failures(), 0u);
  EXPECT_EQ(libc_->read(fd, &word, 8), 8);  // recovered
  libc_->close(fd);
}

TEST_F(FaultInjectionTest, KissdbPutReportsIoError) {
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 1;
  std::uint64_t value = 2;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);

  SimFs::instance().fail_next_ops(1);  // next fwrite fails
  key = 3;
  EXPECT_EQ(db.put(&key, &value), app::KissDB::kErrorIo);

  // The store recovers once the fault clears and old data is intact.
  std::uint64_t out = 0;
  key = 1;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kOk);
  EXPECT_EQ(out, 2u);
}

TEST_F(FaultInjectionTest, KissdbGetReportsMalformedOnShortRead) {
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 7;
  std::uint64_t value = 8;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  SimFs::instance().fail_next_ops(1);  // the key fread comes back short
  std::uint64_t out = 0;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kErrorMalformed);
}

TEST_F(FaultInjectionTest, EncryptFailsCleanlyMidStream) {
  // 64 KiB plaintext via the sim world.
  {
    TFile f = libc_->fopen("plain", "wb");
    std::vector<char> data(64 * 1024, 'p');
    ASSERT_EQ(f.write(data.data(), data.size()), data.size());
  }
  std::uint8_t key[32] = {1};
  std::uint8_t iv[16] = {2};
  const auto warm = app::encrypt_file(*libc_, "plain", "out", key, iv, 4096);
  ASSERT_TRUE(warm.ok);

  // A failing stream (the fread comes back short AND the subsequent final
  // fwrite fails) must abort with ok == false, not fabricate output.
  SimFs::instance().fail_next_ops(4);
  const auto enc = app::encrypt_file(*libc_, "plain", "out2", key, iv, 4096);
  EXPECT_FALSE(enc.ok);
}

TEST_F(FaultInjectionTest, DecryptFailsCleanlyOnShortRead) {
  {
    TFile f = libc_->fopen("plain", "wb");
    std::vector<char> data(32 * 1024, 'q');
    ASSERT_EQ(f.write(data.data(), data.size()), data.size());
  }
  std::uint8_t key[32] = {1};
  std::uint8_t iv[16] = {2};
  ASSERT_TRUE(app::encrypt_file(*libc_, "plain", "cipher", key, iv, 4096).ok);
  SimFs::instance().fail_next_ops(2);
  const auto dec = app::decrypt_file(*libc_, "cipher", "", key, iv, 4096);
  EXPECT_FALSE(dec.ok);
}

TEST_F(FaultInjectionTest, LmbenchLoopsStopOnFailure) {
  const int fd = libc_->open("/dev/zero", O_RDONLY);
  ASSERT_GE(fd, 0);
  SimFs::instance().fail_next_ops(1);
  // The loop detects the failed op and returns how far it got.
  EXPECT_EQ(app::read_words(*libc_, fd, 10), 0u);
  EXPECT_EQ(app::read_words(*libc_, fd, 10), 10u);
  libc_->close(fd);
}

TEST_F(FaultInjectionTest, FaultsBehaveTheSameUnderSwitchlessWorkers) {
  use_zc();
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 1;
  std::uint64_t value = 2;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  SimFs::instance().fail_next_ops(1);
  key = 3;
  // The failure surfaces identically even though a worker ran the ocall.
  EXPECT_EQ(db.put(&key, &value), app::KissDB::kErrorIo);
  std::uint64_t out = 0;
  key = 1;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kOk);
  EXPECT_EQ(out, 2u);
}

TEST_F(FaultInjectionTest, FaultsBehaveTheSameUnderStolenCalls) {
  // One worker per shard: kissdb's ocalls are routinely stolen across
  // shards, and an injected fault must surface at exactly the stolen call
  // that drew it — never smear, never crash.
  install_backend_spec(*enclave_,
                       "zc_sharded:shards=2;workers=1;scheduler=off;"
                       "policy=least_loaded;steal=on");
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 1;
  std::uint64_t value = 2;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  SimFs::instance().fail_next_ops(1);
  key = 3;
  EXPECT_EQ(db.put(&key, &value), app::KissDB::kErrorIo);
  std::uint64_t out = 0;
  key = 1;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kOk);
  EXPECT_EQ(out, 2u);
}

TEST_F(FaultInjectionTest, FaultsBehaveTheSameUnderWindowFlushedBatches) {
  // The failing op executes inside a worker's batch sweep flushed by the
  // window (or eagerly, once the worker has learned to): the error must
  // still reach the right caller, and the store must recover once the
  // fault clears.
  install_backend_spec(*enclave_,
                       "zc_batched:workers=1;batch=2;flush_us=2000");
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 1;
  std::uint64_t value = 2;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  SimFs::instance().fail_next_ops(1);
  key = 3;
  EXPECT_EQ(db.put(&key, &value), app::KissDB::kErrorIo);
  std::uint64_t out = 0;
  key = 1;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kOk);
  EXPECT_EQ(out, 2u);
}

TEST_F(FaultInjectionTest, FaultsBehaveTheSameUnderComposedBatchedShards) {
  // A composed plane (batched buffers inside a stealing router): the
  // injected fault executes inside some shard's batch sweep, possibly on a
  // stolen call, and must still surface at exactly the caller that drew it.
  install_backend_spec(
      *enclave_,
      "zc_sharded:shards=2;steal=on;"
      "inner=(zc_batched:workers=1;batch=2;flush_us=50)");
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 1;
  std::uint64_t value = 2;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  SimFs::instance().fail_next_ops(1);
  key = 3;
  EXPECT_EQ(db.put(&key, &value), app::KissDB::kErrorIo);
  std::uint64_t out = 0;
  key = 1;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kOk);
  EXPECT_EQ(out, 2u);
}

TEST_F(FaultInjectionTest, FaultsBehaveTheSameUnderComposedAsyncShards) {
  install_backend_spec(
      *enclave_, "zc_sharded:shards=2;inner=(zc_async:workers=1;queue=4)");
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 1;
  std::uint64_t value = 2;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  SimFs::instance().fail_next_ops(1);
  key = 3;
  EXPECT_EQ(db.put(&key, &value), app::KissDB::kErrorIo);
  std::uint64_t out = 0;
  key = 1;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kOk);
  EXPECT_EQ(out, 2u);
}

TEST_F(FaultInjectionTest, FaultsBehaveTheSameUnderFutexSleepingCallers) {
  // The failing op's error must reach a caller that slept in the kernel
  // (wait=futex, spin_us=0) exactly as it reaches a spinning one.
  install_backend_spec(
      *enclave_, "zc:wait=futex;spin_us=0;scheduler=off;workers=2");
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 1;
  std::uint64_t value = 2;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  SimFs::instance().fail_next_ops(1);
  key = 3;
  EXPECT_EQ(db.put(&key, &value), app::KissDB::kErrorIo);
  std::uint64_t out = 0;
  key = 1;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kOk);
  EXPECT_EQ(out, 2u);
}

TEST_F(FaultInjectionTest, FaultsBehaveTheSameUnderSleepingBatchedCallers) {
  // The failing op is flushed to a publisher asleep on its slot's gate:
  // the error must still surface at exactly the caller that drew it, and
  // the store must recover once the fault clears.
  install_backend_spec(*enclave_,
                       "zc_batched:workers=1;batch=2;flush_us=50;wait=futex;"
                       "spin_us=0");
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 1;
  std::uint64_t value = 2;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  SimFs::instance().fail_next_ops(1);
  key = 3;
  EXPECT_EQ(db.put(&key, &value), app::KissDB::kErrorIo);
  std::uint64_t out = 0;
  key = 1;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kOk);
  EXPECT_EQ(out, 2u);
}

TEST_F(FaultInjectionTest, FaultsBehaveTheSameUnderAsyncWorkers) {
  use_zc_async();
  app::KissDB db;
  ASSERT_EQ(db.open(*libc_, "faulty.db", {}), app::KissDB::kOk);
  std::uint64_t key = 1;
  std::uint64_t value = 2;
  ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  SimFs::instance().fail_next_ops(1);
  key = 3;
  // The failure surfaces identically through the submit()+wait() path.
  EXPECT_EQ(db.put(&key, &value), app::KissDB::kErrorIo);
  std::uint64_t out = 0;
  key = 1;
  EXPECT_EQ(db.get(&key, &out), app::KissDB::kOk);
  EXPECT_EQ(out, 2u);
}

TEST_F(FaultInjectionTest, InjectedFaultSurfacesAtTheFuture) {
  // The failed read's -1 must reach the caller at wait() time, on the
  // right future, with concurrently submitted calls unaffected.
  auto* backend = use_zc_async();
  const int fd = libc_->open("/dev/zero", O_RDONLY);
  ASSERT_GE(fd, 0);
  const auto read_id = enclave_->ocalls().find("read");
  ASSERT_TRUE(read_id.has_value());

  SimFs::instance().fail_next_ops(1);  // exactly one faulty op
  ReadArgs first;
  first.fd = fd;
  first.count = 8;
  std::uint64_t first_word = 0;
  CallDesc first_desc;
  first_desc.fn_id = *read_id;
  first_desc.args = &first;
  first_desc.args_size = sizeof(first);
  first_desc.out_payload = &first_word;
  first_desc.out_size = 8;
  CallFuture first_future = backend->submit(first_desc);

  ReadArgs second;
  second.fd = fd;
  second.count = 8;
  std::uint64_t second_word = 0;
  CallDesc second_desc = first_desc;
  second_desc.args = &second;
  second_desc.out_payload = &second_word;
  CallFuture second_future = backend->submit(second_desc);

  first_future.wait();
  second_future.wait();
  // Exactly one of the two reads drew the injected fault; the other
  // succeeded and delivered its word — the error never smears across
  // futures (which read fails depends on worker scheduling).
  EXPECT_EQ(SimFs::instance().pending_failures(), 0u);
  const int failures = (first.ret == -1 ? 1 : 0) + (second.ret == -1 ? 1 : 0);
  EXPECT_EQ(failures, 1);
  EXPECT_EQ((first.ret == -1 ? second.ret : first.ret), 8);
  libc_->close(fd);
}

}  // namespace
}  // namespace zc
