#include "sgx/tlibc_stdio.hpp"

#include <cstring>

namespace zc {

namespace {

// Byte counts come back from the untrusted host, which may lie (an Iago
// value): a count above the request would have the caller trust bytes it
// never asked for, so it becomes the call's error value instead.
std::int64_t checked_ssize(std::int64_t ret, std::uint64_t requested) {
  if (ret < -1) return -1;
  if (ret > 0 && static_cast<std::uint64_t>(ret) > requested) return -1;
  return ret;
}

std::size_t checked_size(std::uint64_t ret, std::uint64_t requested) {
  return ret <= requested ? ret : 0;
}

}  // namespace

int EnclaveLibc::open(const char* path, int flags, unsigned mode) {
  OpenArgs args;
  std::strncpy(args.path, path, sizeof(args.path) - 1);
  args.flags = flags;
  args.mode = mode;
  enclave_->ocall(ids_.open, args);
  return args.ret;
}

int EnclaveLibc::close(int fd) {
  CloseArgs args;
  args.fd = fd;
  enclave_->ocall(ids_.close, args);
  return args.ret;
}

std::int64_t EnclaveLibc::read(int fd, void* buf, std::size_t count) {
  ReadArgs args;
  args.fd = fd;
  args.count = count;
  enclave_->ocall_out(ids_.read, args, buf, count);
  return checked_ssize(args.ret, count);
}

std::int64_t EnclaveLibc::write(int fd, const void* buf, std::size_t count) {
  WriteArgs args;
  args.fd = fd;
  args.count = count;
  enclave_->ocall_in(ids_.write, args, buf, count);
  return checked_ssize(args.ret, count);
}

void EnclaveLibc::usleep(std::uint64_t usec) {
  UsleepArgs args;
  args.usec = usec;
  enclave_->ocall(ids_.usleep, args);
}

TFile EnclaveLibc::fopen(const char* path, const char* mode) {
  FopenArgs args;
  std::strncpy(args.path, path, sizeof(args.path) - 1);
  std::strncpy(args.mode, mode, sizeof(args.mode) - 1);
  enclave_->ocall(ids_.fopen, args);
  return TFile(this, args.handle);
}

TFile& TFile::operator=(TFile&& other) noexcept {
  if (this != &other) {
    if (handle_ != 0) close();
    libc_ = other.libc_;
    handle_ = other.handle_;
    other.libc_ = nullptr;
    other.handle_ = 0;
  }
  return *this;
}

TFile::~TFile() {
  if (handle_ != 0) close();
}

std::size_t TFile::read(void* buf, std::size_t size) {
  FreadArgs args;
  args.handle = handle_;
  args.size = size;
  libc_->enclave_->ocall_out(libc_->ids_.fread, args, buf, size);
  return checked_size(args.ret, size);
}

std::size_t TFile::write(const void* buf, std::size_t size) {
  FwriteArgs args;
  args.handle = handle_;
  args.size = size;
  libc_->enclave_->ocall_in(libc_->ids_.fwrite, args, buf, size);
  return checked_size(args.ret, size);
}

int TFile::seek(std::int64_t offset, int whence) {
  FseekoArgs args;
  args.handle = handle_;
  args.offset = offset;
  args.whence = whence;
  libc_->enclave_->ocall(libc_->ids_.fseeko, args);
  return args.ret;
}

std::int64_t TFile::tell() {
  FtelloArgs args;
  args.handle = handle_;
  libc_->enclave_->ocall(libc_->ids_.ftello, args);
  return args.ret;
}

int TFile::flush() {
  FflushArgs args;
  args.handle = handle_;
  libc_->enclave_->ocall(libc_->ids_.fflush, args);
  return args.ret;
}

int TFile::close() {
  if (handle_ == 0) return 0;
  FcloseArgs args;
  args.handle = handle_;
  libc_->enclave_->ocall(libc_->ids_.fclose, args);
  handle_ = 0;
  return args.ret;
}

}  // namespace zc
