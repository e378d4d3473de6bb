#include "common/pool.hpp"

#include <cstring>
#include <new>
#include <stdexcept>
#include <unordered_map>

namespace zc {

// The buffer is left uninitialised: a frame is read only where its caller
// marshalled into it, and a pool's frames carry stale bytes after its
// first reset anyway.  Zero-filling it cost every slotted backend a
// `queue` x 64 KB memset at set-up.
BumpPool::BumpPool(std::size_t capacity)
    : capacity_(capacity),
      buffer_(std::make_unique_for_overwrite<std::byte[]>(capacity)) {
  if (capacity == 0) throw std::invalid_argument("BumpPool capacity == 0");
}

void* BumpPool::allocate(std::size_t size, std::size_t align) noexcept {
  if (size == 0 || align == 0 || (align & (align - 1)) != 0) {
    ++failures_;
    return nullptr;
  }
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(buffer_.get());
  const std::uintptr_t cur = base + offset_;
  const std::uintptr_t aligned = (cur + align - 1) & ~(align - 1);
  const std::size_t new_offset = (aligned - base) + size;
  if (new_offset > capacity_) {
    ++failures_;
    return nullptr;
  }
  offset_ = new_offset;
  return reinterpret_cast<void*>(aligned);
}

void BumpPool::reset() noexcept {
  offset_ = 0;
  ++resets_;
}

bool BumpPool::owns(const void* p) const noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  return b >= buffer_.get() && b < buffer_.get() + capacity_;
}

// --- SlabPool ---------------------------------------------------------------

namespace {

constexpr std::uint32_t kSlabMagic = 0x51AB51ABu;
constexpr std::uint32_t kOversizeClass = 0xFFFFFFFFu;
constexpr unsigned kMaxClasses = 24;
constexpr std::size_t kMagazineCap = 8;

// Live-pool registry so thread-local magazines can safely return blocks to
// a pool they are no longer bound to (or drop them if the pool died —
// slab memory is owned by the pool, so dropping a stale pointer is a
// bounded reuse loss, never a leak or a dangling dereference).
std::mutex g_slab_registry_mu;
std::uint64_t g_slab_next_id = 1;

std::unordered_map<std::uint64_t, SlabPool*>& slab_registry() {
  static auto* m = new std::unordered_map<std::uint64_t, SlabPool*>();
  return *m;
}

std::uint64_t register_slab_pool(SlabPool* p) {
  std::lock_guard<std::mutex> lk(g_slab_registry_mu);
  const std::uint64_t id = g_slab_next_id++;
  slab_registry()[id] = p;
  return id;
}

}  // namespace

struct SlabPool::BlockHeader {
  std::uint64_t pool_id;
  std::uint32_t cls;
  std::uint32_t magic;
};

void SlabPool::SlabDeleter::operator()(std::byte* p) const noexcept {
  ::operator delete(p, std::align_val_t(kBlockAlign));
}

SlabPool::BlockHeader* SlabPool::header_of(void* payload) noexcept {
  return reinterpret_cast<BlockHeader*>(static_cast<std::byte*>(payload) -
                                        kBlockAlign);
}

/// Per-thread magazine cache.  Bound to one pool at a time (pool_id);
/// rebinding — and thread exit — flushes cached blocks back to the owning
/// pool's central lists when that pool is still alive.
struct SlabTlsCache {
  std::uint64_t pool_id = 0;
  std::vector<void*> mags[kMaxClasses];

  void flush() noexcept {
    if (pool_id == 0) return;
    std::lock_guard<std::mutex> reg(g_slab_registry_mu);
    auto it = slab_registry().find(pool_id);
    if (it != slab_registry().end()) {
      SlabPool* pool = it->second;
      std::lock_guard<std::mutex> lk(pool->mu_);
      for (unsigned c = 0; c < kMaxClasses; ++c) {
        for (void* p : mags[c]) pool->central_[c].push_back(p);
        mags[c].clear();
      }
    } else {
      for (auto& m : mags) m.clear();  // pool died; memory went with it
    }
    pool_id = 0;
  }

  ~SlabTlsCache() { flush(); }
};

namespace {

SlabTlsCache& slab_tls() {
  static thread_local SlabTlsCache cache;
  return cache;
}

}  // namespace

SlabPool::SlabPool(std::size_t max_block)
    : max_block_(max_block < kMinBlock ? kMinBlock : max_block),
      id_(register_slab_pool(this)) {
  std::size_t sz = kMinBlock;
  classes_ = 1;
  while (sz < max_block_ && classes_ < kMaxClasses) {
    sz <<= 1;
    ++classes_;
  }
  central_.resize(kMaxClasses);
}

SlabPool::~SlabPool() {
  // Unregister first so no magazine flush can target us mid-destruction.
  std::lock_guard<std::mutex> reg(g_slab_registry_mu);
  slab_registry().erase(id_);
}

void SlabPool::count_hit() noexcept {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (external_.hits) external_.hits->add();
}

void SlabPool::count_miss_grow() noexcept {
  misses_.fetch_add(1, std::memory_order_relaxed);
  grows_.fetch_add(1, std::memory_order_relaxed);
  if (external_.misses) external_.misses->add();
  if (external_.grows) external_.grows->add();
}

void* SlabPool::carve_locked(unsigned cls) {
  const std::size_t csize = class_size(cls);
  const std::size_t stride = kBlockAlign + csize;
  // Target ~1 MB slabs, at least 1 and at most 16 blocks per growth.
  std::size_t blocks = (std::size_t{1} << 20) / stride;
  if (blocks < 1) blocks = 1;
  if (blocks > 16) blocks = 16;
  const std::size_t bytes = stride * blocks;
  auto* raw = static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t(kBlockAlign)));
  slabs_.emplace_back(raw);
  slab_bytes_.push_back(bytes);
  for (std::size_t i = 0; i < blocks; ++i) {
    std::byte* payload = raw + i * stride + kBlockAlign;
    BlockHeader* h = header_of(payload);
    h->pool_id = id_;
    h->cls = cls;
    h->magic = kSlabMagic;
    if (i != 0) central_[cls].push_back(payload);
  }
  return raw + kBlockAlign;  // block 0 goes straight to the caller
}

void* SlabPool::allocate(std::size_t size) {
  // Pick the smallest class that fits.
  unsigned cls = 0;
  {
    std::size_t csize = kMinBlock;
    while (csize < size && cls + 1 < classes_) {
      csize <<= 1;
      ++cls;
    }
    if (csize < size) {
      // Oversize: dedicated allocation, freed (not cached) on free().
      auto* raw = static_cast<std::byte*>(
          ::operator new(kBlockAlign + size, std::align_val_t(kBlockAlign)));
      std::byte* payload = raw + kBlockAlign;
      BlockHeader* h = header_of(payload);
      h->pool_id = id_;
      h->cls = kOversizeClass;
      h->magic = kSlabMagic;
      count_miss_grow();
      return payload;
    }
  }

  SlabTlsCache& tls = slab_tls();
  if (tls.pool_id != id_) {
    tls.flush();
    tls.pool_id = id_;
  }
  auto& mag = tls.mags[cls];
  if (!mag.empty()) {
    void* p = mag.back();
    mag.pop_back();
    count_hit();
    return p;
  }

  std::lock_guard<std::mutex> lk(mu_);
  auto& freelist = central_[cls];
  if (freelist.empty()) {
    void* p = carve_locked(cls);
    count_miss_grow();
    return p;
  }
  void* p = freelist.back();
  freelist.pop_back();
  // Refill half a magazine while we hold the lock anyway.
  while (!freelist.empty() && mag.size() < kMagazineCap / 2) {
    mag.push_back(freelist.back());
    freelist.pop_back();
  }
  count_hit();
  return p;
}

void SlabPool::free(void* p) noexcept {
  if (p == nullptr) return;
  BlockHeader* h = header_of(p);
  if (h->magic != kSlabMagic) return;  // not ours; refuse to corrupt
  if (h->cls == kOversizeClass) {
    ::operator delete(static_cast<std::byte*>(p) - kBlockAlign,
                      std::align_val_t(kBlockAlign));
    return;
  }
  SlabTlsCache& tls = slab_tls();
  if (tls.pool_id == id_ && tls.mags[h->cls].size() < kMagazineCap) {
    tls.mags[h->cls].push_back(p);
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  central_[h->cls].push_back(p);
}

bool SlabPool::owns(const void* p) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto* b = static_cast<const std::byte*>(p);
  for (std::size_t i = 0; i < slabs_.size(); ++i) {
    if (b >= slabs_[i].get() && b < slabs_[i].get() + slab_bytes_[i]) {
      return true;
    }
  }
  return false;
}

}  // namespace zc
