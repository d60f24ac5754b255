#include "util/scratch.hpp"

#include <algorithm>
#include <bit>
#include <new>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sb::util {
namespace {

constexpr std::align_val_t kAlign{64};
constexpr std::size_t kPage = 4096;
// Per-bucket retention cap: bounds worst-case held memory per thread while
// keeping every steady-state working set (one block per live buffer) warm.
// The cap is in bytes — kMaxBucketBytes of free blocks, but never fewer than
// kMinPerBucket blocks — because the number of same-size buffers live at
// once grows as blocks shrink: a serving shard's pump holds one signature
// tensor per staged window (dozens of 8 KB blocks), where a training step
// holds a handful of multi-megabyte ones.
constexpr std::size_t kMaxBucketBytes = std::size_t{1} << 20;
constexpr std::size_t kMinPerBucket = 16;

// Requests are rounded up to a bucket so repeated similar-size acquires hit
// the same free list: powers of two up to a page, then page multiples (pow2
// rounding would waste up to 2x on multi-megabyte training tensors).
std::size_t bucket_bytes(std::size_t bytes) {
  if (bytes <= 64) return 64;
  if (bytes <= kPage) return std::bit_ceil(bytes);
  return (bytes + kPage - 1) / kPage * kPage;
}

void* heap_new(std::size_t bucket) {
  // Heap fetches are counted unconditionally: a flat ml.workspace.heap_allocs
  // over a steady-state window is the zero-allocation proof, so it must not
  // depend on tracing being enabled.
  static obs::Counter& heap_allocs =
      obs::Registry::instance().counter("ml.workspace.heap_allocs");
  heap_allocs.add();
  return ::operator new(bucket, kAlign);
}

void heap_delete(void* p) noexcept { ::operator delete(p, kAlign); }

// One free-list set per thread.  State tracking ("uninit"/"alive"/"dead")
// keeps teardown safe: pooled containers destroyed during process exit after
// this thread_local is gone fall back to plain heap frees, and nothing
// touches the metrics registry once teardown has begun.
enum class PoolState : unsigned char { kUninit, kAlive, kDead };
thread_local PoolState t_state = PoolState::kUninit;

struct Pool {
  std::unordered_map<std::size_t, std::vector<void*>> lists;

  Pool() { t_state = PoolState::kAlive; }
  ~Pool() {
    trim();
    t_state = PoolState::kDead;
  }
  void trim() noexcept {
    for (auto& [bucket, blocks] : lists)
      for (void* p : blocks) heap_delete(p);
    lists.clear();
  }
};

Pool& tls_pool() {
  thread_local Pool pool;
  return pool;
}

void count_acquire(bool hit) {
  if (!obs::enabled()) return;
  static obs::Counter& acquires =
      obs::Registry::instance().counter("ml.workspace.acquires");
  static obs::Counter& hits =
      obs::Registry::instance().counter("ml.workspace.pool_hits");
  acquires.add();
  if (hit) hits.add();
}

}  // namespace

namespace detail {

void* pool_acquire(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  const std::size_t bucket = bucket_bytes(bytes);
  if (t_state == PoolState::kUninit) (void)tls_pool();
  if (t_state != PoolState::kAlive) return ::operator new(bucket, kAlign);
  auto& blocks = tls_pool().lists[bucket];
  if (!blocks.empty()) {
    void* p = blocks.back();
    blocks.pop_back();
    count_acquire(true);
    return p;
  }
  count_acquire(false);
  return heap_new(bucket);
}

void pool_release(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  const std::size_t bucket = bucket_bytes(bytes);
  if (t_state != PoolState::kAlive) {
    heap_delete(p);
    return;
  }
  auto& blocks = tls_pool().lists[bucket];
  if (blocks.size() >= std::max(kMinPerBucket, kMaxBucketBytes / bucket)) {
    heap_delete(p);
    return;
  }
  blocks.push_back(p);
}

}  // namespace detail

void scratch_trim() noexcept {
  if (t_state == PoolState::kAlive) tls_pool().trim();
}

}  // namespace sb::util
