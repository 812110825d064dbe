#include "heap.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap {
namespace {

// Relaxed atomics: the simulation is single-threaded, but the C++ runtime
// may allocate from other threads, and the counters must stay race-free.
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc(void* p) {
  const std::uint64_t size = malloc_usable_size(p);
  const std::uint64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void counted_free(void* p) {
  note_free(p);
  std::free(p);
}

}  // namespace

std::uint64_t live_bytes() { return g_live.load(std::memory_order_relaxed); }

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

void reset_peak() { g_peak.store(live_bytes(), std::memory_order_relaxed); }

std::uint64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace perfbench::heap

// The replaceable global allocation functions.  The array, nothrow and
// sized forms of the standard library forward to these.
void* operator new(std::size_t size) {
  return perfbench::heap::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::heap::counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { perfbench::heap::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::heap::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::heap::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::heap::counted_free(p);
}
