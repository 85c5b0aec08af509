#include "hdlts/util/arena.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <new>

namespace hdlts::util {

namespace {

std::size_t align_up(std::size_t offset, std::size_t align) {
  return (offset + align - 1) & ~(align - 1);
}

std::atomic<std::uint64_t> g_mapped_buffers{0};

}  // namespace

void UnmapBuffer::operator()(std::byte* buffer) const noexcept {
  ASAN_UNPOISON_MEMORY_REGION(buffer, bytes);
  ::munmap(buffer, bytes);
}

void ScratchArena::map_primary(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  g_mapped_buffers.fetch_add(1, std::memory_order_relaxed);
  buffer_.reset(static_cast<std::byte*>(p));
  buffer_.get_deleter().bytes = bytes;
  capacity_ = bytes;
  ASAN_POISON_MEMORY_REGION(p, bytes);
}

std::uint64_t ScratchArena::mapped_buffers() {
  return g_mapped_buffers.load(std::memory_order_relaxed);
}

ScratchArena::ScratchArena(std::size_t initial_bytes) {
  if (initial_bytes > 0) map_primary(initial_bytes);
}

void ScratchArena::reset() {
  if (!overflow_.empty()) {
    // The cycle spilled: regrow the primary buffer to the cycle's total
    // (with headroom) so the next cycle is contiguous and allocation-free.
    std::size_t total = capacity_;
    for (const Overflow& o : overflow_) total += o.size;
    total += total / 2;
    map_primary(total);
    overflow_.clear();
  } else if (buffer_) {
    ASAN_POISON_MEMORY_REGION(buffer_.get(), capacity_);
  }
  cursor_ = 0;
  used_ = 0;
}

void* ScratchArena::carve(std::size_t bytes, std::size_t align) {
  HDLTS_EXPECTS(align != 0 && (align & (align - 1)) == 0 &&
                align <= alignof(std::max_align_t));
  if (bytes == 0) bytes = 1;  // keep carves distinct
  // Try the primary buffer first.
  const std::size_t aligned = align_up(cursor_, align);
  if (aligned + bytes <= capacity_) {
    cursor_ = aligned + bytes;
    used_ += bytes;
    ASAN_UNPOISON_MEMORY_REGION(buffer_.get() + aligned, bytes);
    return buffer_.get() + aligned;
  }
  // Then the most recent overflow block.
  if (!overflow_.empty()) {
    Overflow& o = overflow_.back();
    const std::size_t oa = align_up(o.cursor, align);
    if (oa + bytes <= o.size) {
      o.cursor = oa + bytes;
      used_ += bytes;
      return o.block.get() + oa;
    }
  }
  // Grow: a fresh block sized to the larger of the request and the current
  // capacity (geometric growth across cycles; warm-up only).
  const std::size_t block_size =
      std::max({bytes + align, capacity_, std::size_t{4096}});
  Overflow o;
  o.block = std::make_unique<std::byte[]>(block_size);
  o.size = block_size;
  const std::size_t oa =
      align_up(reinterpret_cast<std::uintptr_t>(o.block.get()) % align == 0
                   ? std::size_t{0}
                   : align,
               align);
  o.cursor = oa + bytes;
  used_ += bytes;
  void* p = o.block.get() + oa;
  overflow_.push_back(std::move(o));
  return p;
}

}  // namespace hdlts::util
