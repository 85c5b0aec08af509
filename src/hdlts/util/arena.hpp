// Monotonic scratch arena for scheduler hot loops.
//
// A scheduler's per-call working set (ITQ rows, EFT matrices, PV reduction
// trees) has a size that is a pure function of the problem shape, so the
// allocations repeat identically call after call. ScratchArena turns them
// into bump-pointer carves from one reusable buffer: reset() rewinds the
// cursor, and once the buffer has grown to the per-call high-water mark no
// further heap allocation happens — the property the zero-allocation
// steady-state regression test (tests/alloc_test.cpp) pins for
// core::Hdlts::schedule_into.
//
// The primary buffer is mapped straight from the OS, not taken from the
// malloc heap: it lives as long as its scheduler, and inside the heap it
// ends up between short-lived per-request buffers, where its position
// decides how much freed heap stays resident. mapped_buffers() counts the
// maps so that the allocation checks still see every regrow; the short-lived
// overflow blocks stay on operator new. Under AddressSanitizer the part of
// the primary buffer the current cycle has not carved is poisoned.
//
// Carved memory is uninitialized; callers write before they read (the same
// contract a freshly reserve()d vector would not give). Only trivially
// copyable, trivially destructible element types are allowed — nothing is
// ever destroyed, the cursor just rewinds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "hdlts/util/error.hpp"

namespace hdlts::util {

/// Unmaps a ScratchArena primary buffer of `bytes`.
struct UnmapBuffer {
  std::size_t bytes = 0;
  void operator()(std::byte* buffer) const noexcept;
};

class ScratchArena {
 public:
  explicit ScratchArena(std::size_t initial_bytes = 0);

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;
  ScratchArena(ScratchArena&&) = default;
  ScratchArena& operator=(ScratchArena&&) = default;

  /// Rewinds the cursor. If the previous cycle overflowed into side blocks,
  /// the primary buffer is regrown to the cycle's total so the next cycle
  /// fits contiguously — this is the only place the arena allocates after
  /// construction, and it stops firing once the high-water mark stabilizes.
  void reset();

  /// Carves `count` elements of T (uninitialized). Alignment is taken from
  /// T. Never fails for reasonable sizes; grows the arena when needed.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ScratchArena holds only trivial element types");
    void* p = carve(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

  /// Bytes carved since the last reset().
  std::size_t used() const { return used_; }
  /// Capacity of the primary buffer.
  std::size_t capacity() const { return capacity_; }
  /// True when the current cycle spilled past the primary buffer (a
  /// steady-state cycle must keep this false).
  bool overflowed() const { return !overflow_.empty(); }

  /// Primary buffers mapped so far, process-wide.
  static std::uint64_t mapped_buffers();

 private:
  void* carve(std::size_t bytes, std::size_t align);
  /// Maps a fresh primary buffer of `bytes`, poisoned under ASan.
  void map_primary(std::size_t bytes);

  std::unique_ptr<std::byte[], UnmapBuffer> buffer_;
  std::size_t capacity_ = 0;
  std::size_t cursor_ = 0;  // offset into buffer_
  std::size_t used_ = 0;    // total carved this cycle (all blocks)
  // Overflow blocks carved when the primary buffer runs out; folded into a
  // bigger primary buffer on the next reset().
  struct Overflow {
    std::unique_ptr<std::byte[]> block;
    std::size_t size = 0;
    std::size_t cursor = 0;
  };
  std::vector<Overflow> overflow_;
};

}  // namespace hdlts::util
