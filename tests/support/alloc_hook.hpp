// Global operator-new/delete interposer that counts heap allocations.
// Linked ONLY into test and benchmark binaries (hdlts_alloc_hook static
// library) — the shipped libraries never pay for the counters.
//
// Usage:
//   const auto before = tests::alloc_counters();
//   <code under test>
//   const auto after = tests::alloc_counters();
//   EXPECT_EQ(after.allocations, before.allocations);
//
// The counters are relaxed atomics: cheap, async-signal-unsafe-free, and
// exact in single-threaded sections (which is how the zero-allocation
// regression test uses them).
#pragma once

#include <cstddef>
#include <cstdint>

namespace hdlts::tests {

struct AllocCounters {
  /// operator new calls plus util::ScratchArena primary-buffer maps
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;        ///< operator delete calls
  std::uint64_t bytes = 0;        ///< total bytes requested via operator new
};

/// Snapshot of the process-wide counters.
AllocCounters alloc_counters();

}  // namespace hdlts::tests
