// The selection kernels of the scheduler hot loops: the min-EFT argmin over
// a processor row (HEFT, core::ItqEngine) and the max-PV selection sweep
// over the ITQ (core::ItqEngine).
//
// Contract: each kernel is a two-pass scan — reduce to the extremum, then
// resolve the index/key tie-break by exact equality — so NaN entries never
// win and ties resolve the same way wherever they sit. On the NaN-free rows
// real problems produce this equals the classic sequential strict-less
// sweep; core::ReferenceItq is compared against exactly these rules
// (tests/simd_test.cpp pins the NaN/inf/signed-zero edge cases).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hdlts::simd {

/// Index of the first occurrence of the row minimum (strict-less; ties go
/// to the lowest index). NaN entries are never minimal; an all-NaN row
/// returns 0. n >= 1. On NaN-free rows this equals the classic
/// `if (row[i] < row[best]) best = i` sweep.
std::size_t argmin(const double* row, std::size_t n);

/// argmin restricted to entries with alive[i] != 0. Returns the first
/// alive index holding the masked minimum; if every alive entry is NaN,
/// the first alive index; if nothing is alive, n.
std::size_t argmin_masked(const double* row, const unsigned char* alive,
                          std::size_t n);

/// Index of the entry maximizing pv, ties broken toward the smallest key
/// (the HDLTS "highest PV wins, ties to the lower task id" rule, which is
/// order-independent by construction). NaN PVs never win; an all-NaN
/// array returns 0. n >= 1.
std::size_t argmax_key(const double* pv, const std::uint32_t* key,
                       std::size_t n);

/// Always "scalar": the one implementation above. Kept for tools that
/// print the kernel backend on their conditions line.
std::string_view active_backend();

}  // namespace hdlts::simd
