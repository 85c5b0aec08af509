// Keep these bodies boring — two passes, exact comparisons, no clever
// short-circuits: the NaN and tie-break rules in kernels.hpp are what the
// reference ITQ is compared against.
#include "hdlts/simd/kernels.hpp"

#include <limits>

namespace hdlts::simd {

std::size_t argmin(const double* row, std::size_t n) {
  double m = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (row[i] < m) m = row[i];  // NaN never passes strict-less
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (row[i] == m) return i;
  }
  return 0;  // all NaN
}

std::size_t argmin_masked(const double* row, const unsigned char* alive,
                          std::size_t n) {
  double m = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i] != 0 && row[i] < m) m = row[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i] != 0 && row[i] == m) return i;
  }
  for (std::size_t i = 0; i < n; ++i) {  // alive but all NaN
    if (alive[i] != 0) return i;
  }
  return n;  // nothing alive
}

std::size_t argmax_key(const double* pv, const std::uint32_t* key,
                       std::size_t n) {
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (pv[i] > m) m = pv[i];
  }
  std::size_t best = n;
  std::uint32_t best_key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pv[i] == m && (best == n || key[i] < best_key)) {
      best = i;
      best_key = key[i];
    }
  }
  return best == n ? 0 : best;  // all NaN
}

std::string_view active_backend() { return "scalar"; }

}  // namespace hdlts::simd
