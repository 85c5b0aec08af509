// Edge-case and oracle tests for the scheduler selection kernels
// (src/hdlts/simd/kernels.hpp): the NaN/inf/signed-zero/alive-mask corners
// the two-pass contract pins down, and random NaN-free rows against a
// sequential-scan oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "hdlts/simd/kernels.hpp"
#include "hdlts/util/rng.hpp"

namespace hdlts {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SimdKernels, ArgminEdgeCases) {
  const std::vector<double> plain = {3.0, 1.0, 2.0, 1.0};
  EXPECT_EQ(simd::argmin(plain.data(), plain.size()), 1u);  // tie -> first
  const std::vector<double> single = {7.5};
  EXPECT_EQ(simd::argmin(single.data(), 1), 0u);
  // NaN is never minimal; [NaN, +inf] must pick the +inf (the documented
  // two-pass semantics — a single-pass `<` scan would answer 0 here).
  const std::vector<double> nan_inf = {kNaN, kInf};
  EXPECT_EQ(simd::argmin(nan_inf.data(), nan_inf.size()), 1u);
  const std::vector<double> all_nan = {kNaN, kNaN, kNaN, kNaN, kNaN};
  EXPECT_EQ(simd::argmin(all_nan.data(), all_nan.size()), 0u);
  // Signed zeros compare equal: the first zero wins regardless of sign.
  const std::vector<double> zeros1 = {+0.0, -0.0, 1.0};
  EXPECT_EQ(simd::argmin(zeros1.data(), zeros1.size()), 0u);
  const std::vector<double> zeros2 = {1.0, -0.0, +0.0};
  EXPECT_EQ(simd::argmin(zeros2.data(), zeros2.size()), 1u);
  const std::vector<double> neg_inf = {0.0, -kInf, -kInf};
  EXPECT_EQ(simd::argmin(neg_inf.data(), neg_inf.size()), 1u);
  // NaN padding around the minimum at every position.
  for (std::size_t n = 1; n <= 12; ++n) {
    std::vector<double> row(n, kNaN);
    for (std::size_t at = 0; at < n; ++at) {
      row[at] = -1.0;
      EXPECT_EQ(simd::argmin(row.data(), n), at) << "n=" << n << " at=" << at;
      row[at] = kNaN;
    }
  }
}

TEST(SimdKernels, ArgminMaskedEdgeCases) {
  const std::vector<double> row = {0.5, 0.1, 0.2, 0.1, 9.0};
  const std::vector<unsigned char> all = {1, 1, 1, 1, 1};
  EXPECT_EQ(simd::argmin_masked(row.data(), all.data(), row.size()), 1u);
  // The global minimum is dead: the masked minimum must win.
  const std::vector<unsigned char> dead_min = {1, 0, 1, 0, 1};
  EXPECT_EQ(simd::argmin_masked(row.data(), dead_min.data(), row.size()), 2u);
  // Nothing alive -> n.
  const std::vector<unsigned char> none(5, 0);
  EXPECT_EQ(simd::argmin_masked(row.data(), none.data(), row.size()), 5u);
  // Every alive entry NaN -> first alive index.
  const std::vector<double> nans = {kNaN, kNaN, kNaN, kNaN};
  const std::vector<unsigned char> tail_alive = {0, 0, 1, 1};
  EXPECT_EQ(simd::argmin_masked(nans.data(), tail_alive.data(), nans.size()),
            2u);
  // A dead NaN must not poison the scan.
  const std::vector<double> mixed = {kNaN, 3.0, 2.0};
  const std::vector<unsigned char> live_tail = {0, 1, 1};
  EXPECT_EQ(simd::argmin_masked(mixed.data(), live_tail.data(), mixed.size()),
            2u);
}

TEST(SimdKernels, ArgmaxKeyEdgeCases) {
  const std::vector<double> pv = {1.0, 3.0, 3.0, 2.0};
  // Equal maxima resolve to the smallest key, wherever it sits.
  const std::vector<std::uint32_t> keys_fwd = {0, 7, 4, 9};
  EXPECT_EQ(simd::argmax_key(pv.data(), keys_fwd.data(), pv.size()), 2u);
  const std::vector<std::uint32_t> keys_rev = {0, 2, 5, 9};
  EXPECT_EQ(simd::argmax_key(pv.data(), keys_rev.data(), pv.size()), 1u);
  // NaN PVs never win; all-NaN -> 0.
  const std::vector<double> with_nan = {kNaN, 1.0, kNaN};
  const std::vector<std::uint32_t> keys3 = {5, 6, 7};
  EXPECT_EQ(simd::argmax_key(with_nan.data(), keys3.data(), with_nan.size()),
            1u);
  const std::vector<double> all_nan = {kNaN, kNaN, kNaN};
  EXPECT_EQ(simd::argmax_key(all_nan.data(), keys3.data(), all_nan.size()), 0u);
  const std::vector<double> one = {0.25};
  const std::vector<std::uint32_t> key1 = {11};
  EXPECT_EQ(simd::argmax_key(one.data(), key1.data(), 1), 0u);
}

/// First minimum of a strict-less sequential scan over the alive entries;
/// n when nothing is alive.
std::size_t oracle_argmin(const std::vector<double>& row,
                          const std::vector<unsigned char>& alive) {
  std::size_t best = row.size();
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (alive[i] == 0) continue;
    if (best == row.size() || row[i] < row[best]) best = i;
  }
  return best;
}

/// Highest PV, ties to the lower key (then to the earlier position).
std::size_t oracle_argmax_key(const std::vector<double>& pv,
                              const std::vector<std::uint32_t>& keys) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < pv.size(); ++i) {
    if (pv[i] > pv[best] || (pv[i] == pv[best] && keys[i] < keys[best])) {
      best = i;
    }
  }
  return best;
}

TEST(SimdKernels, RandomRowsMatchSequentialScanOracle) {
  util::Rng rng(0x51D0ULL);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t n = 1 + rng() % 67;
    std::vector<double> row(n);
    std::vector<unsigned char> alive(n);
    std::vector<std::uint32_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Coarse values so duplicates (and therefore tie-breaks) are common;
      // sprinkle ±inf. NaN rows are the edge-case tests' job.
      const std::uint64_t r = rng();
      row[i] = (r % 16 == 0) ? -kInf
                             : ((r % 16 == 1) ? kInf
                                              : static_cast<double>(r % 8));
      alive[i] = rng() % 3 != 0 ? 1 : 0;
      keys[i] = static_cast<std::uint32_t>(rng() % 97);
    }
    const std::vector<unsigned char> all(n, 1);
    EXPECT_EQ(simd::argmin(row.data(), n), oracle_argmin(row, all))
        << "iter " << iter;
    EXPECT_EQ(simd::argmin_masked(row.data(), alive.data(), n),
              oracle_argmin(row, alive))
        << "iter " << iter;
    EXPECT_EQ(simd::argmax_key(row.data(), keys.data(), n),
              oracle_argmax_key(row, keys))
        << "iter " << iter;
  }
}

TEST(SimdKernels, ActiveBackendIsScalar) {
  // servebench prints this name on its conditions line ("simd":"scalar").
  EXPECT_EQ(simd::active_backend(), "scalar");
}

}  // namespace
}  // namespace hdlts
