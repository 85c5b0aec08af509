// Unit tests for hdlts/util: rng, stats, table, cli, env.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <vector>

#include "hdlts/util/cli.hpp"
#include "hdlts/util/env.hpp"
#include "hdlts/util/error.hpp"
#include "hdlts/util/rng.hpp"
#include "hdlts/util/stats.hpp"
#include "hdlts/util/table.hpp"

namespace hdlts::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.5);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ContractViolation);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(10);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(2, 6));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 2);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const auto x = rng.uniform_int(-5, -1);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, -1);
  }
}

TEST(Rng, UniformIntRejectsInvertedBounds) {
  Rng rng(13);
  EXPECT_THROW(rng.uniform_int(3, 2), ContractViolation);
}

TEST(Rng, UniformIntRoughlyUniform) {
  Rng rng(14);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 100);  // within 10% relative
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SplitIsIndependentButDeterministic) {
  Rng a(77);
  Rng b(77);
  Rng as = a.split();
  Rng bs = b.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(as(), bs());
}

TEST(DeriveSeed, OrderSensitive) {
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
  EXPECT_NE(derive_seed(0, 1), derive_seed(1, 0));
}

TEST(DeriveSeed, Deterministic) {
  EXPECT_EQ(derive_seed(42, 7, 9), derive_seed(42, 7, 9));
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev_sample(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance_population(), 4.0);
  EXPECT_NEAR(s.variance_sample(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-10, 10);
    all.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance_sample(), all.variance_sample(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Stats, SampleStddevMatchesPaperTrace) {
  // The PV cells of Table I only reproduce with the n-1 denominator: the
  // EFT vector of T6 at step 2 is [27, 32, 18] and the paper prints 7.0.
  const std::vector<double> eft{27, 32, 18};
  EXPECT_NEAR(stddev_sample(eft), 7.09, 0.01);
  EXPECT_NEAR(stddev_population(eft), 5.79, 0.01);
}

TEST(Stats, RangeAndDegenerateInputs) {
  const std::vector<double> xs{4.0, -1.0, 2.5};
  EXPECT_DOUBLE_EQ(range(xs), 5.0);
  EXPECT_DOUBLE_EQ(range({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev_sample(std::vector<double>{3.0}), 0.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, CsvEscaping) {
  Table t({"x", "y"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "multi\nline"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(),
            "x,y\nplain,\"has,comma\"\n\"has\"\"quote\",\"multi\nline\"\n");
}

TEST(Table, MarkdownAlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.write_markdown(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(text.find("| longer | 22 |"), std::string::npos);
}

TEST(Table, FmtFixedDigits) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--reps=30", "--verbose",
                        "positional"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.program(), "prog");
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0), 1.5);
  EXPECT_EQ(cli.get_int("reps", 0), 30);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_FALSE(cli.has("anything"));
  EXPECT_EQ(cli.get("k", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("k", 9), 9);
  EXPECT_FALSE(cli.get_bool("k", false));
}

TEST(Cli, RepeatedOptionsKeepEveryValueInOrder) {
  const char* argv[] = {"prog", "--fail=1@0.4", "--mode=a", "--fail=2@0.7",
                        "--fail=0@0.1"};
  Cli cli(5, argv);
  const auto fails = cli.get_all("fail");
  ASSERT_EQ(fails.size(), 3u);
  EXPECT_EQ(fails[0], "1@0.4");
  EXPECT_EQ(fails[1], "2@0.7");
  EXPECT_EQ(fails[2], "0@0.1");
  // Single-value accessors keep last-one-wins behaviour.
  EXPECT_EQ(cli.get("fail", ""), "0@0.1");
  EXPECT_TRUE(cli.get_all("absent").empty());
  ASSERT_EQ(cli.get_all("mode").size(), 1u);
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("n", 0), InvalidArgument);
  EXPECT_THROW(cli.get_double("n", 0), InvalidArgument);
  EXPECT_THROW(cli.get_bool("n", false), InvalidArgument);
}

TEST(Env, FallbacksAndParsing) {
  ::unsetenv("HDLTS_TEST_ENV");
  EXPECT_EQ(env_string("HDLTS_TEST_ENV", "d"), "d");
  EXPECT_EQ(env_int("HDLTS_TEST_ENV", 5), 5);
  ::setenv("HDLTS_TEST_ENV", "17", 1);
  EXPECT_EQ(env_int("HDLTS_TEST_ENV", 5), 17);
  ::setenv("HDLTS_TEST_ENV", "junk", 1);
  EXPECT_EQ(env_int("HDLTS_TEST_ENV", 5), 5);
  ::unsetenv("HDLTS_TEST_ENV");
}

TEST(Error, ContractMacrosThrow) {
  EXPECT_THROW(HDLTS_EXPECTS(false), ContractViolation);
  EXPECT_THROW(HDLTS_ENSURES(1 == 2), ContractViolation);
  EXPECT_NO_THROW(HDLTS_EXPECTS(true));
}

}  // namespace
}  // namespace hdlts::util
