// Unit tests for hdlts/util: rng, stats, thread pool, table, cli, env.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "hdlts/util/cli.hpp"
#include "hdlts/util/env.hpp"
#include "hdlts/util/error.hpp"
#include "hdlts/util/rng.hpp"
#include "hdlts/util/stats.hpp"
#include "hdlts/util/table.hpp"
#include "hdlts/util/thread_pool.hpp"

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

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ManySmallSubmissions) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int i = 0; i < 500; ++i) {
    pool.submit([&sum] { sum.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 500);
}

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForChunkedCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  std::atomic<int> chunks{0};
  parallel_for_chunked(pool, hits.size(),
                       [&](std::size_t begin, std::size_t end) {
                         EXPECT_LT(begin, end);
                         chunks.fetch_add(1);
                         for (std::size_t i = begin; i < end; ++i) {
                           hits[i].fetch_add(1);
                         }
                       });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Chunking bounds queue churn: no more chunks than 4x the worker count.
  EXPECT_LE(chunks.load(), static_cast<int>(pool.size() * 4));
}

TEST(ThreadPool, ConcurrentSubmittersAreSafe) {
  // Multiple producer threads race pool.submit against the workers — the
  // shape the CI ThreadSanitizer job checks for queue races.
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        pool.submit([&sum] { sum.fetch_add(1); });
      }
    });
  }
  for (auto& p : producers) p.join();
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 400);
}

TEST(ThreadPool, ParallelForChunkedZeroCountAndShortRanges) {
  ThreadPool pool(4);
  parallel_for_chunked(pool, 0, [](std::size_t, std::size_t) { FAIL(); });
  // Fewer items than the pool has chunks: every chunk is still non-empty
  // and the chunks still tile the range exactly once.
  for (const std::size_t count : {1u, 2u, 3u, 5u}) {
    std::vector<std::atomic<int>> hits(count);
    std::atomic<std::size_t> calls{0};
    parallel_for_chunked(pool, count, [&](std::size_t begin, std::size_t end) {
      EXPECT_LT(begin, end);
      EXPECT_LE(end, count);
      calls.fetch_add(1);
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "count " << count;
    EXPECT_LE(calls.load(), count);
  }
}

TEST(ThreadPool, PoolOfOneRunsEveryChunkOnItsWorker) {
  // A one-worker pool degenerates to serial execution on that worker; back
  // to back calls through it must not drift.
  ThreadPool pool(1);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<int> hits(101, 0);  // one worker: no atomics needed
    std::set<std::thread::id> runners;
    int chunks = 0;
    parallel_for_chunked(pool, hits.size(),
                         [&](std::size_t begin, std::size_t end) {
                           runners.insert(std::this_thread::get_id());
                           ++chunks;
                           for (std::size_t i = begin; i < end; ++i) ++hits[i];
                         });
    for (const int h : hits) EXPECT_EQ(h, 1) << "rep " << rep;
    EXPECT_EQ(runners.size(), 1u);
    EXPECT_LE(chunks, 4);
  }
}

TEST(ThreadPool, ParallelForBackToBackAndInterleavedWithSubmit) {
  // Queued tasks and parallel_for chunks share one queue; neither may lose
  // or repeat work of the other.
  ThreadPool pool(3);
  std::atomic<int> task_sum{0};
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 5; ++i) {
      pool.submit([&task_sum] { task_sum.fetch_add(1); });
    }
    std::vector<std::atomic<int>> hits(97);
    parallel_for(pool, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
  pool.wait_idle();
  EXPECT_EQ(task_sum.load(), 250);
}

TEST(ThreadPool, ParallelForFromConcurrentCallersCompletesEachRange) {
  // Several threads drive one pool at once: each call still returns only
  // after its own whole range has run.
  ThreadPool pool(2);
  std::atomic<long> grand{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<long> local{0};
        parallel_for_chunked(pool, 64,
                             [&](std::size_t begin, std::size_t end) {
                               long s = 0;
                               for (std::size_t i = begin; i < end; ++i) {
                                 s += static_cast<long>(i);
                               }
                               local.fetch_add(s);
                             });
        EXPECT_EQ(local.load(), 64L * 63L / 2L);
        grand.fetch_add(local.load());
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(grand.load(), 3L * 20L * (64L * 63L / 2L));
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
